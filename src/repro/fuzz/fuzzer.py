"""The fuzzer proper: seeded scenario drawing and cross-engine checking.

One seed deterministically maps to one scenario (a :class:`SystemSpec`
with adversarial traffic shaping and optional fault injection), so a
failing seed is itself a repro — the shrunk trace merely makes it
minimal and engine-independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.trace_diff import trace_diff
from repro.assertions.properties import OrderingChecker, QosPropertyChecker
from repro.assertions.protocol import RtlProtocolChecker, TransactionChecker
from repro.core.config import AhbPlusConfig
from repro.core.qos import QosSetting
from repro.errors import ConfigError
from repro.system.platform import PlatformBuilder
from repro.system.spec import LEVELS, BusSpec, SystemSpec
from repro.traffic.faults import FaultSpec
from repro.traffic.patterns import TrafficPattern
from repro.traffic.trace import TraceRecord, TraceRecorder
from repro.traffic.workloads import MasterSpec, Workload

#: Checker families the fuzzer can arm.  ``"qos"`` treats deadline
#: misses as failures; it is off by default because the fuzzer
#: *deliberately* draws unschedulable deadlines — arm it when hunting
#: QoS-hazard repros rather than model bugs.
CHECKS = ("protocol", "ordering", "divergence", "qos")
DEFAULT_CHECKS = ("protocol", "ordering", "divergence")

#: Engines the fuzzer can run: every platform level, plus the
#: ``"rtl-full"`` pseudo-engine — the RTL platform elaborated with
#: ``full_sweep=True``, i.e. the always-sweeping reference kernel the
#: event-driven scheduler is A/B'd against.  Keeping both in the
#: default matrix makes every campaign a cross-check of the
#: event-driven fast path against its own reference *and* the TLM/plain
#: models.
ENGINES = LEVELS + ("rtl-full",)
DEFAULT_ENGINES = ("tlm", "plain", "rtl", "rtl-full")

#: Default per-run drain ceiling: far above any legal small scenario,
#: so hitting it means a deadlocked engine (reported as a crash).
DEFAULT_MAX_CYCLES = 200_000


@dataclass(frozen=True)
class Observation:
    """What a failing run looked like.

    ``signature`` is the stable identity used to decide "same failure"
    during shrinking and repro replay; ``detail`` is the human story.
    """

    kind: str  #: ``"violation"`` | ``"divergence"`` | ``"crash"``
    engine: str
    signature: Tuple[str, ...]
    detail: str


@dataclass(frozen=True)
class FuzzFailure:
    """One failing seed with everything needed to replay it."""

    seed: int
    observation: Observation
    #: Offered trace (shrunk when shrinking was on); empty only when
    #: the reference engine crashed before anything completed.
    records: Tuple[TraceRecord, ...]
    #: The scenario's resolved bus config (pins master count, QoS map,
    #: write-buffer shape — everything replay must reproduce).
    config: AhbPlusConfig
    num_masters: int
    engines: Tuple[str, ...]
    checks: Tuple[str, ...]

    def describe(self) -> str:
        obs = self.observation
        return (
            f"seed {self.seed}: {obs.kind} at {obs.engine} "
            f"({len(self.records)} records) — {obs.detail}"
        )


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    seeds: Tuple[int, ...]
    failures: Tuple[FuzzFailure, ...]

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.clean:
            return f"{len(self.seeds)} seeds fuzzed, no failures"
        return (
            f"{len(self.seeds)} seeds fuzzed, "
            f"{len(self.failures)} FAILURES: "
            + "; ".join(f.describe() for f in self.failures)
        )


def replay_system(
    config: AhbPlusConfig,
    num_masters: int,
    records: Sequence[TraceRecord],
    name: str = "fuzz-replay",
) -> SystemSpec:
    """Bind a captured (possibly shrunk) trace back into a system.

    The pinned config reproduces the original scenario's bus exactly;
    the trace records reproduce the offered traffic — including fault
    plans and QoS deadlines, which travel on the records themselves.
    """
    workload = Workload.from_trace(
        tuple(records), name=name, num_masters=num_masters
    )
    return SystemSpec(name=name, workload=workload, bus=BusSpec(config=config))


class Fuzzer:
    """Draws, runs and (on failure) shrinks adversarial scenarios."""

    def __init__(
        self,
        engines: Sequence[str] = DEFAULT_ENGINES,
        checks: Sequence[str] = DEFAULT_CHECKS,
        masters: Tuple[int, int] = (1, 3),
        transactions: Tuple[int, int] = (3, 10),
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> None:
        engines = tuple(engines)
        if len(engines) < 1:
            raise ConfigError("fuzzer needs at least one engine")
        for engine in engines:
            if engine not in ENGINES:
                raise ConfigError(
                    f"unknown engine {engine!r}; choose from {ENGINES}"
                )
        checks = tuple(checks)
        unknown = set(checks) - set(CHECKS)
        if unknown:
            raise ConfigError(
                f"unknown checks {sorted(unknown)}; choose from {CHECKS}"
            )
        if "divergence" in checks and len(engines) < 2:
            raise ConfigError("divergence checking needs >= 2 engines")
        if not 1 <= masters[0] <= masters[1]:
            raise ConfigError(f"bad masters range {masters}")
        if not 1 <= transactions[0] <= transactions[1]:
            raise ConfigError(f"bad transactions range {transactions}")
        if max_cycles < 1:
            raise ConfigError("max_cycles must be positive")
        self.engines = engines
        self.checks = checks
        self.masters = masters
        self.transactions = transactions
        self.max_cycles = max_cycles

    # -- scenario drawing -----------------------------------------------------

    def scenario(self, seed: int) -> SystemSpec:
        """The (deterministic) adversarial scenario for *seed*.

        Hostile but legal: every knob stays inside the constructors'
        validated ranges — the point is to stress the engines, not the
        parameter validation.
        """
        rng = random.Random(seed)
        count = rng.randint(*self.masters)
        specs: List[MasterSpec] = []
        for index in range(count):
            size = rng.choice((1, 2, 4))
            # Wrap-heavy mixes in tight windows drive the 1 KB boundary
            # and wrap arithmetic; sub-word sizes stress beat math.
            mix = rng.choice(
                (
                    ((4, 0.5), (8, 0.3), (16, 0.2)),
                    ((1, 0.2), (4, 0.8)),
                    ((16, 1.0),),
                    ((1, 0.5), (8, 0.5)),
                )
            )
            span = rng.choice((1 << 10, 4 << 10, 64 << 10))
            span = max(span, size * 32)
            base = index * (4 << 20) + rng.choice((0, 1 << 10, 64 << 10))
            rt = rng.random() < 0.5
            deadline = rng.randint(8, 40) if rt else None
            pattern = TrafficPattern(
                name=f"fuzz-m{index}",
                read_fraction=rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)),
                burst_mix=mix,
                think_range=(0, rng.choice((0, 2, 6))),
                base_addr=base,
                addr_span=span,
                sequential_fraction=rng.random(),
                size_bytes=size,
                wrap_fraction=rng.choice((0.0, 0.5, 1.0)),
                period=rng.randint(20, 80) if rt else None,
                deadline_offset=deadline,
            )
            qos = (
                QosSetting(real_time=True, objective_cycles=deadline)
                if rt
                else QosSetting()
            )
            specs.append(
                MasterSpec(
                    name=f"m{index}",
                    pattern=pattern,
                    transactions=rng.randint(*self.transactions),
                    qos=qos,
                )
            )
        fault: Optional[FaultSpec] = None
        if rng.random() < 0.6:  # three scenarios in five inject faults
            error_rate = rng.uniform(0.0, 0.25)
            fault = FaultSpec(
                seed=rng.randrange(1 << 31),
                error_rate=error_rate,
                retry_rate=rng.uniform(0.0, min(0.35, 1.0 - error_rate)),
                max_retries=rng.randint(1, 3),
                retry_limit=rng.randint(0, 4),
            )
        workload = Workload(
            name=f"fuzz-{seed}",
            seed=seed,
            masters=tuple(specs),
            fault=fault,
        )
        spec = SystemSpec(name=f"fuzz-{seed}", workload=workload).with_config(
            write_buffer_depth=rng.choice((1, 2, 4, 8)),
            write_buffer_enabled=rng.random() < 0.8,
        )
        return spec

    # -- running --------------------------------------------------------------

    def _run_engine(self, spec: SystemSpec, engine: str, seed: Optional[int]):
        """One engine run: returns (records, [(checker, violation)...])."""
        if engine == "rtl-full":
            level, full_sweep = "rtl", True
        else:
            level, full_sweep = engine, False
        platform = PlatformBuilder(spec).build(level, full_sweep=full_sweep)
        recorder = TraceRecorder()
        platform.attach(recorder)
        checkers = []
        if "protocol" in self.checks:
            checkers.append(TransactionChecker().bind(engine, seed))
        if "ordering" in self.checks:
            checkers.append(OrderingChecker().bind(engine, seed))
        if "qos" in self.checks:
            checkers.append(QosPropertyChecker().bind(engine, seed))
        for checker in checkers:
            platform.attach(checker)
        if level == "rtl" and "protocol" in self.checks:
            rtl_checker = RtlProtocolChecker(
                [master.sig for master in platform.masters], platform.bus
            )
            rtl_checker.bind(engine, seed)
            platform.engine.add_cycle_hook(rtl_checker.sample)
            checkers.append(rtl_checker)
        platform.run(max_cycles=self.max_cycles)
        flagged = [
            (checker.name, violation)
            for checker in checkers
            for violation in checker.violations
        ]
        return recorder.records, flagged

    @staticmethod
    def _violation_obs(flagged, engine: str) -> Optional[Observation]:
        if not flagged:
            return None
        checker_name, violation = flagged[0]
        return Observation(
            kind="violation",
            engine=engine,
            signature=("violation", engine, checker_name, violation.rule),
            detail=str(violation),
        )

    def observe(
        self, spec: SystemSpec, seed: Optional[int] = None
    ) -> Tuple[Tuple[TraceRecord, ...], Optional[Observation]]:
        """Run *spec* at every engine; first failure wins.

        Evaluation order: reference-engine crash/violations, then per
        additional engine crash, violations, and functional divergence
        against the reference trace.  Engines after the failing one
        never run, which keeps shrinking cheap.
        """
        reference = self.engines[0]
        try:
            ref_records, flagged = self._run_engine(spec, reference, seed)
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            return (), Observation(
                kind="crash",
                engine=reference,
                signature=("crash", reference, type(exc).__name__),
                detail=str(exc),
            )
        ref_records = tuple(ref_records)
        obs = self._violation_obs(flagged, reference)
        if obs is not None:
            return ref_records, obs
        for engine in self.engines[1:]:
            try:
                records, flagged = self._run_engine(spec, engine, seed)
            except Exception as exc:  # noqa: BLE001
                return ref_records, Observation(
                    kind="crash",
                    engine=engine,
                    signature=("crash", engine, type(exc).__name__),
                    detail=str(exc),
                )
            obs = self._violation_obs(flagged, engine)
            if obs is not None:
                return ref_records, obs
            if "divergence" in self.checks:
                diff = trace_diff(ref_records, records)
                if not diff.functionally_identical:
                    first = (
                        diff.mismatches[0].field
                        if diff.mismatches
                        else "records"
                    )
                    return ref_records, Observation(
                        kind="divergence",
                        engine=engine,
                        signature=("divergence", engine, first),
                        detail=diff.summary(),
                    )
        return ref_records, None

    def observe_replay(
        self,
        config: AhbPlusConfig,
        num_masters: int,
        records: Sequence[TraceRecord],
        seed: Optional[int] = None,
    ) -> Optional[Observation]:
        """Replay a captured trace and report what (if anything) fails."""
        if not records:
            return None
        spec = replay_system(config, num_masters, records)
        _records, obs = self.observe(spec, seed)
        return obs

    # -- campaign -------------------------------------------------------------

    def run_seed(self, seed: int, shrink: bool = True) -> Optional[FuzzFailure]:
        """Fuzz one seed; returns its (shrunk) failure or ``None``."""
        from repro.fuzz.shrink import shrink_records

        spec = self.scenario(seed)
        config = spec.config()
        records, obs = self.observe(spec, seed)
        if obs is None:
            return None
        if records and shrink:
            signature = obs.signature

            def still_fails(candidate: Sequence[TraceRecord]) -> bool:
                if not candidate:
                    return False
                replay_obs = self.observe_replay(
                    config, config.num_masters, candidate, seed
                )
                return (
                    replay_obs is not None
                    and replay_obs.signature == signature
                )

            records = shrink_records(records, still_fails)
        return FuzzFailure(
            seed=seed,
            observation=obs,
            records=tuple(records),
            config=config,
            num_masters=config.num_masters,
            engines=self.engines,
            checks=self.checks,
        )

    def run(
        self,
        seeds: Sequence[int],
        shrink: bool = True,
        max_failures: Optional[int] = None,
    ) -> FuzzReport:
        """Fuzz every seed; optionally stop after *max_failures*."""
        failures: List[FuzzFailure] = []
        fuzzed: List[int] = []
        for seed in seeds:
            fuzzed.append(seed)
            failure = self.run_seed(seed, shrink=shrink)
            if failure is not None:
                failures.append(failure)
                if max_failures is not None and len(failures) >= max_failures:
                    break
        return FuzzReport(seeds=tuple(fuzzed), failures=tuple(failures))
