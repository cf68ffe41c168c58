"""Simulation-speed measurement (the paper's §4 speed experiment).

The paper reports 0.47 Kcycles/s for the pin-accurate RTL model,
166 Kcycles/s for the 4-master TLM (353× speedup) and 456 Kcycles/s
with a single master.  Absolute numbers depend on the host and the
implementation language; what this module reproduces is the *shape*:
Kcycles/s per model, the TLM/RTL ratio, and the single-master uplift.

Measurement runs on the :class:`~repro.exec.SweepRunner` serial backend
(in-process, so wall clocks see no pool overhead) with ``repeats`` for
best-of-N timing: every repeat rebuilds the platform untimed and times
only ``run()`` — the exact methodology the hand-rolled loops used
before the runner layer absorbed them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.config import AhbPlusConfig
from repro.errors import ConfigError
from repro.exec import SweepRunner
from repro.kernel.simulator import Simulator
from repro.system.platform import PlatformBuilder
from repro.system.scenarios import paper_topology
from repro.system.spec import sweep
from repro.traffic.workloads import Workload


@dataclass(frozen=True)
class SpeedSample:
    """One model's measured simulation speed."""

    model: str
    simulated_cycles: int
    wall_seconds: float

    @property
    def kcycles_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.simulated_cycles / self.wall_seconds / 1000.0


@dataclass
class SpeedReport:
    """The §4 speed table: RTL vs TLM plus single-master."""

    rtl: SpeedSample
    tlm_method: SpeedSample
    tlm_thread: Optional[SpeedSample] = None
    tlm_single_master: Optional[SpeedSample] = None

    @property
    def speedup(self) -> float:
        """TLM (method) over RTL — the paper's 353×."""
        if self.rtl.kcycles_per_sec <= 0:
            return float("inf")
        return self.tlm_method.kcycles_per_sec / self.rtl.kcycles_per_sec

    @property
    def method_over_thread(self) -> Optional[float]:
        if self.tlm_thread is None:
            return None
        if self.tlm_thread.kcycles_per_sec <= 0:
            return float("inf")
        return self.tlm_method.kcycles_per_sec / self.tlm_thread.kcycles_per_sec


def _timed(label: str, runner: Callable[[], int]) -> SpeedSample:
    start = time.perf_counter()
    cycles = runner()
    elapsed = time.perf_counter() - start
    return SpeedSample(model=label, simulated_cycles=cycles, wall_seconds=elapsed)


def _measure(
    label: str,
    level: str,
    workload: Workload,
    config: Optional[AhbPlusConfig],
    repeats: int,
) -> SpeedSample:
    """Best-of-N wall-clock one engine level via the serial runner."""
    grid = sweep(
        paper_topology(workload=workload, config=config),
        axis="engine",
        values=(level,),
        labels=(label,),
    )
    [record] = SweepRunner(backend="serial", repeats=max(repeats, 1)).run(grid)
    return SpeedSample(
        model=label,
        simulated_cycles=record.cycles,
        wall_seconds=record.wall_seconds,
    )


def measure_rtl(
    workload: Workload,
    config: Optional[AhbPlusConfig] = None,
    repeats: int = 1,
) -> SpeedSample:
    """Wall-clock the pin-accurate model on *workload*."""
    return _measure("rtl", "rtl", workload, config, repeats)


def measure_tlm(
    workload: Workload,
    config: Optional[AhbPlusConfig] = None,
    engine: str = "method",
    repeats: int = 3,
) -> SpeedSample:
    """Wall-clock a TLM engine on *workload* (best of *repeats* runs).

    *engine* is the paper's §4 name: ``"method"`` or ``"thread"``.
    """
    level = {"method": "tlm", "thread": "tlm-threaded"}.get(engine)
    if level is None:
        raise ConfigError(f"unknown engine {engine!r}; use 'method' or 'thread'")
    return _measure(f"tlm-{engine}", level, workload, config, repeats)


def speed_comparison(
    multi_master: Workload,
    single_master: Optional[Workload] = None,
    config: Optional[AhbPlusConfig] = None,
    include_thread: bool = True,
) -> SpeedReport:
    """Run the full §4 speed experiment."""
    rtl = measure_rtl(multi_master, config)
    tlm = measure_tlm(multi_master, config, engine="method")
    thread = (
        measure_tlm(multi_master, config, engine="thread")
        if include_thread
        else None
    )
    single = None
    if single_master is not None:
        best = measure_tlm(single_master, engine="method")
        single = SpeedSample(
            model="tlm-single-master",
            simulated_cycles=best.simulated_cycles,
            wall_seconds=best.wall_seconds,
        )
    return SpeedReport(
        rtl=rtl, tlm_method=tlm, tlm_thread=thread, tlm_single_master=single
    )


def kernel_comparison(workload: Workload, cycles: int = 5000) -> List[SpeedSample]:
    """2-step cycle engine vs event-driven stepping of the same netlist.

    The paper used a "2-step cycle-based simulation tool to further
    speed up the simulation" over an event-driven simulator.  Both runs
    here execute the identical RTL platform for the same cycle count;
    the event-driven variant re-schedules every cycle through the
    discrete-event queue, paying heap traffic per cycle, while the
    cycle engine just sweeps.  (This is a kernel microbenchmark, not a
    sweep — it stays on the direct builder API.)
    """
    builder = PlatformBuilder(paper_topology(workload=workload))
    native = builder.build("rtl")
    native_sample = _timed(
        "cycle-kernel", lambda: (native.engine.run(cycles), native.engine.cycle)[1]
    )

    event_driven = builder.build("rtl")
    sim = Simulator()

    def run_via_events() -> int:
        def tick() -> None:
            event_driven.engine.step()
            if event_driven.engine.cycle < cycles:
                sim.schedule_after(1, tick)

        sim.schedule_after(1, tick)
        sim.run()
        return event_driven.engine.cycle

    event_sample = _timed("event-kernel", run_via_events)
    return [native_sample, event_sample]
