"""Elaborate a :class:`~repro.system.spec.SystemSpec` into any engine.

One description, four targets:

============ ====================================================== ===========
level        engine                                                 result
============ ====================================================== ===========
tlm          method-based AHB+ TLM (:class:`AhbPlusBusTlm`)         TlmPlatform
tlm-threaded thread-based AHB+ TLM (:class:`ThreadedAhbPlusBus`)    TlmPlatform
plain        AHB+ TLM with ``without_extensions()`` (AMBA 2.0)      TlmPlatform
rtl          pin-accurate 2-step cycle model                        RtlPlatform
============ ====================================================== ===========

Every product satisfies the :class:`Platform` protocol — ``run()``
returning a :class:`~repro.core.bus.AhbPlusRunResult` and
``attach(observer)`` for profiling/assertion hooks — so analysis
code is engine-agnostic: elaborating the same spec at a different level
is a one-argument change, which is the paper's portability claim turned
into an API.

The classic paper topology (one DDR slave at address zero) elaborates
with a fixed construction order, address map and component arguments,
so golden traces and Table-1 numbers reproduce bit-for-bit.  Multi-slave
specs additionally instantiate static slaves (SRAM scratchpads, APB
bridge stubs), the multi-region address decode and, at RTL level,
per-slave response channels combined by the
:class:`~repro.rtl.mux.ResponseMux`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Union, runtime_checkable

from repro.ahb.master import TlmMaster
from repro.ahb.slave import ApbBridgeSlave, SramSlave, TlmSlave
from repro.core.bus import AhbPlusBusTlm, AhbPlusRunResult, TransactionObserver
from repro.core.config import AhbPlusConfig
from repro.core.qos import QosRegisterFile
from repro.core.threaded import ThreadedAhbPlusBus
from repro.core.write_buffer import WriteBuffer
from repro.ddr.controller import DdrControllerTlm
from repro.ddr.memory import MemoryModel
from repro.errors import ConfigError, SimulationError
from repro.kernel.cycle import CycleEngine
from repro.kernel.tracing import VcdTracer
from repro.rtl.arbiter import ArbiterRtl
from repro.rtl.ddrc import DdrcRtl
from repro.rtl.master import MasterRtl, MasterState
from repro.rtl.mux import BusMux, ResponseMux
from repro.rtl.signals import (
    BiSignals,
    MasterSignals,
    SharedBusSignals,
    SlaveResponseSignals,
    all_signals,
)
from repro.rtl.slave import StaticSlaveRtl
from repro.rtl.write_buffer import BufferMasterRtl
from repro.system.spec import LEVELS, SlaveSpec, SystemSpec
from repro.traffic.workloads import Workload


@runtime_checkable
class Platform(Protocol):
    """What every elaborated system exposes, regardless of engine."""

    def run(self, max_cycles: Optional[int] = None) -> AhbPlusRunResult:
        """Run the bound workload to completion."""
        ...

    def attach(self, observer: TransactionObserver) -> None:
        """Register a ``(txn, grant, start, finish)`` observer."""
        ...


@dataclass
class TlmPlatform:
    """An assembled transaction-level system (AHB+ or the plain baseline)."""

    workload: Workload
    #: The configuration the bus runs (extensions off at ``plain``).
    config: AhbPlusConfig
    masters: List[TlmMaster]
    ddrc: DdrControllerTlm
    bus: AhbPlusBusTlm
    #: All slaves in address-map order (``[ddrc]`` on the paper topology).
    slaves: List[TlmSlave]

    @property
    def memory(self) -> MemoryModel:
        """The DDR backing store (for functional checks)."""
        return self.ddrc.memory

    def run(self, max_cycles: Optional[int] = None) -> AhbPlusRunResult:
        """Run the workload to completion."""
        return self.bus.run(max_cycles=max_cycles)

    def attach(self, observer: TransactionObserver) -> None:
        """Register a ``(txn, grant, start, finish)`` observer."""
        self.bus.add_observer(observer)


@dataclass
class RtlPlatform:
    """An assembled pin-accurate AHB+ system.

    :meth:`run` steps the 2-step cycle engine until all traffic drains:
    the per-cycle reference the TLM's speedup is measured against.
    """

    workload: Workload
    config: AhbPlusConfig
    engine: CycleEngine
    agents: List[TlmMaster]
    masters: List[MasterRtl]
    buffer_master: BufferMasterRtl
    write_buffer: WriteBuffer
    arbiter: ArbiterRtl
    ddrc: DdrcRtl
    qos: QosRegisterFile
    bus: SharedBusSignals
    bi: BiSignals
    tracer: Optional[VcdTracer] = None
    #: SRAM/APB slaves of a multi-slave fabric (empty on the paper topology).
    static_slaves: List[StaticSlaveRtl] = field(default_factory=list)
    #: Observers replayed at drain time (see :meth:`attach`).
    observers: List[TransactionObserver] = field(default_factory=list)

    @property
    def memory(self) -> MemoryModel:
        return self.ddrc.memory

    @property
    def slaves(self) -> List[object]:
        """DDRC plus static slaves (reporting convenience)."""
        return [self.ddrc, *self.static_slaves]

    def attach(self, observer: TransactionObserver) -> None:
        """Register a ``(txn, grant, start, finish)`` observer.

        The signal-level model has no per-transfer callback point, so
        observers are *replayed* when :meth:`run` completes, in
        completion order, with the grant/start/finish cycles the FSMs
        recorded.  The delivered set mirrors what live TLM observers
        see: transfers that actually used the bus — master transactions
        plus write-buffer drains (master ``WRITE_BUFFER_MASTER``) —
        while absorbed (posted) originals, which never reached the bus
        themselves, are excluded.  Only the delivery *time* differs
        from the TLM engines.
        """
        self.observers.append(observer)

    #: First master index not yet permanently drained — a monotone
    #: cursor (``MasterRtl.done`` latches true), so the per-cycle
    #: predicate skips the finished prefix instead of re-polling it.
    #: Deliberately a plain class attribute, not a dataclass field.
    _drain_cursor = 0

    def _drained(self) -> bool:
        # Explicit loops: this predicate runs every stepped cycle and
        # the generator-expression form showed up in profiles.
        masters = self.masters
        cursor = self._drain_cursor
        while cursor < len(masters):
            if not masters[cursor].done:
                if cursor != self._drain_cursor:
                    self._drain_cursor = cursor
                return False
            cursor += 1
        if cursor != self._drain_cursor:
            self._drain_cursor = cursor
        if not self.buffer_master.done:
            return False
        if not self.ddrc.idle:
            return False
        for slave in self.static_slaves:
            if not slave.idle:
                return False
        return True

    #: Drain bound used when ``run`` is called with ``max_cycles=None``
    #: — the per-cycle engine needs *some* ceiling to fail loudly on a
    #: deadlocked netlist rather than spin forever.
    DEFAULT_MAX_CYCLES = 2_000_000

    def run(self, max_cycles: Optional[int] = None) -> AhbPlusRunResult:
        """Step the cycle engine until all traffic drains.

        ``max_cycles=None`` (the :class:`~repro.system.Platform`
        protocol's no-limit spelling) falls back to
        :data:`DEFAULT_MAX_CYCLES`.  Returns the same result record as
        the TLM engines so the accuracy harness can compare field by
        field.
        """
        limit = max_cycles if max_cycles is not None else self.DEFAULT_MAX_CYCLES
        self.engine.run_until(self._drained, max_cycles=limit)
        if not self._drained():
            raise SimulationError(
                f"RTL platform did not drain within {limit} cycles"
            )
        result = self._result()
        self._replay_observers()
        return result

    def _replay_observers(self) -> None:
        if not self.observers:
            return
        # Bus transfers only: non-posted master transactions (their
        # grant/start/finish were stamped by the master FSM) and the
        # buffer's drain transfers.  Absorbed originals never owned the
        # bus — live TLM observers never see them either.
        completed = [
            txn
            for agent in self.agents
            for txn in agent.completed
            if not txn.via_write_buffer
        ]
        completed.extend(self.buffer_master.drained_txns)
        completed.sort(key=lambda txn: (txn.finished_at, txn.uid))
        for observer in self.observers:
            for txn in completed:
                observer(txn, txn.granted_at, txn.started_at, txn.finished_at)

    def _result(self) -> AhbPlusRunResult:
        transactions = self.ddrc.reads + self.ddrc.writes
        data_beats = self.ddrc.data_beats
        for slave in self.static_slaves:
            transactions += slave.reads + slave.writes
            data_beats += slave.data_beats
        return AhbPlusRunResult(
            cycles=self.engine.cycle,
            transactions=transactions,
            bytes_transferred=data_beats * self.config.bus_width_bytes,
            busy_cycles=data_beats,
            per_master_transactions=[
                agent.transactions_completed for agent in self.agents
            ],
            error_responses=sum(a.error_aborts for a in self.agents),
            retry_responses=sum(a.retry_responses for a in self.agents),
            absorbed_writes=self.write_buffer.absorbed,
            drained_writes=self.write_buffer.drained,
            max_buffer_occupancy=self.write_buffer.max_occupancy,
            rt_deadline_hits=self.qos.deadline_hits,
            rt_deadline_misses=self.qos.deadline_misses,
            pipelined_grants=self.arbiter.pipelined_grants,
            bi_next_info=self.arbiter.bi_next_info,
            filter_stats=self.arbiter.arbiter.filter_stats(),
        )


AnyPlatform = Union[TlmPlatform, RtlPlatform]


def platform_agents(platform) -> List:
    """The traffic agents of any engine's platform.

    The TLM platforms expose them as ``masters``; the RTL
    platform's ``masters`` are FSMs, its traffic agents live on
    ``agents``.  Analysis collectors use this to stay engine-agnostic.
    """
    return getattr(platform, "agents", None) or platform.masters


def _build_tlm_slave(spec: SlaveSpec, cfg: AhbPlusConfig) -> TlmSlave:
    """Instantiate the transaction-level model a slave spec names."""
    if spec.kind == "ddr":
        return DdrControllerTlm(
            timing=cfg.ddr_timing,
            bus_bytes=cfg.bus_width_bytes,
            refresh_enabled=cfg.refresh_enabled,
        )
    if spec.kind == "sram":
        return SramSlave(
            name=spec.name,
            size=spec.size,
            wait_states=spec.wait_states,
            burst_wait_states=spec.burst_wait_states,
            base_addr=spec.base,
        )
    if spec.kind == "apb":
        return ApbBridgeSlave(
            name=spec.name,
            size=spec.size,
            setup_cycles=spec.setup_cycles,
            base_addr=spec.base,
        )
    raise ConfigError(f"unknown slave kind {spec.kind!r}")  # unreachable


class PlatformBuilder:
    """Elaborates one :class:`SystemSpec` into any abstraction level."""

    def __init__(self, spec: SystemSpec) -> None:
        self.spec = spec

    def build(
        self,
        level: str = "tlm",
        *,
        trace: bool = False,
        full_sweep: bool = False,
    ) -> AnyPlatform:
        """Elaborate at *level* (one of :data:`~repro.system.spec.LEVELS`).

        ``trace``/``full_sweep`` are RTL-only knobs (VCD tracing and the
        reference sweep-everything evaluate phase).
        """
        if level not in LEVELS:
            raise ConfigError(
                f"unknown platform level {level!r}; choose from {LEVELS}"
            )
        if level != "rtl" and (trace or full_sweep):
            raise ConfigError("trace/full_sweep only apply to the rtl level")
        cfg = self.spec.config()
        if level == "rtl":
            return self._build_rtl(cfg, trace=trace, full_sweep=full_sweep)
        return self._build_tlm(cfg, level)

    # -- transaction level -------------------------------------------------------

    def _tlm_slaves(self, cfg: AhbPlusConfig) -> List[TlmSlave]:
        return [
            _build_tlm_slave(sspec, cfg)
            for sspec in self.spec.resolved_slaves(cfg)
        ]

    def _ddr_index(self, cfg: AhbPlusConfig) -> int:
        for index, sspec in enumerate(self.spec.resolved_slaves(cfg)):
            if sspec.kind == "ddr":
                return index
        raise ConfigError(f"system {self.spec.name}: no DDR slave")

    def _slave_faults(self, cfg: AhbPlusConfig):
        """Fault specs declared on slaves, windowed to their regions.

        Fault plans are stamped on transactions at traffic-build time
        (identically at every engine level), so slave-side fault models
        are folded into the masters' injector chain here rather than
        into the slave models themselves.
        """
        return tuple(
            sspec.fault.windowed(sspec.base, sspec.size)
            for sspec in self.spec.resolved_slaves(cfg)
            if sspec.fault is not None
        )

    def _build_tlm(self, cfg: AhbPlusConfig, level: str) -> TlmPlatform:
        workload = self.spec.workload
        masters = workload.build_masters(extra_faults=self._slave_faults(cfg))
        slaves = self._tlm_slaves(cfg)
        ddrc = slaves[self._ddr_index(cfg)]
        assert isinstance(ddrc, DdrControllerTlm)
        address_map = self.spec.address_map(cfg)
        if level == "plain":
            cfg = cfg.without_extensions()
        bus_cls = ThreadedAhbPlusBus if level == "tlm-threaded" else AhbPlusBusTlm
        bus = bus_cls(masters, slaves, config=cfg, address_map=address_map)
        return TlmPlatform(
            workload=workload,
            config=cfg,
            masters=masters,
            ddrc=ddrc,
            bus=bus,
            slaves=slaves,
        )

    # -- register-transfer level ----------------------------------------------------

    def _build_rtl(
        self, cfg: AhbPlusConfig, trace: bool, full_sweep: bool
    ) -> RtlPlatform:
        workload = self.spec.workload
        slave_specs = self.spec.resolved_slaves(cfg)
        single_ddr = len(slave_specs) == 1 and slave_specs[0].kind == "ddr"

        engine = CycleEngine(
            name=f"rtl:{workload.name}", sensitivity=not full_sweep
        )
        agents = workload.build_masters(extra_faults=self._slave_faults(cfg))

        bus = SharedBusSignals(bus_width_bits=cfg.bus_width_bytes * 8)
        bi = BiSignals()
        master_sigs = [MasterSignals(i) for i in range(cfg.num_masters)]
        buffer_sig = MasterSignals(cfg.num_masters)  # the buffer's bus identity

        qos = cfg.build_qos()
        write_buffer = WriteBuffer(
            depth=cfg.write_buffer_depth, enabled=cfg.write_buffer_enabled
        )

        static_slaves: List[StaticSlaveRtl] = []
        responses: List[SlaveResponseSignals] = []
        if single_ddr:
            # Paper topology: the DDRC answers on the shared bus itself.
            ddrc = DdrcRtl(
                bus=bus,
                bi=bi,
                engine=engine,
                timing=cfg.ddr_timing,
                bus_bytes=cfg.bus_width_bytes,
                refresh_enabled=cfg.refresh_enabled,
                streaming=not full_sweep,
            )
            score: Callable[[int], int] = ddrc.access_score
        else:
            ddrc, score = self._build_rtl_slaves(
                cfg,
                slave_specs,
                bus,
                bi,
                engine,
                static_slaves,
                responses,
                streaming=not full_sweep,
            )
            ResponseMux(responses, bus, engine)

        masters = [
            MasterRtl(agent, master_sigs[agent.index], bus, engine)
            for agent in agents
        ]
        buffer_master = BufferMasterRtl(write_buffer, buffer_sig, bus, engine)
        arbiter = ArbiterRtl(
            masters=masters,
            buffer_master=buffer_master,
            write_buffer=write_buffer,
            qos=qos,
            config=cfg,
            bus=bus,
            bi=bi,
            engine=engine,
            ddrc_score=score,
        )
        BusMux([*master_sigs, buffer_sig], bus, engine)

        # Register every signal and the sequential processes.  Order matters
        # only where components call each other directly: the arbiter's
        # write-buffer absorption (and buffer-drain wake) must run before
        # the buffer's and the masters' own updates.  Each component gets
        # its SeqHandle back so it can declare per-component quiescence;
        # wake-on lists re-arm sleepers on the input edges that make
        # their update observable again (full_sweep platforms build the
        # engine with quiescence off, so the handles become inert).
        engine.add_signal(
            *all_signals([*master_sigs, buffer_sig], bus, bi, extra=responses)
        )
        # Filtered wakes (see ``add_sequential``): each predicate masks
        # edges the sleeping FSM provably ignores in its current state,
        # and is conservative — a stale read across a same-commit race
        # can only produce a spurious no-op wake, never a missed one,
        # because the edge that makes the masked signal relevant again
        # is itself on the wake list unfiltered.
        bus_idle = lambda busy=bus.ddr_busy: not busy.value  # noqa: E731
        bi_pulse = lambda valid=bi.next_valid: bool(valid.value)  # noqa: E731
        arbiter.seq = engine.add_sequential(
            arbiter.update,
            wake_on=(
                # Requests matter to a sleeping arbiter only on an idle
                # bus — mid-transfer decisions happen at the scheduled
                # pipelined-lock wake or on the transfer-boundary edges
                # below, where the candidates are re-sampled anyway.
                *((sig.hbusreq, bus_idle) for sig in master_sigs),
                (buffer_sig.hbusreq, bus_idle),
                bus.htrans,
                bus.ddr_busy,
                # Its own BI pulse: the 0->1 commit wakes the arbiter so
                # the next cycle's update clears the one-cycle pulse
                # (the 1->0 clear edge needs no action).
                (bi.next_valid, bi_pulse),
            ),
        )
        ddrc.seq = engine.add_sequential(
            ddrc.update, wake_on=(bus.htrans, (bi.next_valid, bi_pulse))
        )
        for slave in static_slaves:
            slave.seq = engine.add_sequential(
                slave.update, wake_on=(bus.htrans,)
            )

        def requesting(m) -> Callable[[], bool]:
            return lambda: m.state is MasterState.REQUEST

        def streaming_beats(m) -> Callable[[], bool]:
            return lambda: m.state is MasterState.DATA

        for master in (buffer_master, *masters):
            master.seq = engine.add_sequential(
                master.update,
                wake_on=(
                    (master.sig.hgrant, requesting(master)),
                    (bus.bus_available, requesting(master)),
                    (bus.hready, streaming_beats(master)),
                    (bus.stream_owner, streaming_beats(master)),
                ),
            )

        tracer: Optional[VcdTracer] = None
        if trace:
            tracer = VcdTracer()
            tracer.add_signals(
                all_signals([*master_sigs, buffer_sig], bus, bi, extra=responses)
            )
            engine.add_cycle_hook(tracer.sample)

        return RtlPlatform(
            workload=workload,
            config=cfg,
            engine=engine,
            agents=agents,
            masters=masters,
            buffer_master=buffer_master,
            write_buffer=write_buffer,
            arbiter=arbiter,
            ddrc=ddrc,
            qos=qos,
            bus=bus,
            bi=bi,
            tracer=tracer,
            static_slaves=static_slaves,
        )

    def _build_rtl_slaves(
        self,
        cfg: AhbPlusConfig,
        slave_specs,
        bus: SharedBusSignals,
        bi: BiSignals,
        engine: CycleEngine,
        static_slaves: List[StaticSlaveRtl],
        responses: List[SlaveResponseSignals],
        streaming: bool = True,
    ):
        """Instantiate the multi-slave fabric; returns (ddrc, score_fn)."""
        ddrc: Optional[DdrcRtl] = None
        ddr_spec: Optional[SlaveSpec] = None
        width_bits = cfg.bus_width_bytes * 8
        # Route address phases through the *map*, not raw region bounds:
        # that honours the default-slave fallback at RTL exactly as the
        # TLM buses do, and an unmapped address on a strict map raises
        # (MemoryError_) instead of hanging the bus with no responder.
        # All slaves (and the score oracle) probe the same address in the
        # same cycle, so one memoized decode serves every probe.
        amap = self.spec.address_map(cfg)
        last_decode: List[int] = [-1, -1]  # [addr, slave index]

        def route(addr: int) -> int:
            if addr != last_decode[0]:
                last_decode[0] = addr
                last_decode[1] = amap.slave_for(addr)
            return last_decode[1]

        def claims(index: int) -> Callable[[int], bool]:
            def accepts(addr: int, _index: int = index) -> bool:
                return route(addr) == _index

            return accepts

        ddr_index = -1
        for index, sspec in enumerate(slave_specs):
            resp = SlaveResponseSignals(sspec.name, bus_width_bits=width_bits)
            responses.append(resp)
            if sspec.kind == "ddr":
                ddr_spec = sspec
                ddr_index = index
                ddrc = DdrcRtl(
                    bus=bus,
                    bi=bi,
                    engine=engine,
                    timing=cfg.ddr_timing,
                    bus_bytes=cfg.bus_width_bytes,
                    refresh_enabled=cfg.refresh_enabled,
                    out=resp,
                    accepts=claims(index),
                    streaming=streaming,
                )
            else:
                wait, burst_wait = (
                    (sspec.setup_cycles, sspec.setup_cycles)
                    if sspec.kind == "apb"
                    else (sspec.wait_states, sspec.burst_wait_states)
                )
                static_slaves.append(
                    StaticSlaveRtl(
                        name=sspec.name,
                        bus=bus,
                        out=resp,
                        engine=engine,
                        accepts=claims(index),
                        wait_states=wait,
                        burst_wait_states=burst_wait,
                        base=sspec.base,
                        size=sspec.size,
                    )
                )
        assert ddrc is not None and ddr_spec is not None  # spec validated

        ddr_score = ddrc.access_score

        def score(addr: int) -> int:
            # Route through the map (not raw DDR bounds) so an address
            # the default slave catches scores exactly as at TLM, where
            # the routed bank oracle uses AddressMap.slave_for.  Static
            # slaves have no bank structure: constant best score, so
            # the bank filter only differentiates DDR candidates.
            return ddr_score(addr) if route(addr) == ddr_index else 0

        return ddrc, score

