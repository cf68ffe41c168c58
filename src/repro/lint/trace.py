"""Read-tracking lint elaboration: traced signals + registration capture.

The netlist analyzer needs two things the normal kernel never exposes:

* **which process reads which signal** — captured by
  :class:`TracedSignal`, a :class:`~repro.kernel.signal.Signal`
  subclass whose ``value`` attribute is a recording property.  It is
  swapped in through :func:`repro.kernel.signal.make_signal` for the
  duration of a lint elaboration, so normal runs keep the plain slot
  attribute (the descriptor-free hot path the kernel docstring insists
  on); and
* **which process was registered with which contract** — captured by
  the :data:`repro.kernel.cycle._lint_observer` hook, which also wraps
  each registered ``handle.fn`` so reads and drives executed while the
  process runs are attributed to it (with the engine phase in hand for
  the NET-PHASE rule).

Both hooks are installed only inside :func:`lint_elaboration`; they are
consulted at construction/registration time, never per cycle, so lint
support adds nothing to the hot path that the ``make bench`` perfbench
workloads time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.kernel import cycle as _cycle_mod
from repro.kernel import signal as _signal_mod
from repro.kernel.signal import Signal


@dataclass
class ProcInfo:
    """One registered process with its declared contract and trace."""

    kind: str  #: ``"comb"`` or ``"seq"``
    fn: object  #: the original (unwrapped) process callable
    engine_name: str
    #: Declared contract entries as ``(signal, has_predicate)`` pairs —
    #: ``sensitive_to`` for comb processes, ``wake_on`` for seq ones.
    entries: Tuple[Tuple[Signal, bool], ...] = ()
    static: bool = False  #: comb process registered without a list
    #: Signals read while this process executed (dynamic evidence).
    dyn_reads: Set[Signal] = field(default_factory=set)
    #: ``(signal, kind)`` drives executed by this process, where kind is
    #: ``drive`` / ``drive_next`` / ``drive_next_lazy``.
    dyn_drives: Set[Tuple[Signal, str]] = field(default_factory=set)
    #: Drives that violated the phase discipline at runtime.
    phase_events: Set[Tuple[Signal, str]] = field(default_factory=set)

    @property
    def component(self) -> Optional[object]:
        return getattr(self.fn, "__self__", None)

    @property
    def name(self) -> str:
        comp = self.component
        fn_name = getattr(self.fn, "__name__", repr(self.fn))
        if comp is not None:
            return f"{type(comp).__name__}.{fn_name}"
        return getattr(self.fn, "__qualname__", fn_name)

    @property
    def declared(self) -> Set[Signal]:
        """The declared contract signals (predicate entries included)."""
        return {sig for sig, _pred in self.entries}


@dataclass
class Netlist:
    """Everything one lint elaboration captured."""

    signals: List[Signal] = field(default_factory=list)
    procs: List[ProcInfo] = field(default_factory=list)
    #: Reads observed outside any process (monitors, hooks, harnesses) —
    #: genuine consumers as far as the dead-signal rule is concerned.
    external_reads: Set[Signal] = field(default_factory=set)


class _Tracker:
    """Mutable read/drive recording state shared with TracedSignal."""

    __slots__ = ("netlist", "suppress", "current", "phase")

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        #: Non-zero while inside a Signal method (drive/commit and the
        #: watcher cascade they trigger): the internal ``value`` compares
        #: and watcher-predicate reads are kernel mechanics, not process
        #: reads, and recording them would fabricate dependencies.
        self.suppress = 0
        self.current: Optional[ProcInfo] = None
        self.phase: Optional[str] = None

    def record_read(self, sig: Signal) -> None:
        proc = self.current
        if proc is not None:
            proc.dyn_reads.add(sig)
        else:
            self.netlist.external_reads.add(sig)

    def record_drive(self, sig: Signal, kind: str) -> None:
        proc = self.current
        if proc is None:
            return
        proc.dyn_drives.add((sig, kind))
        phase = self.phase
        if phase == "update" and kind == "drive":
            proc.phase_events.add((sig, kind))
        elif phase == "evaluate" and kind != "drive":
            proc.phase_events.add((sig, kind))


#: The active tracker; ``None`` outside a lint elaboration.
_ACTIVE: Optional[_Tracker] = None


#: Storage descriptor of the base class's ``value`` slot: the traced
#: property shadows the name, so the slot is reached through the
#: descriptor directly.
_VALUE_SLOT = Signal.value  # type: ignore[valid-type]


class TracedSignal(Signal):
    """A signal whose value reads are attributed to the running process.

    ``__slots__`` stays empty so instances keep the base layout; the
    ``value`` class attribute shadows the inherited slot descriptor with
    a recording property (lint elaborations are not performance-bound).
    Drive/commit entry points bump the tracker's suppression counter so
    their internal compares — and the watcher/predicate cascade they
    trigger — never register as process reads.
    """

    __slots__ = ()

    def __init__(self, name: str, width: int = 1, reset: int = 0) -> None:
        tracker = _ACTIVE
        if tracker is not None:
            tracker.suppress += 1
            try:
                Signal.__init__(self, name, width=width, reset=reset)
            finally:
                tracker.suppress -= 1
            tracker.netlist.signals.append(self)
        else:  # pragma: no cover - constructed outside an elaboration
            Signal.__init__(self, name, width=width, reset=reset)

    @property  # type: ignore[override]
    def value(self) -> int:
        tracker = _ACTIVE
        if tracker is not None and tracker.suppress == 0:
            tracker.record_read(self)
        return _VALUE_SLOT.__get__(self, TracedSignal)

    @value.setter
    def value(self, new: int) -> None:
        _VALUE_SLOT.__set__(self, new)

    def __bool__(self) -> bool:
        return bool(self.value)

    def _recorded(self, kind: str, value: object, base) -> bool:
        tracker = _ACTIVE
        if tracker is None:  # pragma: no cover - outside an elaboration
            return base(self, value)
        tracker.record_drive(self, kind)
        tracker.suppress += 1
        try:
            return base(self, value)
        finally:
            tracker.suppress -= 1

    def drive(self, value: object) -> bool:
        return self._recorded("drive", value, Signal.drive)

    def drive_next(self, value: object) -> None:
        self._recorded("drive_next", value, Signal.drive_next)

    def drive_next_lazy(self, value: object) -> None:
        self._recorded("drive_next_lazy", value, Signal.drive_next_lazy)

    def commit(self) -> bool:
        tracker = _ACTIVE
        if tracker is None:  # pragma: no cover - outside an elaboration
            return Signal.commit(self)
        tracker.suppress += 1
        try:
            return Signal.commit(self)
        finally:
            tracker.suppress -= 1


def _normalize_entries(
    entries: Optional[Sequence[object]],
) -> Tuple[Tuple[Signal, bool], ...]:
    if entries is None:
        return ()
    out: List[Tuple[Signal, bool]] = []
    for entry in entries:
        if type(entry) is tuple:
            out.append((entry[0], True))
        else:
            out.append((entry, False))  # type: ignore[arg-type]
    return tuple(out)


class _Observer:
    """Registration hook body for :data:`repro.kernel.cycle._lint_observer`."""

    def __init__(self, tracker: _Tracker) -> None:
        self.tracker = tracker
        self.netlist = tracker.netlist

    def _wrap(self, proc: ProcInfo, fn, phase: str):
        tracker = self.tracker

        def traced() -> None:
            prev_proc, prev_phase = tracker.current, tracker.phase
            tracker.current, tracker.phase = proc, phase
            try:
                fn()
            finally:
                tracker.current, tracker.phase = prev_proc, prev_phase

        return traced

    def combinational(self, engine, handle, fn, sensitive_to) -> None:
        proc = ProcInfo(
            kind="comb",
            fn=fn,
            engine_name=engine.name,
            entries=_normalize_entries(sensitive_to),
            static=sensitive_to is None,
        )
        self.netlist.procs.append(proc)
        handle.fn = self._wrap(proc, fn, "evaluate")

    def sequential(self, engine, handle, fn, wake_on) -> None:
        proc = ProcInfo(
            kind="seq",
            fn=fn,
            engine_name=engine.name,
            entries=_normalize_entries(wake_on),
        )
        self.netlist.procs.append(proc)
        handle.fn = self._wrap(proc, fn, "update")


@contextmanager
def lint_elaboration() -> Iterator[Netlist]:
    """Install the lint hooks for the duration of one elaboration.

    Everything constructed inside the ``with`` block — signals through
    :func:`~repro.kernel.signal.make_signal` (which every
    :class:`~repro.kernel.signal.SignalBundle` uses) and processes
    through the engine registration methods — lands in the yielded
    :class:`Netlist`.  Running cycles inside the block is optional:
    the contract rules are static, dynamic traces only add evidence.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise SimulationError("lint elaborations cannot nest")
    netlist = Netlist()
    tracker = _Tracker(netlist)
    _ACTIVE = tracker
    _signal_mod._signal_class = TracedSignal
    _cycle_mod._lint_observer = _Observer(tracker)
    try:
        yield netlist
    finally:
        _ACTIVE = None
        _signal_mod._signal_class = None
        _cycle_mod._lint_observer = None


@contextmanager
def suppressed_tracking() -> Iterator[None]:
    """Mute read/drive recording (static analysis resolves live objects,
    and resolving an attribute chain must not register as a read)."""
    tracker = _ACTIVE
    if tracker is None:
        yield None
        return
    tracker.suppress += 1
    try:
        yield None
    finally:
        tracker.suppress -= 1
