"""Two-phase signals for the pin-accurate models.

A :class:`Signal` mimics an ``sc_signal``/Verilog wire-or-reg pair:

* **Combinational drive** (:meth:`drive`) takes effect immediately and
  marks the signal changed, so the cycle engine's evaluate phase can
  iterate until the netlist settles.
* **Registered drive** (:meth:`drive_next`) stores a pending value that
  only becomes visible when :meth:`commit` runs at the clock edge —
  the classic two-phase (evaluate/update) discipline that prevents
  race conditions between flip-flops.

Signals carry integer values only (buses are modelled as integers of the
configured width); ``bool`` is accepted and normalised to ``0``/``1``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.errors import SimulationError

_UNSET = object()

#: Constructor used for bundle-built signals.  ``repro.lint`` swaps in
#: a read-tracking subclass for the duration of a lint elaboration;
#: normal runs never see anything but :class:`Signal`.  The hook is
#: consulted at *construction time only* — the per-cycle read/write
#: paths are untouched, so lint support costs the hot path nothing.
_signal_class: "Optional[type]" = None


def make_signal(name: str, width: int = 1, reset: int = 0) -> "Signal":
    """Build a signal through the lint-elaboration hook.

    Returns a plain :class:`Signal` unless a lint elaboration is in
    progress (see :mod:`repro.lint.trace`), in which case the traced
    subclass is instantiated instead.
    """
    cls = _signal_class
    if cls is None:
        cls = Signal
    return cls(name, width=width, reset=reset)


class Signal:
    """A named, width-checked wire with two-phase update semantics."""

    __slots__ = (
        "name",
        "width",
        "value",
        "_next",
        "_changed",
        "_watchers",
        "_mask",
        "_commit_hook",
        "_commit_queued",
    )

    def __init__(self, name: str, width: int = 1, reset: int = 0) -> None:
        if width < 1 or width > 128:
            raise SimulationError(f"signal {name}: unsupported width {width}")
        self.name = name
        self.width = width
        self._mask = (1 << width) - 1
        #: The currently visible (committed) value.  A plain attribute,
        #: not a property: per-cycle models read signals millions of
        #: times and the descriptor call was a measurable hot-path cost.
        #: Treat it as read-only — writes go through drive/drive_next.
        self.value = self._coerce(reset)
        self._next: object = _UNSET
        self._changed = False
        self._watchers: List[Callable[["Signal"], None]] = []
        # Set by a cycle engine so it only commits signals that were
        # actually driven this cycle instead of sweeping the netlist.
        self._commit_hook: Optional[Callable[["Signal"], None]] = None
        self._commit_queued = False

    def _coerce(self, value: object) -> int:
        # Exact-type test first: plain ints dominate the hot path.
        if type(value) is int:
            return value & self._mask
        if isinstance(value, int):  # bool, IntEnum, other int subclasses
            return int(value) & self._mask
        raise SimulationError(
            f"signal {self.name}: non-integer value {value!r}"
        )

    # -- read ---------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.value)

    # -- combinational drive -------------------------------------------------

    def drive(self, value: object) -> bool:
        """Immediately set the value (combinational logic).

        Returns ``True`` when the visible value actually changed, which
        the cycle engine uses to decide whether the netlist has settled.
        """
        # Inline the exact-int coercion: this is the hottest write path.
        if type(value) is int:
            coerced = value & self._mask
        else:
            coerced = self._coerce(value)
        if coerced == self.value:
            return False
        self.value = coerced
        self._changed = True
        for watcher in self._watchers:
            watcher(self)
        return True

    # -- registered drive ----------------------------------------------------

    def drive_next(self, value: object) -> None:
        """Schedule *value* to appear at the next :meth:`commit` (clock edge)."""
        if type(value) is int:
            self._next = value & self._mask
        else:
            self._next = self._coerce(value)
        if self._commit_hook is not None and not self._commit_queued:
            self._commit_queued = True
            self._commit_hook(self)

    def drive_next_lazy(self, value: object) -> None:
        """:meth:`drive_next`, eliding the no-op commit.

        When nothing else is pending and the registered value equals the
        visible one, scheduling it would only produce a commit that
        compares equal and returns — so the schedule is skipped.  Any
        pending value falls through to a real registered drive (the
        later registered drive must still win the edge).  Observable
        semantics are exactly :meth:`drive_next`'s; per-cycle FSM
        outputs use this because they re-drive mostly-stable values.
        """
        if type(value) is int:
            coerced = value & self._mask
        else:
            coerced = self._coerce(value)
        if coerced == self.value and self._next is _UNSET:
            return
        self._next = coerced
        if self._commit_hook is not None and not self._commit_queued:
            self._commit_queued = True
            self._commit_hook(self)

    def attach_commit_hook(self, hook: Callable[["Signal"], None]) -> None:
        """Let a cycle engine track which signals need committing.

        A registered drive issued *before* attachment (reset idiom:
        ``sig.drive_next(v)`` in a component constructor, engine
        registration later) is immediately reported through *hook* so it
        still commits at the first edge.
        """
        self._commit_hook = hook
        if self._next is not _UNSET and not self._commit_queued:
            self._commit_queued = True
            hook(self)

    def commit(self) -> bool:
        """Publish the pending registered value, if any.

        Returns ``True`` when the visible value changed.
        """
        pending = self._next
        if pending is _UNSET:
            return False
        self._next = _UNSET
        if pending == self.value:
            return False
        self.value = pending
        self._changed = True
        for watcher in self._watchers:
            watcher(self)
        return True

    # -- change tracking -----------------------------------------------------

    def consume_changed(self) -> bool:
        """Return and clear the changed flag (used by the settle loop)."""
        was = self._changed
        self._changed = False
        return was

    def watch(self, callback: Callable[["Signal"], None]) -> None:
        """Invoke *callback(signal)* whenever the visible value changes."""
        self._watchers.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, width={self.width}, value={self.value:#x})"


class SignalBundle:
    """A named group of signals, handy for ports of RTL components.

    Subclasses (or callers) add :class:`Signal` attributes; the bundle
    iterates them so platforms can wire whole interfaces at once.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix

    def signals(self) -> Iterable[Signal]:
        """Yield every :class:`Signal` attribute of the bundle."""
        for attr in vars(self).values():
            if isinstance(attr, Signal):
                yield attr

    def make(self, name: str, width: int = 1, reset: int = 0) -> Signal:
        """Create a signal named ``<prefix>.<name>`` and attach it."""
        sig = make_signal(f"{self.prefix}.{name}", width=width, reset=reset)
        setattr(self, name, sig)
        return sig
