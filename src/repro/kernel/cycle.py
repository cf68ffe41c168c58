"""The 2-step cycle-based simulation engine.

The paper reports using a "2-step cycle-based simulation tool" to speed
up validation of the AHB+ models.  This module implements that engine:
every clock cycle consists of exactly two steps,

1. **Evaluate** — combinational processes run, repeatedly, until no
   signal changes (a bounded settle loop; exceeding the bound means the
   netlist has a combinational feedback loop and raises
   :class:`~repro.errors.CombinationalLoopError`), then
2. **Update** — all sequential processes observe the settled signal
   values and register their next state via
   :meth:`~repro.kernel.signal.Signal.drive_next`; afterwards every
   driven signal commits, and commits are followed by one more settle
   pass so combinational outputs reflect the new state.

Sensitivity semantics
---------------------
The engine supports *registered sensitivity lists*: a combinational
process registered with ``add_combinational(fn, sensitive_to=[...])``
is re-evaluated only when one of its declared input signals changed —
change tracking is push-based (each signal change marks its dependent
processes dirty through a watcher), so a settle pass costs O(dirty
processes) instead of O(netlist).  A process registered without a
sensitivity list is *static* and runs every pass, exactly as the
original full-sweep engine did.

Two obligations come with a sensitivity list and both are enforced by
convention (and verified by the RTL equivalence tests):

* the process must be a pure function of its declared signals plus
  component state that only mutates in the sequential phase, and
* a sequential process that mutates such component state must call
  ``touch()`` on the handle returned by :meth:`add_combinational`, so
  the next evaluate phase re-runs the process even though no signal
  changed.

These conventions are also checked *statically*: ``repro.lint``
(``make lint``) elaborates every registered scenario under a
read-tracking lint mode and reports contract violations as findings —
see the "Static analysis" section of the README for the full contract
table with the rule ID that enforces each obligation.

Sequential quiescence and cycle skip-ahead
------------------------------------------
Sequential processes have the mirror-image discipline:
:meth:`add_sequential` returns a :class:`SeqHandle`, and a component
whose ``update()`` has become a guaranteed no-op may declare itself
idle — ``handle.idle()`` (until an input edge re-arms it) or
``handle.idle(until=cycle)`` (a scheduled self-wake, e.g. a master's
think-time expiry or the DDRC's refresh deadline).  Idle handles are
skipped by :meth:`CycleEngine.step`; they re-arm when their wake cycle
arrives, when another component calls :meth:`SeqHandle.wake`, or when
one of the signals named in ``add_sequential(..., wake_on=[...])``
changes value.  The obligation mirrors the combinational ``touch``
contract: while idle, the reference engine running the process every
cycle would neither change component state (beyond what the component
re-accounts on wake) nor drive any signal to a new value.

Update dispatch is event-driven: scheduled self-wakes live on a
bucketed :class:`~repro.kernel.events.EventQueue` (invalidated lazily —
an entry is live only while its handle is still idle with that exact
wake cycle), and active cycles iterate a registration-order *run list*
of awake handles instead of sweeping every registered process.  An
active cycle therefore costs O(components with pending transitions),
and the skip-ahead wake target is a queue peek instead of an
O(components) scan.  Mid-update wakes preserve the reference sweep's
visit semantics exactly: a handle woken by an earlier-registered
process runs in the same cycle (spliced into the run list at its
registration-order position), one woken by a later-registered process
runs the next cycle.

When *every* sequential handle is idle and no combinational work is
pending, :meth:`CycleEngine.run`/:meth:`run_until` **skip ahead**: the
cycle counter advances analytically to the earliest scheduled wake
instead of spinning through no-op cycles.  Cycle hooks still fire for
every skipped cycle (so VCD sampling and protocol checkers observe an
identical cycle sequence — no signal changes during a skipped region,
so change-based tracers emit nothing); hooks must therefore not mutate
simulation state.

Commit semantics are untouched: the engine observes the same settled
values, commits registered drives simultaneously, and produces
cycle-identical traces to the full sweep (pass ``sensitivity=False`` to
get the original sweep-everything behaviour — it disables quiescence
and skip-ahead too, restoring the reference per-cycle sweep).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CombinationalLoopError, SimulationError
from repro.kernel.events import EventQueue
from repro.kernel.signal import Signal

CombProcess = Callable[[], None]
SeqProcess = Callable[[], None]

#: Safety bound on evaluate-phase iterations per cycle.  Real netlists
#: settle in a handful of passes; hitting the bound means a loop.
MAX_SETTLE_ITERATIONS = 64

#: Lint-elaboration observer (see :mod:`repro.lint.trace`).  ``None``
#: outside a lint elaboration: registration pays one ``is not None``
#: test and the per-cycle hot loops pay nothing at all.  When set, the
#: observer is told about every process registration (it records the
#: declared sensitivity/wake contract and wraps ``handle.fn`` so signal
#: reads can be attributed to the running process).
_lint_observer = None


class CombHandle:
    """Registration handle for one combinational process.

    ``static`` processes (no sensitivity list) run every evaluate pass;
    sensitivity-listed processes run only while ``dirty``.  Sequential
    code that mutates state the process reads must call :meth:`touch`.
    """

    __slots__ = ("fn", "dirty", "static", "engine")

    def __init__(
        self,
        fn: CombProcess,
        static: bool,
        engine: Optional["CycleEngine"] = None,
    ) -> None:
        self.fn = fn
        self.static = static
        self.dirty = True
        self.engine = engine

    def touch(self) -> None:
        """Force re-evaluation in the next settle pass."""
        self.dirty = True
        engine = self.engine
        if engine is not None:
            engine._comb_pending = True


class SeqHandle:
    """Registration handle for one sequential process.

    Components use it to declare quiescence: :meth:`idle` marks the
    process skippable (optionally until a scheduled wake cycle) and
    :meth:`wake` re-arms it.  See the module docstring for the no-op
    obligation an idle declaration carries.

    Scheduled wakes are events: ``idle(until=...)`` pushes a
    ``(cycle, handle)`` entry onto the engine's wake queue.  Entries are
    invalidated lazily — one is live only while its handle is still
    idle with ``wake_at`` at (or before) the popped timestamp — so
    re-arming or re-scheduling never has to search the queue.
    """

    __slots__ = ("fn", "active", "wake_at", "order", "_listed", "_engine")

    def __init__(self, fn: SeqProcess, engine: "CycleEngine", order: int = 0) -> None:
        self.fn = fn
        self._engine = engine
        self.active = True
        #: Registration index — the reference sweep's visit position,
        #: used to keep the event-driven run list order-identical.
        self.order = order
        #: Whether the handle currently has an entry in the engine's run
        #: list (entries persist as skippable stales after idling).
        self._listed = False
        #: Cycle at which the engine re-arms the handle by itself, or
        #: ``None`` for event-only wake (an input edge / explicit wake).
        self.wake_at: Optional[int] = None

    def idle(self, until: Optional[int] = None) -> None:
        """Declare the process a no-op until *until* (or an input edge)."""
        engine = self._engine
        if self.active:
            self.active = False
            engine._active_seq -= 1
        elif self.wake_at == until:
            return  # unchanged schedule: the queued entry is still live
        self.wake_at = until
        if until is not None and engine._quiescence:
            engine._wake_queue.push(until, self)

    def wake(self) -> None:
        """Re-arm the process (no-op when it is already active)."""
        if not self.active:
            self.active = True
            self.wake_at = None
            engine = self._engine
            engine._active_seq += 1
            if not self._listed:
                if engine._in_update and self.order > engine._cur_order:
                    # Woken mid-update by an earlier-registered process:
                    # the reference sweep would still visit it this
                    # cycle, so splice it into the remaining run list.
                    engine._insert_run(self)
                else:
                    engine._run_dirty = True


class _NullSeqHandle:
    """Stand-in handle for components not driven by a cycle engine.

    Unit tests construct RTL components and call ``update()`` directly;
    their quiescence self-assessment then lands here and does nothing.
    """

    __slots__ = ()

    def idle(self, until: Optional[int] = None) -> None:  # noqa: ARG002
        pass

    def wake(self) -> None:
        pass


#: Shared no-op handle (stateless, so one instance serves everyone).
NULL_SEQ_HANDLE = _NullSeqHandle()


class CycleEngine:
    """Two-step (evaluate/update) cycle-based simulator.

    Components register combinational processes (optionally with a
    sensitivity list), sequential processes and the signals they drive.
    :meth:`step` advances exactly one clock cycle; :meth:`run` advances
    many.

    Parameters
    ----------
    sensitivity:
        When true (default), sensitivity-listed combinational processes
        are skipped while their inputs are unchanged.  When false the
        engine sweeps every process every pass — the original reference
        behaviour, kept for equivalence testing.  It also governs
        quiescence: idle-declared sequential processes are skipped and
        :meth:`run`/:meth:`run_until` may skip ahead over fully idle
        cycle ranges only when it is true, so ``full_sweep`` platforms
        get the reference per-cycle sweep on both phases.
    """

    def __init__(
        self,
        name: str = "cycle-engine",
        sensitivity: bool = True,
    ) -> None:
        self.name = name
        self._comb: List[CombHandle] = []
        self._seq: List[SeqHandle] = []
        self._signals: List[Signal] = []
        self.cycle = 0
        self._eval_passes = 0
        self._on_cycle_end: List[Callable[[int], None]] = []
        self._sensitivity = sensitivity
        self._quiescence = sensitivity
        #: Number of currently active (non-idle) sequential handles.
        self._active_seq = 0
        self._seq_total = 0
        #: Scheduled self-wakes as (cycle, handle) events; entries are
        #: lazily invalidated (see :class:`SeqHandle`).
        self._wake_queue = EventQueue()
        #: Awake handles in registration order; stale (re-idled) entries
        #: are skipped at visit time and dropped at the next rebuild.
        self._run_list: List[SeqHandle] = []
        #: An active handle exists that is not on the run list yet.
        self._run_dirty = True
        #: True while the update phase iterates the run list; gates the
        #: mid-update wake splice in :meth:`SeqHandle.wake`.
        self._in_update = False
        #: Registration order of the handle currently being updated.
        self._cur_order = -1
        #: Run-list index of the handle currently being updated.
        self._run_pos = 0
        #: A static combinational process forbids skip-ahead: it runs
        #: every pass, so an "idle" cycle could still change signals.
        self._has_static_comb = False
        #: Cached ``_has_static_comb or not sensitivity`` — the per-step
        #: "must settle even when nothing is pending" test.
        self._settle_live = not sensitivity
        self.cycles_skipped = 0
        #: signal -> dependent combinational handles (shared with the
        #: watcher closures, so late registrations extend them in place).
        #: Keyed by the Signal object (identity hash), which also keeps
        #: sensitivity-list signals alive for the engine's lifetime.
        self._deps: Dict[Signal, List[CombHandle]] = {}
        #: signals that already carry an engine watcher, mapped to
        #: whether that watcher also reports settle-convergence changes.
        self._watched: Dict[Signal, bool] = {}
        #: Signals driven via drive_next since the last commit phase.
        self._pending_commits: List[Signal] = []
        #: True when any *registered* signal changed in the current pass.
        self._pass_changed = False
        #: True while any combinational handle may be dirty — raised by
        #: every dirty-marking path (watchers, touch, registration) and
        #: lowered per settle pass, so a fully clean settle is one flag
        #: test instead of an O(netlist) sweep.
        self._comb_pending = True

    # -- registration ---------------------------------------------------------

    def _dep_list(self, sig: Signal) -> List[CombHandle]:
        deps = self._deps.get(sig)
        if deps is None:
            deps = []
            self._deps[sig] = deps
        return deps

    def _attach_watcher(self, sig: Signal, registered: bool) -> None:
        """Attach the engine's change watcher to *sig* (at most once each kind)."""
        already = self._watched.get(sig)
        if already is None:
            deps = self._dep_list(sig)
            if registered:

                def on_change(_sig: Signal, deps: List[CombHandle] = deps) -> None:
                    self._pass_changed = True
                    # A dep-free registered signal (data buses, counters)
                    # dirties nothing, so its commit need not schedule a
                    # settle.  The list is shared with _dep_list, so a
                    # later sensitivity registration is seen here.
                    if deps:
                        self._comb_pending = True
                        for handle in deps:
                            handle.dirty = True

            else:

                def on_change(_sig: Signal, deps: List[CombHandle] = deps) -> None:
                    if deps:
                        self._comb_pending = True
                        for handle in deps:
                            handle.dirty = True

            sig.watch(on_change)
            self._watched[sig] = registered
        elif registered and not already:
            # Was watched for dependency marking only (sensitivity list
            # registered before add_signal); add convergence reporting.
            def on_registered(_sig: Signal) -> None:
                self._pass_changed = True

            sig.watch(on_registered)
            self._watched[sig] = True

    def add_combinational(
        self,
        process: CombProcess,
        sensitive_to: Optional[
            Sequence[Union[Signal, Tuple[Signal, Callable[[], bool]]]]
        ] = None,
    ) -> CombHandle:
        """Register a combinational process; returns its :class:`CombHandle`.

        Without *sensitive_to* the process is static (runs every
        evaluate pass).  With a sensitivity list it runs only when one
        of the listed signals changed since its last evaluation — see
        the module docstring for the purity/touch obligations.

        As with :meth:`add_sequential`, an entry may be a ``(signal,
        predicate)`` pair: the change marks the process dirty only while
        ``predicate()`` is true.  The predicate must be conservative
        over the *output* function — whenever the changed signal can
        influence any value the process drives, it returns true.
        Predicates read sequential-phase component state, which is
        stable for the whole settle, so the filter decision cannot
        change mid-evaluate.
        """
        handle = CombHandle(process, static=sensitive_to is None, engine=self)
        self._comb.append(handle)
        self._comb_pending = True
        if sensitive_to is not None:
            for entry in sensitive_to:
                if type(entry) is tuple:
                    sig, predicate = entry

                    def on_change(
                        _sig: Signal,
                        handle: CombHandle = handle,
                        predicate: Callable[[], bool] = predicate,
                    ) -> None:
                        if predicate():
                            handle.dirty = True
                            self._comb_pending = True

                    sig.watch(on_change)
                else:
                    self._dep_list(entry).append(handle)
                    self._attach_watcher(entry, registered=False)
        else:
            self._has_static_comb = True
            self._settle_live = True
        if _lint_observer is not None:
            _lint_observer.combinational(self, handle, process, sensitive_to)
        return handle

    def add_sequential(
        self,
        process: SeqProcess,
        wake_on: Optional[
            Sequence[Union[Signal, Tuple[Signal, Callable[[], bool]]]]
        ] = None,
    ) -> SeqHandle:
        """Register a sequential process; returns its :class:`SeqHandle`.

        The process runs once per cycle at the edge unless its handle
        declares quiescence.  *wake_on* names input signals whose value
        changes re-arm an idle handle — a change during the evaluate
        phase re-arms it for the same cycle's update, a change during
        the commit phase for the next cycle's (exactly when the changed
        value becomes observable to the process).

        An entry may also be a ``(signal, predicate)`` pair: the change
        re-arms the handle only while ``predicate()`` is true.  The
        predicate must be *conservative* — whenever the idle process
        would act on the changed value, it returns true (a spurious true
        only costs one no-op update; a false negative loses a cycle the
        reference sweep would have seen).  Components use this to mask
        edges their current FSM state provably ignores.
        """
        handle = SeqHandle(process, self, order=self._seq_total)
        self._seq.append(handle)
        self._active_seq += 1
        self._seq_total += 1
        self._run_dirty = True
        if wake_on is not None:
            for entry in wake_on:
                if type(entry) is tuple:
                    sig, predicate = entry

                    def on_change(
                        _sig: Signal,
                        handle: SeqHandle = handle,
                        predicate: Callable[[], bool] = predicate,
                    ) -> None:
                        if predicate():
                            handle.wake()

                else:
                    sig = entry

                    def on_change(  # type: ignore[misc]
                        _sig: Signal, handle: SeqHandle = handle
                    ) -> None:
                        handle.wake()

                sig.watch(on_change)
        if _lint_observer is not None:
            _lint_observer.sequential(self, handle, process, wake_on)
        return handle

    def add_signal(self, *signals: Signal) -> None:
        """Register signals so their registered drives commit at the edge."""
        for sig in signals:
            self._signals.append(sig)
            self._attach_watcher(sig, registered=True)
            sig.attach_commit_hook(self._pending_commits.append)

    def add_cycle_hook(self, hook: Callable[[int], None]) -> None:
        """Call ``hook(cycle)`` at the end of every cycle (tracing, monitors)."""
        self._on_cycle_end.append(hook)

    # -- state ------------------------------------------------------------------

    @property
    def evaluate_passes(self) -> int:
        """Total evaluate-phase passes executed (a cost/diagnostic metric)."""
        return self._eval_passes

    # -- execution ---------------------------------------------------------------

    def _settle(self) -> None:
        """Run combinational processes until no registered signal changes."""
        comb = self._comb
        if self._sensitivity:
            if not self._comb_pending and not self._has_static_comb:
                # Nothing was marked dirty since the last convergence:
                # the pass would visit every handle and run none.
                return
            for _iteration in range(MAX_SETTLE_ITERATIONS):
                self._eval_passes += 1
                self._pass_changed = False
                # Cleared before the pass; any dirty-marking during it
                # (watcher or touch) re-raises the flag, so a handle
                # left dirty at convergence keeps the next settle live.
                self._comb_pending = False
                for handle in comb:
                    if handle.dirty or handle.static:
                        handle.dirty = False
                        handle.fn()
                if not self._pass_changed:
                    return
        else:
            # Reference full sweep: every process, every pass, with
            # convergence read from the per-signal changed flags.
            for sig in self._signals:
                sig.consume_changed()
            for _iteration in range(MAX_SETTLE_ITERATIONS):
                self._eval_passes += 1
                for handle in comb:
                    handle.fn()
                changed = False
                for sig in self._signals:
                    if sig.consume_changed():
                        changed = True
                if not changed:
                    return
        raise CombinationalLoopError(
            f"{self.name}: combinational logic failed to settle in "
            f"{MAX_SETTLE_ITERATIONS} iterations at cycle {self.cycle}"
        )

    def _commit_pending(self) -> None:
        """Commit every signal driven since the last edge (order-stable)."""
        pending = self._pending_commits
        if pending:
            for sig in pending:
                sig._commit_queued = False
                sig.commit()
            pending.clear()

    def _rebuild_run_list(self) -> None:
        """Recollect the awake handles in registration order."""
        run_list = []
        for handle in self._seq:
            if handle.active:
                handle._listed = True
                run_list.append(handle)
            else:
                handle._listed = False
        self._run_list = run_list
        self._run_dirty = False

    def _insert_run(self, handle: SeqHandle) -> None:
        """Splice a mid-update wake into the rest of this cycle's pass.

        The run list is sorted by registration order (stale entries keep
        their slots), so a bisect past the current position lands the
        handle exactly where the reference sweep would visit it.
        """
        run_list = self._run_list
        order = handle.order
        lo = self._run_pos + 1
        hi = len(run_list)
        while lo < hi:
            mid = (lo + hi) // 2
            if run_list[mid].order < order:
                lo = mid + 1
            else:
                hi = mid
        run_list.insert(lo, handle)
        handle._listed = True

    def step(self) -> None:
        """Advance one clock cycle (evaluate, then update)."""
        # The _settle/_commit calls are guarded here so a clean phase
        # costs one flag test instead of a function call — this loop is
        # the whole RTL model's per-cycle overhead.
        settle_live = self._settle_live
        # Step 1: evaluate — settle all combinational logic.
        if settle_live or self._comb_pending:
            self._settle()
        # Step 2: update — sequential processes sample settled inputs...
        if self._quiescence:
            cyc = self.cycle
            # Fire due scheduled wakes (think-time expiry, refresh
            # deadline).  Stale entries — handle re-armed or re-scheduled
            # since the push — are discarded here, lazily.
            wake_queue = self._wake_queue
            if wake_queue._size:
                when = wake_queue.peek_time()
                while when is not None and when <= cyc:
                    handle = wake_queue.pop()[1]
                    if (
                        not handle.active
                        and handle.wake_at is not None
                        and handle.wake_at <= cyc
                    ):
                        handle.active = True
                        handle.wake_at = None
                        self._active_seq += 1
                        if not handle._listed:
                            self._run_dirty = True
                    when = wake_queue.peek_time()
            if self._active_seq:
                if self._run_dirty:
                    self._rebuild_run_list()
                run_list = self._run_list
                self._in_update = True
                pos = 0
                n = len(run_list)
                while pos < n:
                    handle = run_list[pos]
                    if handle.active:
                        self._run_pos = pos
                        self._cur_order = handle.order
                        handle.fn()
                        # Only fn() can splice new entries into the list.
                        n = len(run_list)
                    pos += 1
                self._in_update = False
        else:
            for handle in self._seq:
                handle.fn()
        # ...then registered outputs become visible, simultaneously.
        if self._pending_commits:
            self._commit_pending()
        # New register values must propagate through combinational logic
        # before monitors sample end-of-cycle state.
        if settle_live or self._comb_pending:
            self._settle()
        self.cycle += 1
        hooks = self._on_cycle_end
        if hooks:
            for hook in hooks:
                hook(self.cycle)

    # -- skip-ahead --------------------------------------------------------------

    def _can_skip(self) -> bool:
        """All sequential handles idle and no combinational work pending.

        ``_comb_pending`` is raised by every dirty-marking path, so a
        lowered flag proves the next settle would run nothing.
        """
        return not (
            self._has_static_comb
            or self._pending_commits
            or self._comb_pending
        )

    def _wake_target(self, limit: int) -> int:
        """Earliest scheduled wake among idle handles, clamped to *limit*.

        A queue peek instead of an O(components) scan: stale entries at
        the head (handle re-armed or re-scheduled since the push) are
        popped and dropped; the first live entry is left in place for
        :meth:`step`'s due-wake processing and its time returned.  Every
        idle handle with a ``wake_at`` is guaranteed a live entry at
        exactly that cycle (see :meth:`SeqHandle.idle`), so the clamp
        semantics match the old scan bit for bit.
        """
        wake_queue = self._wake_queue
        while True:
            head = wake_queue.front()
            if head is None or head[0] >= limit:
                return limit
            handle = head[1]
            if not handle.active and handle.wake_at == head[0]:
                return head[0]
            wake_queue.pop()

    def _advance_idle(self, target: int) -> None:
        """Jump the cycle counter to *target* without stepping.

        Cycle hooks still observe every skipped cycle number (signal
        values are provably unchanged across the region, so change-based
        consumers like the VCD tracer emit nothing).
        """
        self.cycles_skipped += target - self.cycle
        hooks = self._on_cycle_end
        if hooks:
            while self.cycle < target:
                self.cycle += 1
                for hook in hooks:
                    hook(self.cycle)
        else:
            self.cycle = target

    def run(self, cycles: int) -> int:
        """Advance *cycles* clock cycles; returns the new cycle count.

        Fully idle cycle ranges are skipped analytically (see the module
        docstring); the returned cycle count is identical either way.
        """
        if cycles < 0:
            raise SimulationError(f"cannot run a negative cycle count {cycles}")
        end = self.cycle + cycles
        while self.cycle < end:
            if self._quiescence and self._active_seq == 0 and self._can_skip():
                target = self._wake_target(end)
                if target > self.cycle:
                    self._advance_idle(target)
                    continue
            self.step()
        return self.cycle

    def run_until(
        self, predicate: Callable[[], bool], max_cycles: int = 1_000_000
    ) -> int:
        """Step until *predicate()* is true; returns cycles consumed.

        Raises :class:`~repro.errors.SimulationError` if the predicate is
        still false after *max_cycles* steps, so a deadlocked model fails
        loudly instead of spinning forever.  Skip-ahead assumes the
        predicate is constant while the netlist is quiescent (true for
        any predicate over component/signal state).
        """
        start = self.cycle
        end = start + max_cycles
        while self.cycle < end:
            if predicate():
                return self.cycle - start
            if self._quiescence and self._active_seq == 0 and self._can_skip():
                target = self._wake_target(end)
                if target > self.cycle:
                    self._advance_idle(target)
                    continue
            self.step()
        raise SimulationError(
            f"{self.name}: predicate not satisfied within {max_cycles} cycles"
        )
