"""Event primitives for the discrete-event kernel.

Two small classes live here:

* :class:`Event` — a named notification object that callbacks and
  thread-style processes can wait on.  Mirrors the role of
  ``sc_event`` in SystemC, which the paper's TLM environment is built
  on.
* :class:`EventQueue` — a monotonic priority queue of scheduled actions
  used by :class:`repro.kernel.simulator.Simulator`.

The queue is *bucketed*: a binary heap orders the distinct timestamps,
and each timestamp owns a FIFO deque of actions.  Scheduling N actions
for the same cycle therefore costs one ``heappush`` plus N O(1) deque
appends instead of N heap operations — same-cycle storms (delta
notifications, cycle ticks driven through the event kernel) are the
common case in bus simulation, and this is the kernel's hot path.
FIFO order inside a bucket preserves the old ``(time, seq, action)``
tie-break exactly: two actions scheduled for the same cycle always run
in the order they were scheduled, keeping runs reproducible.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SchedulingError

Action = Callable[[], Any]


class Event:
    """A notification object that observers can subscribe to.

    Observers are plain callables registered with :meth:`subscribe`.
    Calling :meth:`notify` invokes every observer once, in subscription
    order.  Observers registered *during* a notification are not invoked
    until the next notification, matching SystemC delta semantics.

    Delivery is allocation-free on the common path: the observer list is
    only snapshotted when an observer actually subscribes or
    unsubscribes *mid-fire* (the snapshot is taken just before the first
    mutation, so the delivery round still sees exactly the set of
    observers that existed when :meth:`notify` began).
    """

    __slots__ = ("name", "_observers", "_notify_depth", "_round")

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self._observers: List[Action] = []
        #: Non-zero while a notify() delivery round is in progress.
        self._notify_depth = 0
        #: Snapshot of the observer list taken lazily on mid-fire mutation.
        self._round: Optional[List[Action]] = None

    def _snapshot_round(self) -> None:
        """Preserve the in-flight delivery round before a mutation."""
        if self._notify_depth and self._round is None:
            self._round = list(self._observers)

    def subscribe(self, action: Action) -> None:
        """Register *action* to be invoked on every future notification."""
        self._snapshot_round()
        self._observers.append(action)

    def unsubscribe(self, action: Action) -> None:
        """Remove a previously registered observer.

        Raises ``ValueError`` if the action was never subscribed, because
        silently ignoring the mistake would hide wiring bugs in models.
        """
        self._snapshot_round()
        self._observers.remove(action)

    def notify(self) -> None:
        """Fire the event, invoking all currently subscribed observers."""
        observers = self._observers
        if not observers:
            return
        if self._notify_depth:
            # Re-entrant notify (an observer fired us again): fall back
            # to an explicit snapshot for the nested round.
            for action in list(observers):
                action()
            return
        self._notify_depth = 1
        self._round = None
        try:
            # `end` is the observer count when delivery began; a lazy
            # snapshot (taken before any mutation) has the same length.
            end = len(observers)
            index = 0
            while index < end:
                frozen = self._round
                if frozen is None:
                    observers[index]()
                else:
                    frozen[index]()
                index += 1
        finally:
            self._notify_depth = 0
            self._round = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.name!r}, observers={len(self._observers)})"


class EventQueue:
    """Time-ordered queue of scheduled actions (bucketed by timestamp).

    ``_times`` is a heap of the *distinct* pending timestamps; each maps
    to a FIFO deque of actions in ``_buckets``.  Popping drains the
    earliest bucket front-to-back, which reproduces the old global
    insertion-order tie-break without a per-entry sequence counter.

    Invariant: pop order is non-decreasing in time.  The heap guarantees
    it structurally, so consumers (the simulator's run loop) do not need
    a per-event monotonicity check.
    """

    __slots__ = ("_times", "_buckets", "_size")

    def __init__(self) -> None:
        self._times: List[int] = []
        self._buckets: Dict[int, Deque[Action]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def push(self, time: int, action: Action) -> None:
        """Schedule *action* to run at absolute *time*."""
        bucket = self._buckets.get(time)
        if bucket is None:
            if time < 0:
                raise SchedulingError(f"cannot schedule at negative time {time}")
            bucket = deque()
            self._buckets[time] = bucket
            heapq.heappush(self._times, time)
        bucket.append(action)
        self._size += 1

    def peek_time(self) -> Optional[int]:
        """Return the timestamp of the earliest entry, or ``None`` if empty."""
        if not self._size:
            return None
        return self._times[0]

    def front(self) -> Optional[Tuple[int, Action]]:
        """Return the earliest ``(time, action)`` pair without removing it.

        Lets consumers that interleave live and stale entries (the cycle
        engine's lazily-invalidated wake schedule) inspect the head and
        decide whether to :meth:`pop` it, without a remove/re-push round
        trip that would perturb FIFO order inside the bucket.
        """
        if not self._size:
            return None
        time = self._times[0]
        return time, self._buckets[time][0]

    def pop(self) -> Tuple[int, Action]:
        """Remove and return the earliest ``(time, action)`` pair."""
        if not self._size:
            raise SchedulingError("pop from an empty event queue")
        time = self._times[0]
        bucket = self._buckets[time]
        action = bucket.popleft()
        self._size -= 1
        if not bucket:
            heapq.heappop(self._times)
            del self._buckets[time]
        return time, action

    def clear(self) -> None:
        """Drop all pending entries."""
        self._times.clear()
        self._buckets.clear()
        self._size = 0
