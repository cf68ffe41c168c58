"""Tests for repro.kernel.events."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.kernel.events import Event, EventQueue


class TestEvent:
    def test_notify_invokes_subscribers_in_order(self):
        event = Event("e")
        seen = []
        event.subscribe(lambda: seen.append("a"))
        event.subscribe(lambda: seen.append("b"))
        event.notify()
        assert seen == ["a", "b"]

    def test_unsubscribe_stops_delivery(self):
        event = Event()
        seen = []
        action = lambda: seen.append(1)
        event.subscribe(action)
        event.unsubscribe(action)
        event.notify()
        assert seen == []

    def test_unsubscribe_unknown_raises(self):
        event = Event()
        with pytest.raises(ValueError):
            event.unsubscribe(lambda: None)

    def test_subscriber_added_during_notify_not_called_this_round(self):
        event = Event()
        seen = []

        def first():
            seen.append("first")
            event.subscribe(lambda: seen.append("late"))

        event.subscribe(first)
        event.notify()
        assert seen == ["first"]
        event.notify()
        assert "late" in seen

    def test_each_notify_calls_each_observer_once(self):
        event = Event()
        seen = []
        event.subscribe(lambda: seen.append("a"))
        event.subscribe(lambda: seen.append("b"))
        for _ in range(3):
            event.notify()
        assert seen == ["a", "b"] * 3

    def test_observer_removed_during_notify_still_called_this_round(self):
        event = Event()
        seen = []

        def second():
            seen.append("second")

        def first():
            seen.append("first")
            if seen == ["first"]:
                event.unsubscribe(second)

        event.subscribe(first)
        event.subscribe(second)
        event.notify()
        assert seen == ["first", "second"]
        event.notify()
        assert seen == ["first", "second", "first"]

    def test_reentrant_notify_runs_a_nested_round(self):
        event = Event()
        seen = []

        def first():
            seen.append("a")
            if len(seen) == 1:
                event.notify()

        event.subscribe(first)
        event.subscribe(lambda: seen.append("b"))
        event.notify()
        assert seen == ["a", "a", "b", "b"]


class TestEventQueue:
    def test_pop_returns_time_order(self):
        queue = EventQueue()
        queue.push(5, lambda: "late")
        queue.push(1, lambda: "early")
        time, _ = queue.pop()
        assert time == 1

    def test_fifo_among_equal_times(self):
        queue = EventQueue()
        order = []
        queue.push(3, lambda: order.append("first"))
        queue.push(3, lambda: order.append("second"))
        while queue:
            _, action = queue.pop()
            action()
        assert order == ["first", "second"]

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SchedulingError):
            queue.push(-1, lambda: None)

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(7, lambda: None)
        assert queue.peek_time() == 7

    def test_clear(self):
        queue = EventQueue()
        queue.push(1, lambda: None)
        queue.clear()
        assert not queue

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60))
    def test_pop_order_is_sorted_and_stable(self, times):
        queue = EventQueue()
        for index, time in enumerate(times):
            queue.push(time, lambda i=index: i)
        popped = []
        while queue:
            time, action = queue.pop()
            popped.append((time, action()))
        assert [t for t, _ in popped] == sorted(times)
        # Stability: among equal times, insertion index increases.
        for (t1, i1), (t2, i2) in zip(popped, popped[1:]):
            if t1 == t2:
                assert i1 < i2
