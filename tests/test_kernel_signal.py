"""Tests for repro.kernel.signal."""

import pytest

from repro.errors import SimulationError
from repro.kernel.signal import Signal, SignalBundle


class TestSignal:
    def test_reset_value(self):
        assert Signal("s", width=8, reset=0x5A).value == 0x5A

    def test_drive_is_immediate(self):
        sig = Signal("s", width=8)
        changed = sig.drive(7)
        assert changed and sig.value == 7

    def test_drive_same_value_reports_unchanged(self):
        sig = Signal("s", width=8, reset=3)
        assert sig.drive(3) is False

    def test_drive_next_not_visible_until_commit(self):
        sig = Signal("s", width=8)
        sig.drive_next(9)
        assert sig.value == 0
        assert sig.commit() is True
        assert sig.value == 9

    def test_commit_without_pending_is_noop(self):
        sig = Signal("s", reset=1)
        assert sig.commit() is False
        assert sig.value == 1

    def test_width_masking(self):
        sig = Signal("s", width=4)
        sig.drive(0x1F)
        assert sig.value == 0xF

    def test_bool_coercion(self):
        sig = Signal("s")
        sig.drive(True)
        assert sig.value == 1

    def test_non_integer_rejected(self):
        with pytest.raises(SimulationError):
            Signal("s").drive("high")

    def test_invalid_width(self):
        with pytest.raises(SimulationError):
            Signal("s", width=0)

    def test_consume_changed(self):
        sig = Signal("s")
        sig.drive(1)
        assert sig.consume_changed() is True
        assert sig.consume_changed() is False

    def test_watchers_called_on_change(self):
        sig = Signal("s", width=8)
        seen = []
        sig.watch(lambda s: seen.append(s.value))
        sig.drive(1)
        sig.drive(1)  # no change, no callback
        sig.drive_next(2)
        sig.commit()
        assert seen == [1, 2]


class TestSignalBundle:
    def test_make_and_iterate(self):
        bundle = SignalBundle("m0")
        a = bundle.make("a", width=2)
        b = bundle.make("b")
        assert {sig.name for sig in bundle.signals()} == {"m0.a", "m0.b"}
        assert a.width == 2 and b.width == 1
