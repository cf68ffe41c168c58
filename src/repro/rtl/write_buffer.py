"""RTL face of the write buffer: the drain engine.

The buffer storage and absorb/hazard logic are the shared
:class:`~repro.core.write_buffer.WriteBuffer`; this component gives the
buffer its bus personality — "the write buffer behaves as another
master when it is occupied" (paper §3.3).  It is the master FSM of
:class:`~repro.rtl.master.MasterRtl` fed by the buffer instead of a
traffic agent, and differs only where transfers come from and go to:

* its next transfer is the FIFO head;
* an accepted address phase pops the head (so arbitration during the
  drain sees the *next* entry, matching the TLM);
* a finished drain is stamped and logged in :attr:`drained_txns`;
* an idle engine sleeps while the FIFO is empty.
"""

from __future__ import annotations

import types
from typing import Callable, List, Optional

from repro.ahb.transaction import Transaction
from repro.core.write_buffer import WriteBuffer
from repro.kernel.cycle import CycleEngine
from repro.rtl.master import MasterRtl, MasterState
from repro.rtl.signals import MasterSignals, SharedBusSignals


def _own_code(method: Callable) -> Callable:
    """*method* over a private copy of its code object.

    CPython specialises each attribute load in a code object for one
    type at a time.  Shared between the masters and the drain engine
    (two types, called in turn every cycle), the FSM's per-cycle methods
    keep missing those caches, which costs a few per cent of RTL run
    time.  The copy runs the same bytecode with caches of its own.
    """
    return types.FunctionType(method.__code__.replace(), method.__globals__)


class BufferMasterRtl(MasterRtl):
    """Signal-level drain engine of the AHB+ write buffer."""

    def __init__(
        self,
        write_buffer: WriteBuffer,
        signals: MasterSignals,
        bus: SharedBusSignals,
        engine: CycleEngine,
    ) -> None:
        # No traffic agent: every hook that would use one is overridden.
        super().__init__(None, signals, bus, engine)  # type: ignore[arg-type]
        self.write_buffer = write_buffer
        #: Completed drain transfers (master = WRITE_BUFFER_MASTER) with
        #: their bus cycles — the platform's observer replay serves these
        #: the way live TLM observers see buffer drains.
        self.drained_txns: List[Transaction] = []

    # The inherited FSM's per-cycle methods, bound here by name (the
    # benchmark tracer patches update/evaluate through each class's own
    # namespace) over code of their own (see _own_code).
    evaluate = _own_code(MasterRtl.evaluate)
    update = _own_code(MasterRtl.update)
    _update_data = _own_code(MasterRtl._update_data)
    _assess_quiescence = _own_code(MasterRtl._assess_quiescence)
    _drives_address_now = _own_code(MasterRtl._drives_address_now)
    _requesting = _own_code(MasterRtl._requesting)

    @property
    def done(self) -> bool:
        return self.state is MasterState.IDLE and self.write_buffer.is_empty

    def _next_transfer(self, now: int) -> Optional[Transaction]:
        return self.write_buffer.head()

    def _accepted(self, txn: Transaction) -> None:
        self.write_buffer.pop_head(txn)

    def _finished(self, txn: Transaction, now: int) -> None:
        txn.finished_at = now
        if txn.origin is not None:
            txn.origin.drained_at = now
        self.drained_txns.append(txn)

    def _idle_sleep(self, now: int) -> None:
        # Only the arbiter's absorption fills the FIFO, and it wakes us.
        if self.write_buffer.is_empty:
            self.seq.idle()
