"""Cycle-level DDR command scheduler.

Drives the per-bank FSMs one command per cycle, honouring the paper's
§3.3 priority order: column accesses (READ/WRITE) first — they produce
data — then row opens (ACTIVATE), then PRECHARGE, with REFRESH forced
when overdue.  The RTL DDRC instantiates one scheduler; the TLM does not
need one because :mod:`repro.ddr.timeline` folds scheduling into
closed-form arithmetic.

Bank interleaving appears here naturally: the request queue holds the
in-service access *and* the pipelined next access (forwarded by the
AHB+ arbiter over the BI), so the scheduler can open the next bank's row
while the current burst streams data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.ddr.bank import BankFsm, BankState
from repro.ddr.commands import BankAddress, DdrCommand
from repro.ddr.timing import DdrTiming
from repro.errors import SimulationError


@dataclass(eq=False)
class PendingAccess:
    """One burst access queued at the controller.

    ``eq=False`` keeps identity semantics: queue membership tests must
    distinguish two accesses that happen to share field values.
    """

    baddr: BankAddress
    is_write: bool
    beats: int
    uid: int
    #: Set once the CAS for this access has been issued.
    cas_issued: bool = False


@dataclass
class ScheduledCommand:
    """The command the scheduler picked for this cycle."""

    command: DdrCommand
    bank: Optional[int] = None
    access: Optional[PendingAccess] = None


#: Shared NOP decision — callers treat decisions as read-only and NOP is
#: by far the most common outcome, so one instance serves every cycle.
_NOP = ScheduledCommand(DdrCommand.NOP)


class CommandScheduler:
    """One-command-per-cycle scheduler over the bank FSMs."""

    def __init__(self, timing: DdrTiming, banks: List[BankFsm]) -> None:
        if len(banks) != timing.num_banks:
            raise SimulationError("scheduler bank count mismatch")
        self.timing = timing
        self.banks = banks
        self.queue: List[PendingAccess] = []
        self._rrd_timer = 0  # cycles until another ACTIVATE is legal
        #: tRRD memoized out of the per-cycle decide/issue path.
        self._t_rrd = timing.t_rrd
        self.commands_issued = {cmd: 0 for cmd in DdrCommand}

    # -- queue management -----------------------------------------------------

    def enqueue(self, access: PendingAccess) -> None:
        """Append an access (head = in service, tail = pipelined next)."""
        self.queue.append(access)

    def retire_head(self) -> PendingAccess:
        """Drop the head access once its data burst finished."""
        if not self.queue:
            raise SimulationError("retire from an empty controller queue")
        return self.queue.pop(0)

    @property
    def depth(self) -> int:
        return len(self.queue)

    def quiescent(self) -> bool:
        """:meth:`tick` is a guaranteed no-op (no timer anywhere runs).

        Part of the DDRC's idle declaration to the cycle engine: with an
        empty queue, quiescent banks and no tRRD window open, skipping
        whole cycles cannot lose a state transition.
        """
        if self._rrd_timer:
            return False
        for bank in self.banks:
            if not bank.quiescent:
                return False
        return True

    # -- per-cycle decision ------------------------------------------------------

    def decide(
        self,
        refresh_forced: bool,
        data_path_free: bool,
        busy_bank: Optional[int] = None,
    ) -> ScheduledCommand:
        """Choose the command for this cycle.

        ``data_path_free`` gates CAS issue (one burst on the data pins at
        a time); row/precharge commands for *other* banks may still issue
        while a burst streams — that is the bank-interleaving overlap.
        ``busy_bank`` is the bank currently streaming data: it must not
        be precharged out from under its own burst.
        """
        if refresh_forced:
            # While a refresh is owed, no new row/column work may start;
            # the controller drains every bank toward IDLE and refreshes.
            cmd = self._refresh_step()
            return cmd if cmd is not None else _NOP
        if not self.queue:
            return _NOP
        # Priority 0: column access for the head of the queue.
        if data_path_free:
            head = self.queue[0]
            bank = self.banks[head.baddr.bank]
            if not head.cas_issued and bank.can_cas(head.baddr.row):
                return self._issue_cas(head)
        # Priority 1: row open for any queued access that needs one.
        if self._rrd_timer == 0:
            for access in self.queue:
                bank = self.banks[access.baddr.bank]
                if bank.can_activate() and not access.cas_issued:
                    return self._issue(DdrCommand.ACTIVATE, access.baddr.bank, access)
        # Priority 2: precharge banks whose open row conflicts with a queued access.
        for access in self.queue:
            bank = self.banks[access.baddr.bank]
            if (
                not access.cas_issued
                and access.baddr.bank != busy_bank
                and bank.state is BankState.ACTIVE
                and bank.open_row != access.baddr.row
                and bank.can_precharge()
            ):
                return self._issue(DdrCommand.PRECHARGE, access.baddr.bank, access)
        return _NOP

    def _issue(
        self, command: DdrCommand, bank_index: int, access: Optional[PendingAccess]
    ) -> ScheduledCommand:
        bank = self.banks[bank_index]
        if command is DdrCommand.ACTIVATE:
            assert access is not None
            bank.activate(access.baddr.row)
            self._rrd_timer = self._t_rrd
        elif command is DdrCommand.PRECHARGE:
            bank.precharge()
        self.commands_issued[command] += 1
        return ScheduledCommand(command, bank_index, access)

    def _issue_cas(self, access: PendingAccess) -> ScheduledCommand:
        bank = self.banks[access.baddr.bank]
        bank.note_cas(access.is_write)
        access.cas_issued = True
        command = DdrCommand.WRITE if access.is_write else DdrCommand.READ
        self.commands_issued[command] += 1
        return ScheduledCommand(command, access.baddr.bank, access)

    def _refresh_step(self) -> Optional[ScheduledCommand]:
        """Drive all banks toward REFRESH; returns the command to issue."""
        # Precharge any open bank first (respecting tRAS/tWR).
        all_idle = True
        for bank in self.banks:
            if bank.state is BankState.ACTIVE:
                all_idle = False
                if bank.can_precharge():
                    return self._issue(DdrCommand.PRECHARGE, bank.index, None)
            elif bank.state is not BankState.IDLE:
                all_idle = False
        if all_idle:
            for bank in self.banks:
                bank.refresh()
            self.commands_issued[DdrCommand.REFRESH] += 1
            return ScheduledCommand(DdrCommand.REFRESH)
        return None  # still draining toward idle; caller may pick other work

    # -- time -------------------------------------------------------------------------

    def tick(self) -> None:
        """Advance shared timers and every bank FSM by one cycle."""
        if self._rrd_timer > 0:
            self._rrd_timer -= 1
        for bank in self.banks:
            bank.tick()

    def skip(self, cycles: int) -> None:
        """Apply *cycles* deferred :meth:`tick` calls in one step.

        The settled timer values are identical to ticking cycle by
        cycle (every counter saturates at zero).  The RTL DDRC uses this
        to settle the tick debt it accrues over lean streaming cycles —
        spans where :meth:`decide` is provably a NOP and no bank has a
        transitional state in flight, so nothing could have observed the
        intermediate counter values.
        """
        if self._rrd_timer > 0:
            self._rrd_timer = max(0, self._rrd_timer - cycles)
        for bank in self.banks:
            bank.skip(cycles)
