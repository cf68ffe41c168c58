"""Analytic bank timing for the transaction-level DDRC.

Instead of ticking a state machine every cycle, the TLM computes, per
transaction, the earliest cycle each DDR command could issue and jumps
straight to the answer.  Per bank it tracks when the open row was
established (CAS-ready), when precharge becomes legal (tRAS / tWR) and
which row is open; globally it tracks the shared data bus and the tRRD
activate-to-activate window.

This is the "highly abstracted data path" of paper §3.3: the FSM
*constraints* are honoured exactly, but their evaluation is O(1) per
transaction instead of O(cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.ddr.commands import BankAddress
from repro.ddr.timing import DdrTiming


@dataclass
class BankLane:
    """Analytic state of one bank."""

    open_row: Optional[int] = None
    #: Earliest cycle a CAS to the open row may issue.
    cas_ready_at: int = 0
    #: Earliest cycle a PRECHARGE may issue (tRAS from last ACT).
    pre_ready_at: int = 0
    #: Earliest cycle the bank is IDLE again after an in-flight precharge.
    idle_at: int = 0
    #: Write-recovery horizon: PRECHARGE must wait for this after writes.
    wr_recover_at: int = 0
    activations: int = 0
    row_hits: int = 0
    row_conflicts: int = 0


@dataclass(slots=True)
class AccessPlan:
    """Timing the timeline computed for one access."""

    cas_at: int
    first_data: int
    finish: int
    row_hit: bool


class BankTimeline:
    """O(1)-per-access DDR bank timing calculator."""

    def __init__(self, timing: DdrTiming) -> None:
        self.timing = timing
        self.banks: List[BankLane] = [BankLane() for _ in range(timing.num_banks)]
        #: Cycle through which the DDR data bus is occupied.
        self.data_busy_until: int = -1
        #: Cycle of the most recent ACTIVATE anywhere (tRRD window).
        self.last_activate_at: int = -(10**9)

    # -- row management -----------------------------------------------------------

    def _open_row(self, lane: BankLane, row: int, not_before: int) -> int:
        """Schedule PRE (if needed) + ACT so *row* is open; returns CAS-ready cycle."""
        t = self.timing
        if lane.open_row is not None:
            pre_at = not_before
            if pre_at < lane.pre_ready_at:
                pre_at = lane.pre_ready_at
            if pre_at < lane.wr_recover_at:
                pre_at = lane.wr_recover_at
            act_at = pre_at + t.t_rp
            lane.row_conflicts += 1
        else:
            act_at = not_before if not_before > lane.idle_at else lane.idle_at
        rrd_at = self.last_activate_at + t.t_rrd
        if act_at < rrd_at:
            act_at = rrd_at
        self.last_activate_at = act_at
        lane.open_row = row
        lane.cas_ready_at = act_at + t.t_rcd
        lane.pre_ready_at = act_at + t.t_ras
        lane.activations += 1
        return lane.cas_ready_at

    # -- public API ------------------------------------------------------------------

    def prepare(self, baddr: BankAddress, cycle: int) -> bool:
        """Pre-open a row ahead of time (the BI bank-interleaving path).

        Called when the arbiter forwards next-transaction info; the
        row command sequence is started at *cycle* so it overlaps the
        current data transfer.  Returns ``True`` when preparation did
        something (row was not already open).
        """
        lane = self.banks[baddr.bank]
        if lane.open_row == baddr.row:
            return False
        self._open_row(lane, baddr.row, cycle)
        return True

    def schedule_access(
        self, baddr: BankAddress, is_write: bool, beats: int, cycle: int
    ) -> AccessPlan:
        """Commit one burst access; returns its data timing.

        *cycle* is the first cycle the command phase may begin (the AHB
        address phase has completed by then).
        """
        t = self.timing
        lane = self.banks[baddr.bank]
        row_hit = lane.open_row == baddr.row
        # Compares, not max(): this runs once per served segment.
        if row_hit:
            cas_at = lane.cas_ready_at
            lane.row_hits += 1
        else:
            cas_at = self._open_row(lane, baddr.row, cycle)
        if cas_at < cycle:
            cas_at = cycle
        first_data = cas_at + (t.write_latency if is_write else t.cas_latency)
        if first_data <= self.data_busy_until:
            first_data = self.data_busy_until + 1
        finish = first_data + beats - 1
        self.data_busy_until = finish
        # The burst occupies the column path; a following CAS to the same
        # row cannot start until the burst's data window has drained.
        if lane.cas_ready_at < first_data:
            lane.cas_ready_at = first_data
        if is_write:
            lane.wr_recover_at = finish + t.t_wr
        # A precharge may not pull the row out from under its own burst:
        # the earliest PRE is the cycle after the last data beat.
        if lane.pre_ready_at <= finish:
            lane.pre_ready_at = finish + 1
        return AccessPlan(
            cas_at=cas_at, first_data=first_data, finish=finish, row_hit=row_hit
        )

    def close_all(self, cycle: int) -> int:
        """Precharge-all then refresh; returns the cycle banks are usable.

        Used by the controller's refresh handling: all banks close
        (honouring tRAS/tWR) and become idle after tRFC.
        """
        t = self.timing
        pre_at = cycle
        for lane in self.banks:
            if lane.open_row is not None:
                pre_at = max(pre_at, lane.pre_ready_at, lane.wr_recover_at)
        refresh_start = pre_at + t.t_rp
        ready = refresh_start + t.t_rfc
        for lane in self.banks:
            lane.open_row = None
            lane.idle_at = ready
            lane.cas_ready_at = ready
            lane.pre_ready_at = ready
            lane.wr_recover_at = 0
        return ready

    # -- introspection (feeds the BI and the bank arbitration filter) -------------

    def idle_banks(self, cycle: int) -> int:
        """Bitmap of banks with no open row and no transition in flight."""
        bitmap = 0
        for i, lane in enumerate(self.banks):
            if lane.open_row is None and lane.idle_at <= cycle:
                bitmap |= 1 << i
        return bitmap

    def access_score(self, baddr: BankAddress, cycle: int) -> int:
        """Cost class of an access: 0 row hit, 1 bank idle, 2 row conflict."""
        lane = self.banks[baddr.bank]
        if lane.open_row == baddr.row:
            return 0
        if lane.open_row is None:
            return 1
        return 2

    def stats(self) -> Tuple[int, int, int]:
        """(activations, row hits, row conflicts) across all banks."""
        return (
            sum(lane.activations for lane in self.banks),
            sum(lane.row_hits for lane in self.banks),
            sum(lane.row_conflicts for lane in self.banks),
        )
