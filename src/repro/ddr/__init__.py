"""DDR SDRAM substrate: timing, banks, scheduling, memory, controller.

The cycle-accurate pieces (:class:`BankFsm`, :class:`CommandScheduler`)
serve the RTL reference model; the analytic pieces
(:class:`BankTimeline`, :class:`DdrControllerTlm`) serve the
transaction-level model.  Both enforce the same JEDEC-style constraints
from one shared :class:`DdrTiming` description.
"""

from repro.ddr.bank import BankFsm, BankState
from repro.ddr.commands import (
    COMMAND_PRIORITY,
    BankAddress,
    DdrCommand,
    decode_address,
    same_row,
)
from repro.ddr.controller import DdrControllerTlm
from repro.ddr.memory import MemoryModel
from repro.ddr.scheduler import CommandScheduler, PendingAccess, ScheduledCommand
from repro.ddr.timeline import AccessPlan, BankLane, BankTimeline
from repro.ddr.timing import DDR_266, DDR_333, DDR_TEST, DdrTiming, PRESETS, preset

__all__ = [
    "AccessPlan",
    "BankAddress",
    "BankFsm",
    "BankLane",
    "BankState",
    "BankTimeline",
    "COMMAND_PRIORITY",
    "CommandScheduler",
    "DDR_266",
    "DDR_333",
    "DDR_TEST",
    "DdrCommand",
    "DdrControllerTlm",
    "DdrTiming",
    "MemoryModel",
    "PRESETS",
    "PendingAccess",
    "ScheduledCommand",
    "decode_address",
    "preset",
    "same_row",
]
