"""Pin-accurate RTL reference model of the AHB+ bus architecture.

Signal-level masters, arbiter, mux, Bus Interface and DDR controller
FSMs running on the 2-step cycle engine.  The write-buffer drain engine
is the master FSM fed by the buffer instead of a traffic agent.
This is the reference the transaction-level model is validated against
for accuracy and measured against for speed.
"""

from repro.rtl.arbiter import ArbiterRtl
from repro.rtl.ddrc import DdrcRtl, RtlAccess, RtlSegment
from repro.rtl.master import MasterRtl, MasterState
from repro.rtl.mux import BusMux, ResponseMux
from repro.rtl.slave import StaticSlaveRtl
from repro.rtl.signals import (
    BiSignals,
    MasterSignals,
    NO_OWNER,
    SharedBusSignals,
    SlaveResponseSignals,
    all_signals,
)
from repro.rtl.write_buffer import BufferMasterRtl

__all__ = [
    "ArbiterRtl",
    "BiSignals",
    "BufferMasterRtl",
    "BusMux",
    "ResponseMux",
    "DdrcRtl",
    "MasterRtl",
    "MasterSignals",
    "MasterState",
    "NO_OWNER",
    "RtlAccess",
    "RtlSegment",
    "SharedBusSignals",
    "SlaveResponseSignals",
    "StaticSlaveRtl",
    "all_signals",
]
