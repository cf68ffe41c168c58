"""Generic AMBA 2.0 AHB substrate.

Protocol types, burst address math, the shared transaction object, the
address decoder, master traffic agents and transaction-level slaves.
The buses live in :mod:`repro.core`: the paper's plain AMBA 2.0
baseline is the AHB+ engine run with
:meth:`~repro.core.config.AhbPlusConfig.without_extensions`.
"""

from repro.ahb.burst import (
    KB_BOUNDARY,
    beat_addresses,
    crosses_kb_boundary,
    transaction_addresses,
)
from repro.ahb.decoder import AddressMap, Region, single_slave_map
from repro.ahb.master import TlmMaster, TrafficItem
from repro.ahb.slave import ApbBridgeSlave, SramSlave, TlmSlave
from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.ahb.types import AccessKind, HBurst, HResp, HSize, HTrans, burst_for_beats

__all__ = [
    "AccessKind",
    "AddressMap",
    "ApbBridgeSlave",
    "HBurst",
    "HResp",
    "HSize",
    "HTrans",
    "KB_BOUNDARY",
    "Region",
    "SramSlave",
    "TlmMaster",
    "TlmSlave",
    "TrafficItem",
    "Transaction",
    "WRITE_BUFFER_MASTER",
    "beat_addresses",
    "burst_for_beats",
    "crosses_kb_boundary",
    "single_slave_map",
    "transaction_addresses",
]
