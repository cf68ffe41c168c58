"""The AHB+ transaction-level model — the paper's core contribution.

Public surface:

* :class:`AhbPlusConfig` — every §3.7 parameter in one place.
* :class:`AhbPlusBusTlm` — the method-based engine, the one definition
  of AHB+ transaction-level semantics.
* :class:`ThreadedAhbPlusBus` — the same bus run as threads (a subclass
  that adds only the thread machinery), for the paper's §4
  method-vs-thread comparison.
* :class:`AhbPlusArbiter` + the seven arbitration filters.
* :class:`QosRegisterFile` — the AHB+ QoS registers.
* :class:`WriteBuffer` — posted-write buffer (an extra bus master).
* :class:`BusInterface` — the arbiter↔DDRC side channel (BI).
* :class:`TransactionPort` / :class:`InteractiveAhbPlus` — the paper's
  CheckGrant()/Read()/Write() port API, on the method bus driven by
  calls.
* :class:`Transaction` / :class:`AccessKind` — the port payload,
  re-exported from :mod:`repro.ahb`.

Whole systems are described with :class:`repro.system.SystemSpec` and
elaborated by :class:`repro.system.PlatformBuilder`.
"""

from repro.ahb.transaction import WRITE_BUFFER_MASTER, Transaction
from repro.ahb.types import AccessKind
from repro.core.arbiter import AhbPlusArbiter
from repro.core.bus import AhbPlusBusTlm, AhbPlusRunResult
from repro.core.bus_interface import BusInterface
from repro.core.config import SWITCHABLE_FILTERS, AhbPlusConfig, config_for_workload
from repro.core.filters import (
    ArbitrationContext,
    ArbitrationFilter,
    BankFilter,
    Candidate,
    FILTER_NAMES,
    HazardFilter,
    PressureFilter,
    RealTimeFilter,
    RequestFilter,
    TieBreakFilter,
    UrgencyFilter,
    default_filter_chain,
)
from repro.core.ports import InteractiveAhbPlus, PortStatus, TransactionPort
from repro.core.qos import QosRegisterFile, QosSetting, decode_setting, encode_setting
from repro.core.threaded import ThreadedAhbPlusBus
from repro.core.write_buffer import WriteBuffer

__all__ = [
    "AccessKind",
    "AhbPlusArbiter",
    "AhbPlusBusTlm",
    "AhbPlusConfig",
    "AhbPlusRunResult",
    "ArbitrationContext",
    "ArbitrationFilter",
    "BankFilter",
    "BusInterface",
    "Candidate",
    "FILTER_NAMES",
    "HazardFilter",
    "InteractiveAhbPlus",
    "PortStatus",
    "PressureFilter",
    "QosRegisterFile",
    "QosSetting",
    "RealTimeFilter",
    "RequestFilter",
    "SWITCHABLE_FILTERS",
    "ThreadedAhbPlusBus",
    "TieBreakFilter",
    "TransactionPort",
    "Transaction",
    "UrgencyFilter",
    "WRITE_BUFFER_MASTER",
    "WriteBuffer",
    "config_for_workload",
    "decode_setting",
    "default_filter_chain",
    "encode_setting",
]
