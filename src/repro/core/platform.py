"""Transaction-level platform records and the legacy builder shims.

The platform dataclasses (:class:`TlmPlatform`, :class:`PlainPlatform`)
are the engine-facing products of system elaboration; they satisfy the
:class:`repro.system.platform.Platform` protocol — ``run()`` plus
``attach(observer)`` — so analysis code never reaches into the bus.

``build_tlm_platform``/``build_plain_platform`` are **deprecation
shims**: new code should describe the system once with
:class:`repro.system.SystemSpec` (or pick a registry entry from
:mod:`repro.system.scenarios`) and elaborate it through
:class:`repro.system.PlatformBuilder`.  The shims wrap the given
workload/config in the equivalent paper-topology spec and delegate, so
their output is bit-for-bit identical to what they built before the
spec layer existed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional

from repro.ahb.bus import BusRunResult, PlainAhbBus, TransactionObserver
from repro.ahb.master import TlmMaster
from repro.ahb.slave import TlmSlave
from repro.core.bus import AhbPlusBusTlm, AhbPlusRunResult
from repro.core.config import AhbPlusConfig
from repro.ddr.controller import DdrControllerTlm
from repro.ddr.memory import MemoryModel
from repro.errors import ConfigError

if TYPE_CHECKING:  # traffic.workloads itself imports repro.core.qos —
    # a runtime import here would close an import cycle whenever
    # repro.traffic loads first, so Workload stays annotation-only.
    from repro.traffic.workloads import Workload


@dataclass
class TlmPlatform:
    """An assembled transaction-level AHB+ system."""

    workload: Workload
    config: AhbPlusConfig
    masters: List[TlmMaster]
    ddrc: DdrControllerTlm
    bus: AhbPlusBusTlm
    #: All slaves in address-map order (``[ddrc]`` on the paper topology).
    slaves: List[TlmSlave] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.slaves:
            self.slaves = [self.ddrc]

    @property
    def memory(self) -> MemoryModel:
        """The DDR backing store (for functional checks)."""
        return self.ddrc.memory

    def run(self, max_cycles: Optional[int] = None) -> AhbPlusRunResult:
        """Run the workload to completion."""
        return self.bus.run(max_cycles=max_cycles)

    def attach(self, observer: TransactionObserver) -> None:
        """Register a ``(txn, grant, start, finish)`` observer."""
        self.bus.add_observer(observer)


@dataclass
class PlainPlatform:
    """The unextended AMBA 2.0 baseline on the same substrate."""

    workload: Workload
    masters: List[TlmMaster]
    ddrc: DdrControllerTlm
    bus: PlainAhbBus
    config: Optional[AhbPlusConfig] = None
    slaves: List[TlmSlave] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.slaves:
            self.slaves = [self.ddrc]

    @property
    def memory(self) -> MemoryModel:
        return self.ddrc.memory

    def run(self, max_cycles: Optional[int] = None) -> BusRunResult:
        return self.bus.run(max_cycles=max_cycles)

    def attach(self, observer: TransactionObserver) -> None:
        """Register a ``(txn, grant, start, finish)`` observer."""
        self.bus.add_observer(observer)


def config_for_workload(
    workload: Workload, base: Optional[AhbPlusConfig] = None
) -> AhbPlusConfig:
    """Derive a config matching the workload's master count and QoS map."""
    if base is None:
        return AhbPlusConfig(num_masters=workload.num_masters, qos=workload.qos_map())
    if base.num_masters != workload.num_masters:
        raise ConfigError(
            f"config is for {base.num_masters} masters but workload "
            f"{workload.name!r} has {workload.num_masters}"
        )
    merged_qos = dict(workload.qos_map())
    merged_qos.update(base.qos)
    return replace(base, qos=merged_qos)


def _paper_spec(workload: Workload, config: Optional[AhbPlusConfig]):
    """The paper-topology spec equivalent to a legacy builder call.

    Delegates to the scenario registry's canonical constructor so every
    entry point (registry, TLM shims, RTL shim) builds the *same* spec
    — one place to evolve the paper topology, one serialised name.
    """
    from repro.system.scenarios import paper_topology

    return paper_topology(workload=workload, config=config)


def build_tlm_platform(
    workload: Workload,
    config: Optional[AhbPlusConfig] = None,
    engine: str = "method",
) -> TlmPlatform:
    """Assemble the AHB+ TLM platform for *workload*.

    .. deprecated::
        Thin shim over :class:`repro.system.PlatformBuilder`; prefer
        ``PlatformBuilder(spec).build("tlm")`` with a
        :class:`~repro.system.SystemSpec` (the ``engine="thread"``
        variant is the ``"tlm-threaded"`` level).  Output is
        bit-for-bit identical to the pre-spec builder.
    """
    from repro.system.platform import PlatformBuilder

    warnings.warn(
        "build_tlm_platform is deprecated; describe the system as a "
        "repro.system.SystemSpec and elaborate it via "
        "PlatformBuilder(spec).build('tlm') / .build('tlm-threaded')",
        DeprecationWarning,
        stacklevel=2,
    )
    if engine == "method":
        level = "tlm"
    elif engine == "thread":
        level = "tlm-threaded"
    else:
        raise ConfigError(f"unknown engine {engine!r}; use 'method' or 'thread'")
    platform = PlatformBuilder(_paper_spec(workload, config)).build(level)
    assert isinstance(platform, TlmPlatform)
    return platform


def build_plain_platform(
    workload: Workload,
    config: Optional[AhbPlusConfig] = None,
) -> PlainPlatform:
    """Assemble the plain AMBA 2.0 baseline for *workload*.

    Same masters, same DDR device — but no QoS, no write buffer, no
    request pipelining and no Bus Interface, so the controller sees
    every transaction cold.

    .. deprecated::
        Thin shim over :class:`repro.system.PlatformBuilder`; prefer
        ``PlatformBuilder(spec).build("plain")``.
    """
    from repro.system.platform import PlatformBuilder

    warnings.warn(
        "build_plain_platform is deprecated; describe the system as a "
        "repro.system.SystemSpec and elaborate it via "
        "PlatformBuilder(spec).build('plain')",
        DeprecationWarning,
        stacklevel=2,
    )
    platform = PlatformBuilder(_paper_spec(workload, config)).build("plain")
    assert isinstance(platform, PlainPlatform)
    return platform
