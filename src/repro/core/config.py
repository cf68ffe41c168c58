"""AHB+ platform configuration.

Paper §3.7: *"For the flexibility and reusability, AHB+ TLM has several
parameters, such as bus width, write buffer depth, arbitration algorithm
on/off, and etc.  Other parameters are selection of real-time/non-real
time type of a master, write buffer on/off, and QoS value."*

Every one of those knobs appears here; the platform builders (TLM and
RTL) consume the same object, so an experiment varies one configuration
and runs it at both abstraction levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.arbiter import AhbPlusArbiter
from repro.core.qos import QosRegisterFile, QosSetting
from repro.ddr.timing import DDR_266, DdrTiming
from repro.errors import ConfigError

if TYPE_CHECKING:  # traffic.workloads imports repro.core.qos: annotation only
    from repro.traffic.workloads import Workload

#: Filters that may be switched off (the tie-break must stay).
SWITCHABLE_FILTERS = ("request", "hazard", "urgency", "real-time", "pressure", "bank")


@dataclass
class AhbPlusConfig:
    """Complete parameter set of an AHB+ platform instance."""

    # Bus geometry.
    num_masters: int = 4
    bus_width_bytes: int = 4

    # Write buffer (paper: on/off + depth).
    write_buffer_enabled: bool = True
    write_buffer_depth: int = 4

    # Request pipelining and its decision lead time (cycles before the
    # current transfer ends at which the next winner is locked in).
    request_pipelining: bool = True
    pipeline_lead: int = 2

    # Bus Interface to the memory controller (bank interleaving).
    bus_interface_enabled: bool = True

    # Arbitration.
    tie_break: str = "fixed"  # or "round_robin"
    disabled_filters: Tuple[str, ...] = ()
    urgency_margin: int = 32
    #: Anti-starvation bound of the bank filter (cycles a candidate may
    #: wait before bank cost can no longer filter it out).
    starvation_limit: int = 32
    #: Dead cycles HBUSREQ→HGRANT when the bus was idle (pipelining
    #: hides this between back-to-back transfers).
    arbitration_cycles: int = 1

    # QoS registers: master index -> setting; unlisted masters are NRT.
    qos: Dict[int, QosSetting] = field(default_factory=dict)

    # Memory subsystem.
    ddr_timing: DdrTiming = field(default_factory=lambda: DDR_266)
    refresh_enabled: bool = True
    memory_size: int = 1 << 26

    def __post_init__(self) -> None:
        if self.num_masters < 1:
            raise ConfigError("need at least one master")
        if self.bus_width_bytes not in (1, 2, 4, 8, 16):
            raise ConfigError(
                f"unsupported bus width {self.bus_width_bytes} bytes"
            )
        if self.write_buffer_depth < 1:
            raise ConfigError("write buffer depth must be >= 1")
        if self.pipeline_lead < 0:
            raise ConfigError("pipeline lead cannot be negative")
        if self.arbitration_cycles < 0:
            raise ConfigError("arbitration cycles cannot be negative")
        if self.tie_break not in ("fixed", "round_robin"):
            raise ConfigError(f"unknown tie-break {self.tie_break!r}")
        for name in self.disabled_filters:
            if name not in SWITCHABLE_FILTERS:
                raise ConfigError(
                    f"filter {name!r} is unknown or cannot be disabled"
                )
        for master in self.qos:
            if not 0 <= master < self.num_masters:
                raise ConfigError(
                    f"QoS setting for out-of-range master {master}"
                )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping of the full configuration.

        QoS keys become strings (JSON objects cannot key on integers)
        and nested dataclasses serialise through their own ``to_dict``;
        :meth:`from_dict` reverses both, so
        ``AhbPlusConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))``
        is the identity.
        """
        data: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "qos":
                data[f.name] = {
                    str(master): setting.to_dict()
                    for master, setting in value.items()
                }
            elif f.name == "ddr_timing":
                data[f.name] = value.to_dict()
            elif f.name == "disabled_filters":
                data[f.name] = list(value)
            else:
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AhbPlusConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Construction runs ``__post_init__``, so every validation rule
        (filter names, QoS ranges, bus width, ...) applies to
        deserialised configs exactly as to hand-built ones.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown AhbPlusConfig fields {sorted(unknown)}")
        kwargs: Dict[str, object] = dict(data)
        if "qos" in kwargs:
            kwargs["qos"] = {
                int(master): QosSetting.from_dict(setting)
                for master, setting in kwargs["qos"].items()  # type: ignore[union-attr]
            }
        if "ddr_timing" in kwargs:
            kwargs["ddr_timing"] = DdrTiming.from_dict(kwargs["ddr_timing"])  # type: ignore[arg-type]
        if "disabled_filters" in kwargs:
            kwargs["disabled_filters"] = tuple(kwargs["disabled_filters"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]

    def build_qos(self) -> QosRegisterFile:
        """A fresh QoS register file holding :attr:`qos`."""
        qos = QosRegisterFile(self.num_masters)
        for master, setting in self.qos.items():
            qos.configure(master, setting)
        return qos

    def build_arbiter(self) -> AhbPlusArbiter:
        """A fresh arbiter with :attr:`disabled_filters` switched off."""
        arbiter = AhbPlusArbiter(
            tie_break=self.tie_break, num_masters=self.num_masters
        )
        for name in self.disabled_filters:
            arbiter.set_filter_enabled(name, False)
        return arbiter

    def without_extensions(self) -> "AhbPlusConfig":
        """A copy with every AHB+ extension off: the plain AMBA 2.0 bus.

        This is the one definition of the paper's baseline; the
        ``plain`` platform level runs the AHB+ engine on it.  No write
        buffer, no pipelining, no BI, and only a fixed-priority
        tie-break deciding (lowest master index wins).  The idle bus
        pays at least one HBUSREQ→HGRANT cycle per transfer.  The QoS
        registers stay programmed, so deadline outcomes are still
        counted even though no filter acts on them.
        """
        return replace(
            self,
            write_buffer_enabled=False,
            write_buffer_depth=1,
            request_pipelining=False,
            pipeline_lead=0,
            bus_interface_enabled=False,
            tie_break="fixed",
            disabled_filters=tuple(SWITCHABLE_FILTERS),
            arbitration_cycles=max(self.arbitration_cycles, 1),
            qos=dict(self.qos),
        )


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
