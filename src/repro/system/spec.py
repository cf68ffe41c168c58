"""Declarative system descriptions: one topology, every engine.

A :class:`SystemSpec` is the single source of truth for a platform: the
workload binding (which masters, which traffic), the bus parameter set
(:class:`BusSpec` wrapping :class:`~repro.core.config.AhbPlusConfig`)
and the slave-side memory map (:class:`SlaveSpec` address regions).  It
is *pure data* — frozen dataclasses with JSON round-trip and pickle
support — so the same spec can elaborate into the method-based TLM, the
thread-based TLM, the plain-AHB baseline or the pin-accurate RTL model
(see :mod:`repro.system.platform`), and sweep grids can ship specs to
worker processes unchanged.

The experiment ablations build their grids with :func:`sweep`, which
replaces exactly one axis (a config field, the workload seed, or the
engine level) per point instead of hand-cloning ``replace(config, ...)``
logic per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ahb.decoder import AddressMap
from repro.canonical import register_content_schema
from repro.core.config import AhbPlusConfig, config_for_workload
from repro.errors import ConfigError
from repro.traffic.faults import FaultSpec
from repro.traffic.workloads import Workload

#: Slave model kinds a :class:`SlaveSpec` may name.
SLAVE_KINDS = ("ddr", "sram", "apb")

#: Elaboration targets (see :class:`repro.system.platform.PlatformBuilder`).
LEVELS = ("tlm", "tlm-threaded", "plain", "rtl")


@dataclass(frozen=True)
class SlaveSpec:
    """One slave's identity, model kind and address window.

    ``kind`` selects the model pair used at elaboration:

    * ``"ddr"`` — the DDR controller (analytic TLM / FSM RTL).  Must be
      based at address zero: the controller's bank/row decode arithmetic
      operates on absolute addresses.
    * ``"sram"`` — fixed-latency scratchpad with a real backing store
      (``wait_states`` first beat, ``burst_wait_states`` later beats).
    * ``"apb"`` — AHB→APB bridge stub: every beat pays the full
      ``setup_cycles`` bridge penalty (APB has no bursts).
    """

    name: str
    kind: str
    base: int
    size: int
    # Static-slave timing (ignored for "ddr"; the DDR timing lives in
    # the bus config so one knob drives both abstraction levels).
    wait_states: int = 1
    burst_wait_states: int = 0
    setup_cycles: int = 4
    #: Seeded fault model for this slave: transfers into its region may
    #: be answered with ERROR/RETRY (window defaults to the region).
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in SLAVE_KINDS:
            raise ConfigError(
                f"slave {self.name}: unknown kind {self.kind!r}; "
                f"choose from {SLAVE_KINDS}"
            )
        if self.base < 0 or self.size <= 0:
            raise ConfigError(f"slave {self.name}: bad base/size")
        if self.kind == "ddr" and self.base != 0:
            raise ConfigError(
                f"slave {self.name}: the DDR controller must be based at "
                f"address zero (bank decode is absolute)"
            )
        if self.wait_states < 0 or self.burst_wait_states < 0:
            raise ConfigError(f"slave {self.name}: negative wait states")
        if self.setup_cycles < 1:
            raise ConfigError(f"slave {self.name}: setup must be >= 1 cycle")

    @property
    def end(self) -> int:
        """First address after the region."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def to_dict(self) -> Dict[str, object]:
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "fault"
        }
        payload["fault"] = None if self.fault is None else self.fault.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SlaveSpec":
        data = dict(data)
        raw_fault = data.pop("fault", None)
        return cls(
            fault=None if raw_fault is None else FaultSpec.from_dict(raw_fault),
            **data,  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class BusSpec:
    """Bus-side parameters of a system.

    Wraps an :class:`AhbPlusConfig`; ``config=None`` means "derive a
    default config from the workload" (master count and QoS map), which
    is what the paper-topology scenarios do.
    """

    config: Optional[AhbPlusConfig] = None

    def resolve(self, workload: Workload) -> AhbPlusConfig:
        """The concrete config for *workload* (validated, QoS-merged)."""
        return config_for_workload(workload, self.config)

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": None if self.config is None else self.config.to_dict()
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BusSpec":
        raw = data.get("config")
        return cls(
            config=None if raw is None else AhbPlusConfig.from_dict(raw)  # type: ignore[arg-type]
        )


#: Schema tag of :meth:`SystemSpec.content_key` payloads; bump on
#: incompatible ``to_dict`` change to invalidate every cached key.
SYSTEM_KEY_SCHEMA = register_content_schema(
    "ahbplus-system-v1", "repro.system.spec.SystemSpec"
)


@dataclass(frozen=True)
class SystemSpec:
    """A complete platform description.

    ``slaves=()`` (the default) means the classic paper topology: one
    DDR controller mapped at address zero, sized by the bus config's
    ``memory_size`` — exactly what the legacy builders hard-coded.
    Explicit slave tuples describe multi-slave maps; region indices
    follow tuple order.
    """

    name: str
    workload: Workload
    bus: BusSpec = field(default_factory=BusSpec)
    slaves: Tuple[SlaveSpec, ...] = ()
    #: Slave index that catches unmapped addresses (AHB default slave);
    #: ``None`` keeps strict decoding (unmapped access raises).
    default_slave: Optional[int] = None

    def __post_init__(self) -> None:
        ddr_count = sum(1 for s in self.slaves if s.kind == "ddr")
        if self.slaves and ddr_count == 0:
            raise ConfigError(
                f"system {self.name}: need a DDR slave (the write buffer "
                f"and BI semantics assume one memory controller)"
            )
        if ddr_count > 1:
            raise ConfigError(
                f"system {self.name}: at most one DDR slave is supported"
            )
        if self.default_slave is not None and not (
            0 <= self.default_slave < max(len(self.slaves), 1)
        ):
            raise ConfigError(
                f"system {self.name}: default slave index out of range"
            )

    # -- resolution -----------------------------------------------------------

    def config(self) -> AhbPlusConfig:
        """The concrete bus configuration for this system."""
        return self.bus.resolve(self.workload)

    def resolved_slaves(
        self, config: Optional[AhbPlusConfig] = None
    ) -> Tuple[SlaveSpec, ...]:
        """Explicit slaves, or the synthesized paper-topology DDR."""
        if self.slaves:
            return self.slaves
        cfg = config if config is not None else self.config()
        return (SlaveSpec(name="ddr", kind="ddr", base=0, size=cfg.memory_size),)

    def ddr_slave(self, config: Optional[AhbPlusConfig] = None) -> SlaveSpec:
        """The (single) DDR slave of the system."""
        for spec in self.resolved_slaves(config):
            if spec.kind == "ddr":
                return spec
        raise ConfigError(f"system {self.name}: no DDR slave")  # unreachable

    def address_map(
        self, config: Optional[AhbPlusConfig] = None
    ) -> AddressMap:
        """Build the (overlap-checked) address map for this system."""
        amap = AddressMap(default_slave=self.default_slave)
        for index, spec in enumerate(self.resolved_slaves(config)):
            amap.add(spec.name, spec.base, spec.size, index)
        return amap

    # -- derivation -----------------------------------------------------------

    def with_config(self, **overrides: object) -> "SystemSpec":
        """A copy with bus-config fields replaced.

        The base config is resolved first (so a spec that derives its
        config from the workload can still be overridden), then the
        replacement re-validates through ``AhbPlusConfig.__post_init__``.
        """
        resolved = self.config()
        return replace(
            self, bus=BusSpec(config=replace(resolved, **overrides))  # type: ignore[arg-type]
        )

    def with_workload(self, workload: Workload) -> "SystemSpec":
        """A copy bound to a different workload."""
        return replace(self, workload=workload)

    def with_seed(self, seed: int) -> "SystemSpec":
        """A copy with the workload re-seeded (sweep repetition axis)."""
        return replace(self, workload=self.workload.with_seed(seed))

    def scaled(self, factor: float) -> "SystemSpec":
        """A copy with the workload's transaction counts scaled."""
        return replace(self, workload=self.workload.scaled(factor))

    def content_key(self) -> str:
        """Canonical content address of this system description.

        Hashed over the sorted-key JSON form, so the key survives dict
        reordering, ``to_dict`` → JSON → ``from_dict`` round-trips and
        process boundaries — the property the serving layer's result
        cache builds on (see :func:`repro.exec.records.point_key`,
        which combines this description with engine and cycle ceiling).
        """
        from repro.canonical import stable_hash

        return stable_hash(self.to_dict(), SYSTEM_KEY_SCHEMA)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping of the whole system description."""
        return {
            "name": self.name,
            "workload": self.workload.to_dict(),
            "bus": self.bus.to_dict(),
            "slaves": [spec.to_dict() for spec in self.slaves],
            "default_slave": self.default_slave,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SystemSpec":
        """Rebuild a system spec; every layer re-validates itself."""
        return cls(
            name=data["name"],  # type: ignore[arg-type]
            workload=Workload.from_dict(data["workload"]),  # type: ignore[arg-type]
            bus=BusSpec.from_dict(data.get("bus", {})),  # type: ignore[arg-type]
            slaves=tuple(
                SlaveSpec.from_dict(spec) for spec in data.get("slaves", ())  # type: ignore[union-attr]
            ),
            default_slave=data.get("default_slave"),  # type: ignore[arg-type]
        )


# -- sweep grids ---------------------------------------------------------------

#: Axes handled specially by :func:`sweep`; anything else must name an
#: :class:`AhbPlusConfig` field.
SPECIAL_AXES = ("engine", "seed")

_CONFIG_FIELDS = {f.name for f in fields(AhbPlusConfig)}


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of an experiment sweep."""

    label: str
    axis: str
    value: object
    spec: SystemSpec
    engine: str = "tlm"

    def build(self, **kwargs: object):
        """Elaborate this point's spec at its engine level."""
        from repro.system.platform import PlatformBuilder

        return PlatformBuilder(self.spec).build(self.engine, **kwargs)  # type: ignore[arg-type]


def sweep(
    spec: SystemSpec,
    axis: str,
    values: Iterable[object],
    labels: Optional[Sequence[str]] = None,
    engine: str = "tlm",
) -> List[SweepPoint]:
    """Expand *spec* along one axis into a list of :class:`SweepPoint`.

    ``axis`` is an :class:`AhbPlusConfig` field name (the common case:
    ``"write_buffer_depth"``, ``"bus_interface_enabled"``,
    ``"disabled_filters"``, ...), ``"seed"`` (re-seed the workload) or
    ``"engine"`` (same spec elaborated at different abstraction levels
    — the paper's whole premise).  Every point re-validates through the
    config/spec constructors, so an illegal grid value fails at grid
    construction, not mid-experiment.
    """
    if axis not in SPECIAL_AXES and axis not in _CONFIG_FIELDS:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; use an AhbPlusConfig field, "
            f"'seed' or 'engine'"
        )
    values = list(values)
    if labels is not None and len(labels) != len(values):
        raise ConfigError("sweep labels must match values one-to-one")
    points: List[SweepPoint] = []
    for index, value in enumerate(values):
        label = labels[index] if labels is not None else f"{axis}={value}"
        if axis == "engine":
            if value not in LEVELS:
                raise ConfigError(
                    f"unknown engine {value!r}; choose from {LEVELS}"
                )
            point = SweepPoint(
                label=label, axis=axis, value=value, spec=spec, engine=str(value)
            )
        elif axis == "seed":
            point = SweepPoint(
                label=label,
                axis=axis,
                value=value,
                spec=spec.with_seed(int(value)),  # type: ignore[arg-type]
                engine=engine,
            )
        else:
            point = SweepPoint(
                label=label,
                axis=axis,
                value=value,
                spec=spec.with_config(**{axis: value}),
                engine=engine,
            )
        points.append(point)
    return points
