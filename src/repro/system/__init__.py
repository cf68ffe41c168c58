"""Declarative platform API: describe a system once, run it anywhere.

* :class:`SystemSpec` (+ :class:`BusSpec`, :class:`SlaveSpec`) — the
  topology description: workload binding, bus parameters, slave
  address regions.  Plain frozen data: picklable, JSON round-trip.
* :class:`PlatformBuilder` — elaborate a spec into any engine
  (``tlm``, ``tlm-threaded``, ``plain``, ``rtl``) behind the common
  :class:`Platform` protocol (``run()`` + ``attach(observer)``); the
  products are :class:`TlmPlatform` and :class:`RtlPlatform`.
* :mod:`repro.system.scenarios` — the named-scenario registry: the
  paper topology and the multi-slave DDR+SRAM+APB variants.
* :func:`sweep` — expand one spec along one axis (config field, seed
  or engine level) into an experiment grid.
"""

from repro.system.platform import (
    AnyPlatform,
    Platform,
    PlatformBuilder,
    RtlPlatform,
    TlmPlatform,
    platform_agents,
)
from repro.system.scenarios import (
    SCENARIOS,
    mpeg_bursty,
    multi_slave_soc,
    paper_topology,
    scenario,
    scenario_names,
    scratchpad_offload,
    trace_replay,
)
from repro.system.spec import (
    LEVELS,
    SLAVE_KINDS,
    BusSpec,
    SlaveSpec,
    SweepPoint,
    SystemSpec,
    sweep,
)

__all__ = [
    "AnyPlatform",
    "BusSpec",
    "LEVELS",
    "Platform",
    "PlatformBuilder",
    "RtlPlatform",
    "SCENARIOS",
    "SLAVE_KINDS",
    "SlaveSpec",
    "SweepPoint",
    "SystemSpec",
    "TlmPlatform",
    "mpeg_bursty",
    "multi_slave_soc",
    "paper_topology",
    "platform_agents",
    "scenario",
    "scenario_names",
    "scratchpad_offload",
    "trace_replay",
    "sweep",
]
