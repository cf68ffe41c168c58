"""DDR SDRAM timing and geometry parameters.

All values are in bus-clock cycles (the AHB and DDR command clocks are
modelled as the same domain, as in the paper's platform where the DDRC
sits directly behind the AHB+ bus).  Presets approximate early-2000s
DDR SDRAM parts of the kind a 2005 DVD-player SoC would use; the exact
numbers are configuration, not behaviour — every model reads them from
this one place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.errors import ConfigError


@dataclass(frozen=True)
class DdrTiming:
    """Timing/geometry of the modelled DDR device.

    Attributes
    ----------
    num_banks:
        Number of internal banks (each with its own row buffer and FSM).
    row_bits / col_bits:
        Address geometry in bus-width words.
    t_rcd:
        ACTIVATE to READ/WRITE delay (row to column).
    t_rp:
        PRECHARGE to ACTIVATE delay.
    t_ras:
        ACTIVATE to PRECHARGE minimum.
    cas_latency:
        READ command to first data.
    write_latency:
        WRITE command to first data.
    t_wr:
        Write recovery: last write data to PRECHARGE.
    t_rrd:
        ACTIVATE to ACTIVATE, different banks.
    t_refi:
        Average refresh interval.
    t_rfc:
        Refresh cycle time (all banks blocked).
    """

    num_banks: int = 4
    row_bits: int = 13
    col_bits: int = 10
    t_rcd: int = 3
    t_rp: int = 3
    t_ras: int = 7
    cas_latency: int = 3
    write_latency: int = 1
    t_wr: int = 3
    t_rrd: int = 2
    t_refi: int = 1560
    t_rfc: int = 14

    def __post_init__(self) -> None:
        if self.num_banks < 1 or self.num_banks & (self.num_banks - 1):
            raise ConfigError(
                f"num_banks must be a power of two, got {self.num_banks}"
            )
        for name in (
            "t_rcd",
            "t_rp",
            "t_ras",
            "cas_latency",
            "write_latency",
            "t_wr",
            "t_rrd",
            "t_refi",
            "t_rfc",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.row_bits < 1 or self.col_bits < 1:
            raise ConfigError("row_bits/col_bits must be >= 1")
        # Precomputed decode tables: geometry is immutable, so every
        # mask/shift the per-beat address decode needs is derived once
        # here instead of per lookup (the decode is the hottest DDR
        # arithmetic in both abstraction levels).
        bank_bits = self.num_banks.bit_length() - 1
        object.__setattr__(self, "_bank_bits", bank_bits)
        object.__setattr__(self, "_col_mask", (1 << self.col_bits) - 1)
        object.__setattr__(self, "_bank_mask", self.num_banks - 1)
        object.__setattr__(self, "_bank_shift", self.col_bits)
        object.__setattr__(self, "_row_shift", self.col_bits + bank_bits)
        object.__setattr__(self, "_row_limit", 1 << self.row_bits)

    @property
    def bank_bits(self) -> int:
        """Bits of the word address selecting the bank."""
        return self._bank_bits

    @property
    def total_words(self) -> int:
        """Total addressable bus-width words of the device."""
        return 1 << (self.row_bits + self._bank_bits + self.col_bits)

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready mapping of the declared timing fields."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "DdrTiming":
        """Rebuild a timing set; ``__post_init__`` re-validates it."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown DdrTiming fields {sorted(unknown)}")
        return cls(**data)


#: A smallish, fast part — default for unit tests (short rows stress
#: the row-miss machinery without long runs).
DDR_TEST = DdrTiming(num_banks=4, row_bits=6, col_bits=4, t_refi=400, t_rfc=8)

#: DDR-266-like device, the library default.
DDR_266 = DdrTiming()

#: DDR-333-like device with slightly deeper rows and faster core.
DDR_333 = DdrTiming(
    num_banks=4,
    row_bits=13,
    col_bits=10,
    t_rcd=3,
    t_rp=3,
    t_ras=6,
    cas_latency=3,
    write_latency=1,
    t_wr=3,
    t_rrd=2,
    t_refi=1872,
    t_rfc=17,
)

PRESETS = {
    "test": DDR_TEST,
    "ddr266": DDR_266,
    "ddr333": DDR_333,
}


def preset(name: str) -> DdrTiming:
    """Look up a named timing preset."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown DDR preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
