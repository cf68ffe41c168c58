"""Traffic pattern descriptors.

The paper evaluates the AHB+ TLM by "changing the traffic patterns of
the masters" (§4, Table 1).  The original patterns came from Samsung's
DVD-player platform; this module provides parameterised synthetic
equivalents that exercise the same code paths: burst-length mix,
read/write ratio, spatial locality (row hits vs row conflicts at the
DDRC), think time (bus contention) and real-time periodicity (QoS).

A :class:`TrafficPattern` is pure description — generation happens in
:mod:`repro.traffic.generator` with an explicit seed, so every model
(plain AHB, AHB+ TLM, threaded TLM, RTL) replays the identical stream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence, Tuple

from repro.errors import TrafficError

#: (beats, weight) pairs; weights need not be normalised.
BurstMix = Sequence[Tuple[int, float]]


@dataclass(frozen=True)
class TrafficPattern:
    """Statistical description of one master's access behaviour."""

    name: str
    #: Probability an access is a read (the rest are writes).
    read_fraction: float = 0.7
    #: Burst-length mix as (beats, weight) pairs.
    burst_mix: BurstMix = ((1, 0.25), (4, 0.5), (8, 0.25))
    #: Closed-loop think time between completing one access and issuing
    #: the next, drawn uniformly from this inclusive range.
    think_range: Tuple[int, int] = (0, 8)
    #: Base byte address and span of the master's working window.
    base_addr: int = 0
    addr_span: int = 1 << 20
    #: Probability the next access continues sequentially after the
    #: previous one (spatial locality — drives DDR row hits).
    sequential_fraction: float = 0.5
    #: Sequential advance between accesses; ``None`` = contiguous (the
    #: burst size).  A stride of one DDR row-group makes every access
    #: open a new row in the same bank — the bank-interleaving stressor.
    stride_bytes: Optional[int] = None
    #: Bytes per beat.
    size_bytes: int = 4
    #: Fraction of eligible bursts (4/8/16 beats) issued as WRAPx
    #: (cache-line-fill style) instead of INCRx.
    wrap_fraction: float = 0.0
    #: Real-time streaming: issue period in cycles (``None`` = closed
    #: loop only) and the completion deadline after issue.
    period: Optional[int] = None
    deadline_offset: Optional[int] = None
    #: Bursty (MPEG-like) arrivals: ``(accesses_per_burst, gap_lo,
    #: gap_hi)``.  Every ``accesses_per_burst``-th item (after the
    #: first) draws its think time from the *gap* range instead of
    #: ``think_range``, producing frame-sized request clumps separated
    #: by long idle gaps.  ``None`` keeps the uniform closed-loop model.
    burst_gap: Optional[Tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise TrafficError("read_fraction must be within [0, 1]")
        if not self.burst_mix:
            raise TrafficError("burst_mix cannot be empty")
        for beats, weight in self.burst_mix:
            if beats < 1 or beats > 1024:
                raise TrafficError(f"bad burst length {beats}")
            if weight < 0:
                raise TrafficError("burst weights cannot be negative")
        if sum(w for _b, w in self.burst_mix) <= 0:
            raise TrafficError("burst weights sum to zero")
        lo, hi = self.think_range
        if lo < 0 or hi < lo:
            raise TrafficError(f"bad think range {self.think_range}")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            raise TrafficError("sequential_fraction must be within [0, 1]")
        if self.stride_bytes is not None and self.stride_bytes < self.size_bytes:
            raise TrafficError("stride must be at least one beat")
        if not 0.0 <= self.wrap_fraction <= 1.0:
            raise TrafficError("wrap_fraction must be within [0, 1]")
        if self.size_bytes not in (1, 2, 4, 8, 16):
            raise TrafficError(f"bad beat size {self.size_bytes}")
        if self.addr_span < self.size_bytes * 32:
            raise TrafficError("address span too small for burst traffic")
        if self.period is not None and self.period < 1:
            raise TrafficError("period must be positive")
        if self.deadline_offset is not None and self.deadline_offset < 1:
            raise TrafficError("deadline offset must be positive")
        if self.burst_gap is not None:
            per_burst, gap_lo, gap_hi = self.burst_gap
            if per_burst < 1:
                raise TrafficError("burst_gap needs at least one access per burst")
            if gap_lo < 0 or gap_hi < gap_lo:
                raise TrafficError(f"bad burst gap range ({gap_lo}, {gap_hi})")

    @property
    def is_real_time(self) -> bool:
        """Patterns with a deadline are real-time streams."""
        return self.deadline_offset is not None

    def to_dict(self) -> dict:
        """JSON-ready mapping of the pattern's knobs."""
        return {
            "name": self.name,
            "read_fraction": self.read_fraction,
            "burst_mix": [list(pair) for pair in self.burst_mix],
            "think_range": list(self.think_range),
            "base_addr": self.base_addr,
            "addr_span": self.addr_span,
            "sequential_fraction": self.sequential_fraction,
            "stride_bytes": self.stride_bytes,
            "size_bytes": self.size_bytes,
            "wrap_fraction": self.wrap_fraction,
            "period": self.period,
            "deadline_offset": self.deadline_offset,
            "burst_gap": (
                None if self.burst_gap is None else list(self.burst_gap)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficPattern":
        """Rebuild a pattern; the constructor re-validates every knob."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise TrafficError(
                f"unknown TrafficPattern fields {sorted(unknown)}"
            )
        kwargs = dict(data)
        if "burst_mix" in kwargs:
            kwargs["burst_mix"] = tuple(
                (int(beats), float(weight)) for beats, weight in kwargs["burst_mix"]
            )
        if "think_range" in kwargs:
            lo, hi = kwargs["think_range"]
            kwargs["think_range"] = (int(lo), int(hi))
        if kwargs.get("burst_gap") is not None:
            per_burst, gap_lo, gap_hi = kwargs["burst_gap"]
            kwargs["burst_gap"] = (int(per_burst), int(gap_lo), int(gap_hi))
        return cls(**kwargs)


# -- canonical patterns (the knobs behind Table 1's traffic variations) -----

#: Processor-like: moderate locality, mixed bursts, read-dominated.
CPU = TrafficPattern(
    name="cpu",
    read_fraction=0.75,
    burst_mix=((1, 0.3), (4, 0.5), (8, 0.2)),
    think_range=(2, 20),
    sequential_fraction=0.45,
)

#: DMA engine: long incrementing bursts, minimal think time.
DMA = TrafficPattern(
    name="dma",
    read_fraction=0.5,
    burst_mix=((8, 0.4), (16, 0.6)),
    think_range=(0, 4),
    sequential_fraction=0.9,
)

#: Video stream: periodic real-time burst reads with deadlines.
VIDEO = TrafficPattern(
    name="video",
    read_fraction=1.0,
    burst_mix=((16, 1.0),),
    think_range=(0, 0),
    sequential_fraction=0.95,
    period=200,
    deadline_offset=180,
)

#: Audio stream: low-rate periodic real-time accesses.
AUDIO = TrafficPattern(
    name="audio",
    read_fraction=0.9,
    burst_mix=((4, 1.0),),
    think_range=(0, 0),
    sequential_fraction=0.9,
    period=400,
    deadline_offset=160,
)

#: Write-dominated producer (exercises the write buffer).
WRITER = TrafficPattern(
    name="writer",
    read_fraction=0.1,
    burst_mix=((1, 0.4), (4, 0.6)),
    think_range=(1, 10),
    sequential_fraction=0.4,
)

#: MPEG-like decoder: frame-sized clumps of long sequential bursts
#: separated by inter-frame idle gaps (the bursty arrival process of
#: the ``mpeg-bursty`` scenario).
MPEG = TrafficPattern(
    name="mpeg",
    read_fraction=0.85,
    burst_mix=((8, 0.5), (16, 0.5)),
    think_range=(0, 2),
    sequential_fraction=0.9,
    burst_gap=(12, 150, 400),
    deadline_offset=220,
)

#: Fully random single transfers — the worst case for row locality.
RANDOM = TrafficPattern(
    name="random",
    read_fraction=0.6,
    burst_mix=((1, 0.7), (4, 0.3)),
    think_range=(0, 12),
    sequential_fraction=0.05,
)

#: Placeholder carried by trace-backed workload master specs.  A
#: trace replay never draws from its pattern — the items come verbatim
#: from the archived records — but :class:`~repro.traffic.workloads.
#: MasterSpec` wants one for serialisation symmetry, so this inert
#: descriptor marks the slot.  Deliberately absent from
#: ``NAMED_PATTERNS``: it would generate degenerate synthetic traffic.
REPLAY = TrafficPattern(
    name="trace-replay",
    burst_mix=((1, 1.0),),
    think_range=(0, 0),
)

NAMED_PATTERNS = {
    pattern.name: pattern
    for pattern in (CPU, DMA, VIDEO, AUDIO, WRITER, MPEG, RANDOM)
}


def named_pattern(name: str) -> TrafficPattern:
    """Look up one of the canonical patterns by name."""
    try:
        return NAMED_PATTERNS[name]
    except KeyError:
        raise TrafficError(
            f"unknown pattern {name!r}; choose from {sorted(NAMED_PATTERNS)}"
        ) from None
