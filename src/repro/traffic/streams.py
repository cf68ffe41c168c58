"""Batched traffic streams: bulk RNG draws, lazy materialisation.

The legacy generator produced one :class:`TrafficItem` at a time, paying
a handful of scalar ``random.Random`` calls per item.  This module keeps
that algorithm's draw sequence as the **compat** mode (the stream is a
pure function of ``(pattern, master_index, count, seed)`` and golden
traces pin it bit-for-bit), and adds a **stream** mode that draws the
address / burst / think-time / data fields as *arrays*, one bulk draw
per field per chunk, then assembles the items in a cheap scalar pass.

Both modes are deterministic per seed and produce protocol-legal traffic
(1 KB-boundary clamp, window containment, aligned wrap blocks); they are
*different* deterministic streams — stream mode uses a bulk RNG, so its
sequence intentionally does not match compat mode.

A :class:`TrafficStream` is lazily iterable: items materialise chunk by
chunk as a bus master consumes them, so building a platform no longer
generates the whole workload up front.  The bulk draws use NumPy when
available and fall back to batched ``random.Random`` list draws
otherwise — same stream *semantics*, no hard dependency.  One honest
caveat follows: the two backends draw different value sequences from
the same field seeds (PCG64 vs Mersenne Twister), so stream mode is
reproducible per seed *on a given RNG backend*, not across
environments that disagree about NumPy.  Artifacts that must be
portable bit-for-bit (golden traces, committed BENCH cycle counts)
therefore pin **compat** mode, which depends on nothing but the
standard library.  Within one environment every engine level sees the
identical stream either way — the accuracy comparison stays sound.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, List, Optional, Sequence, Tuple

# NumPy is optional (the fallback batches draws with random.Random) and
# deliberately *lazy*: importing it costs tens of milliseconds, which
# every `import repro.traffic` — including each sweep pool worker — used
# to pay even when no stream-mode generation ever ran.
_np = None
_np_checked = False


def _numpy():
    """Import numpy on first stream-mode use; None when unavailable."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - only without numpy
            numpy = None
        _np = numpy
    return _np

from repro.ahb.burst import KB_BOUNDARY
from repro.ahb.master import TrafficItem
from repro.ahb.transaction import Transaction
from repro.ahb.types import AccessKind
from repro.errors import TrafficError
from repro.traffic.patterns import TrafficPattern

#: Generation modes: ``compat`` replays the legacy per-item draw
#: sequence bit-for-bit; ``stream`` batches the draws per chunk.
GENERATION_MODES = ("compat", "stream")

#: Items materialised per bulk draw in stream mode.
STREAM_CHUNK = 2048

_WRAP_BEATS = (4, 8, 16)


def _legal_beats(addr: int, beats: int, size_bytes: int, span_end: int) -> int:
    """Clamp *beats* to the 1 KB rule and the address window."""
    room_kb = (KB_BOUNDARY - addr % KB_BOUNDARY) // size_bytes
    room_span = (span_end - addr) // size_bytes
    return max(1, min(beats, room_kb, room_span))


def _check_mode(mode: str) -> None:
    if mode not in GENERATION_MODES:
        raise TrafficError(
            f"unknown generation mode {mode!r}; choose from {GENERATION_MODES}"
        )


def _think_range_for(pattern: TrafficPattern, index: int) -> Tuple[int, int]:
    """The think-time range item *index* draws from (burst-gap aware)."""
    if (
        pattern.burst_gap is not None
        and index > 0
        and index % pattern.burst_gap[0] == 0
    ):
        return pattern.burst_gap[1], pattern.burst_gap[2]
    return pattern.think_range


# -- compat mode: the legacy per-item draw sequence, bit for bit ---------------


def _beat_data(rng: random.Random, beats: int, word_mask: int) -> List[int]:
    """A write burst's data: *beats* 32-bit draws, masked by *word_mask*.

    One ``getrandbits(32 * beats)`` call: CPython fills it from the
    least-significant 32-bit word upward, so word *i* and the RNG state
    afterwards equal those of the *i*-th of *beats* ``getrandbits(32)``
    calls.
    """
    bits = rng.getrandbits(32 * beats)
    return [(bits >> shift) & word_mask for shift in range(0, 32 * beats, 32)]


def _compat_items(
    pattern: TrafficPattern, master_index: int, count: int, seed: int
) -> Iterator[TrafficItem]:
    """Yield the legacy generator's exact item stream, lazily."""
    rng = random.Random(f"{seed}/{pattern.name}/{master_index}")
    # The burst length is drawn as Random.choices(burst_choices,
    # weights) draws it: one random() scaled by the weight total and
    # bisected into the cumulative weights, which are summed once here.
    burst_choices = [beats for beats, _w in pattern.burst_mix]
    cum_weights = list(accumulate(weight for _b, weight in pattern.burst_mix))
    total_weight = cum_weights[-1] + 0.0
    last = len(burst_choices) - 1
    span_end = pattern.base_addr + pattern.addr_span
    next_sequential = pattern.base_addr
    # One beat is one 32-bit draw, masked to the beat size.
    word_mask = ((1 << (8 * pattern.size_bytes)) - 1) & 0xFFFFFFFF
    for index in range(count):
        beats = burst_choices[
            bisect_right(cum_weights, rng.random() * total_weight, 0, last)
        ]
        if rng.random() < pattern.sequential_fraction:
            addr = next_sequential
            if addr + beats * pattern.size_bytes > span_end:
                addr = pattern.base_addr
        else:
            span_words = pattern.addr_span // pattern.size_bytes
            addr = (
                pattern.base_addr
                + rng.randrange(span_words) * pattern.size_bytes
            )
        # Wrapping (cache-line-fill) bursts: the aligned wrap block must
        # lie entirely inside the pattern's window.
        wrapping = False
        if beats in _WRAP_BEATS and pattern.wrap_fraction > 0:
            block = beats * pattern.size_bytes
            block_base = (addr // block) * block
            if (
                block_base >= pattern.base_addr
                and block_base + block <= span_end
                and rng.random() < pattern.wrap_fraction
            ):
                wrapping = True
        if not wrapping:
            beats = _legal_beats(addr, beats, pattern.size_bytes, span_end)
        advance = (
            pattern.stride_bytes
            if pattern.stride_bytes is not None
            else beats * pattern.size_bytes
        )
        next_sequential = addr + advance
        if next_sequential >= span_end:
            next_sequential = pattern.base_addr
        is_read = rng.random() < pattern.read_fraction
        txn = Transaction(
            master=master_index,
            kind=AccessKind.READ if is_read else AccessKind.WRITE,
            addr=addr,
            beats=beats,
            size_bytes=pattern.size_bytes,
            wrapping=wrapping,
            data=[] if is_read else _beat_data(rng, beats, word_mask),
        )
        think = rng.randint(*_think_range_for(pattern, index))
        not_before = None
        absolute_deadline = None
        if pattern.period is not None:
            not_before = index * pattern.period
            if pattern.deadline_offset is not None:
                # Streaming deadlines follow the frame schedule, not the
                # (possibly starved) issue instant.
                absolute_deadline = not_before + pattern.deadline_offset
        yield TrafficItem(
            txn=txn,
            think_cycles=think,
            not_before=not_before,
            deadline_offset=(
                None if absolute_deadline is not None else pattern.deadline_offset
            ),
            absolute_deadline=absolute_deadline,
        )


# -- stream mode: one bulk draw per field per chunk -----------------------------


def _field_seed(
    pattern: TrafficPattern, master_index: int, seed: int, fld: str
) -> int:
    """A stable 64-bit seed for one field's sub-stream.

    Each drawn field (burst lengths, locality flags, think times, data
    words, ...) owns an independent deterministic RNG stream, which is
    what makes the generated sequence invariant under the chunk size:
    a chunk boundary only decides *how many* values a field's stream
    yields per bulk draw, never *which* values.
    """
    key = f"{seed}/{pattern.name}/{master_index}/{fld}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


class _NumpyDraws:
    """Bulk field draws, one ``numpy.random.Generator`` per field."""

    def __init__(self, pattern: TrafficPattern, master_index: int, seed: int) -> None:
        np = _numpy()
        assert np is not None  # caller checked _numpy() already
        self._np = np

        def rng(fld: str):
            return np.random.Generator(
                np.random.PCG64(_field_seed(pattern, master_index, seed, fld))
            )

        self._rng = rng
        self._streams: dict = {}
        weights = np.asarray(
            [w for _b, w in pattern.burst_mix], dtype=np.float64
        )
        self._burst_p = weights / weights.sum()
        self._burst_choices = np.asarray(
            [b for b, _w in pattern.burst_mix], dtype=np.int64
        )

    def _stream(self, fld: str):
        stream = self._streams.get(fld)
        if stream is None:
            stream = self._streams[fld] = self._rng(fld)
        return stream

    def bursts(self, n: int) -> List[int]:
        return self._stream("burst").choice(
            self._burst_choices, size=n, p=self._burst_p
        ).tolist()

    def fractions(self, fld: str, n: int) -> List[float]:
        return self._stream(fld).random(n).tolist()

    def integers(self, fld: str, n: int, lo: int, hi: int) -> List[int]:
        """*n* integers uniform in the inclusive range [lo, hi]."""
        if hi <= lo:
            return [lo] * n
        return self._stream(fld).integers(
            lo, hi + 1, size=n, dtype=self._np.int64
        ).tolist()

    def words(self, n: int) -> List[int]:
        """*n* raw 32-bit data words."""
        return self._stream("data").integers(
            0, 1 << 32, size=n, dtype=self._np.int64
        ).tolist()


class _PurePythonDraws:
    """Bulk field draws batched over per-field ``random.Random`` streams."""

    def __init__(self, pattern: TrafficPattern, master_index: int, seed: int) -> None:
        def rng(fld: str) -> random.Random:
            return random.Random(_field_seed(pattern, master_index, seed, fld))

        self._rng = rng
        self._streams: dict = {}
        self._burst_choices = [b for b, _w in pattern.burst_mix]
        self._burst_weights = [w for _b, w in pattern.burst_mix]

    def _stream(self, fld: str) -> random.Random:
        stream = self._streams.get(fld)
        if stream is None:
            stream = self._streams[fld] = self._rng(fld)
        return stream

    def bursts(self, n: int) -> List[int]:
        return self._stream("burst").choices(
            self._burst_choices, weights=self._burst_weights, k=n
        )

    def fractions(self, fld: str, n: int) -> List[float]:
        rand = self._stream(fld).random
        return [rand() for _ in range(n)]

    def integers(self, fld: str, n: int, lo: int, hi: int) -> List[int]:
        if hi <= lo:
            return [lo] * n
        randint = self._stream(fld).randint
        return [randint(lo, hi) for _ in range(n)]

    def words(self, n: int) -> List[int]:
        bits = self._stream("data").getrandbits
        return [bits(32) for _ in range(n)]


def _stream_items(
    pattern: TrafficPattern,
    master_index: int,
    count: int,
    seed: int,
    chunk: int = STREAM_CHUNK,
) -> Iterator[TrafficItem]:
    """Yield items chunk by chunk, one bulk draw per field per chunk."""
    draws = (
        _NumpyDraws(pattern, master_index, seed)
        if _numpy() is not None
        else _PurePythonDraws(pattern, master_index, seed)
    )
    span_end = pattern.base_addr + pattern.addr_span
    span_words = pattern.addr_span // pattern.size_bytes
    size_bytes = pattern.size_bytes
    data_mask = (1 << (8 * size_bytes)) - 1
    mask32 = data_mask & 0xFFFF_FFFF
    next_sequential = pattern.base_addr
    can_wrap = pattern.wrap_fraction > 0 and any(
        b in _WRAP_BEATS for b, _w in pattern.burst_mix
    )
    produced = 0
    while produced < count:
        n = min(chunk, count - produced)
        beats_arr = draws.bursts(n)
        seq_arr = draws.fractions("seq", n)
        rand_words = draws.integers("addr", n, 0, span_words - 1)
        wrap_arr = draws.fractions("wrap", n) if can_wrap else None
        read_arr = draws.fractions("read", n)
        # Think times batch per range: the common range in one draw and,
        # for bursty patterns, the inter-burst gaps in a second draw.
        think_arr = draws.integers("think", n, *pattern.think_range)
        if pattern.burst_gap is not None:
            per_burst, gap_lo, gap_hi = pattern.burst_gap
            gap_indices = [
                i
                for i in range(n)
                if (produced + i) > 0 and (produced + i) % per_burst == 0
            ]
            gaps = draws.integers("gap", len(gap_indices), gap_lo, gap_hi)
            for i, gap in zip(gap_indices, gaps):
                think_arr[i] = gap
        # Write data: one flat draw sized by the chunk's write beats.
        write_beats = sum(
            b for b, r in zip(beats_arr, read_arr)
            if r >= pattern.read_fraction
        )
        data_words = draws.words(write_beats)
        data_pos = 0

        for i in range(n):
            index = produced + i
            beats = beats_arr[i]
            if seq_arr[i] < pattern.sequential_fraction:
                addr = next_sequential
                if addr + beats * size_bytes > span_end:
                    addr = pattern.base_addr
            else:
                addr = pattern.base_addr + rand_words[i] * size_bytes
            wrapping = False
            if wrap_arr is not None and beats in _WRAP_BEATS:
                block = beats * size_bytes
                block_base = (addr // block) * block
                if (
                    block_base >= pattern.base_addr
                    and block_base + block <= span_end
                    and wrap_arr[i] < pattern.wrap_fraction
                ):
                    wrapping = True
            if not wrapping:
                beats = _legal_beats(addr, beats, size_bytes, span_end)
            advance = (
                pattern.stride_bytes
                if pattern.stride_bytes is not None
                else beats * size_bytes
            )
            next_sequential = addr + advance
            if next_sequential >= span_end:
                next_sequential = pattern.base_addr
            is_read = read_arr[i] < pattern.read_fraction
            if is_read:
                data: List[int] = []
            else:
                # The flat buffer is consumed at the *drawn* burst length
                # so the word sequence is independent of clamping.
                data = [
                    word & mask32
                    for word in data_words[data_pos : data_pos + beats]
                ]
                data_pos += beats_arr[i]
            not_before = None
            absolute_deadline = None
            if pattern.period is not None:
                not_before = index * pattern.period
                if pattern.deadline_offset is not None:
                    absolute_deadline = not_before + pattern.deadline_offset
            yield TrafficItem(
                txn=Transaction(
                    master=master_index,
                    kind=AccessKind.READ if is_read else AccessKind.WRITE,
                    addr=addr,
                    beats=beats,
                    size_bytes=size_bytes,
                    wrapping=wrapping,
                    data=data,
                ),
                think_cycles=think_arr[i],
                not_before=not_before,
                deadline_offset=(
                    None
                    if absolute_deadline is not None
                    else pattern.deadline_offset
                ),
                absolute_deadline=absolute_deadline,
            )
        produced += n


# -- the stream object ----------------------------------------------------------


class TrafficStream:
    """A lazy, re-iterable traffic source for one master.

    Each ``iter()`` restarts the deterministic stream from the seed, so
    the same :class:`TrafficStream` can feed several platform builds
    (every engine replays the identical sequence).  ``len()`` is the
    item count without materialising anything.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        master_index: int,
        count: int,
        seed: int,
        mode: str = "compat",
        chunk: int = STREAM_CHUNK,
    ) -> None:
        if count < 0:
            raise TrafficError(f"negative transaction count {count}")
        _check_mode(mode)
        if chunk < 1:
            raise TrafficError(f"chunk size must be positive, got {chunk}")
        self.pattern = pattern
        self.master_index = master_index
        self.count = count
        self.seed = seed
        self.mode = mode
        self.chunk = chunk

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[TrafficItem]:
        if self.mode == "compat":
            return _compat_items(
                self.pattern, self.master_index, self.count, self.seed
            )
        return _stream_items(
            self.pattern, self.master_index, self.count, self.seed, self.chunk
        )

    def materialise(self) -> List[TrafficItem]:
        """The full item list (eager callers / tests)."""
        return list(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrafficStream({self.pattern.name!r}, master={self.master_index}, "
            f"count={self.count}, seed={self.seed}, mode={self.mode!r})"
        )
