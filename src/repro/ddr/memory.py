"""Backing store shared by every memory model.

A sparse store: only written locations consume memory, so gigabyte
address spaces cost nothing until touched.  Both the RTL and TLM DDR
controllers write through to a :class:`MemoryModel`, and the accuracy
harness compares final images with :meth:`equal_contents` to prove
functional equivalence of the two abstraction levels.

The hot path is word-granular: a 32-bit bus moves aligned 4-byte beats,
so those hit a word-keyed dict (one dict operation per beat instead of
four).  Unaligned, sub-word and wide accesses fall back to a
byte-granular dict; the two stores never overlap — a byte write spills
any covering word into bytes first, a word write evicts any covered
bytes — so reads merge them without ambiguity and observable semantics
(little-endian values, zero-for-unwritten, touched-byte accounting)
match the original byte-only store exactly.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MemoryError_

#: Fast-path access width in bytes (one 32-bit bus beat).
_WORD = 4


class MemoryModel:
    """Sparse little-endian store with a word-granular fast path."""

    def __init__(self, name: str = "mem") -> None:
        self.name = name
        #: Aligned 4-byte values keyed by ``addr // 4``.
        self._words: Dict[int, int] = {}
        #: Byte fallback for unaligned/sub-word/wide residue.
        self._bytes: Dict[int, int] = {}
        self.read_ops = 0
        self.write_ops = 0

    def write(self, addr: int, size_bytes: int, value: int) -> None:
        """Store *value* (little-endian) at *addr*."""
        if addr < 0:
            raise MemoryError_(f"{self.name}: negative address {addr:#x}")
        if value < 0:
            raise MemoryError_(f"{self.name}: negative data {value}")
        if value >> (8 * size_bytes):
            raise MemoryError_(
                f"{self.name}: value {value:#x} wider than {size_bytes} bytes"
            )
        if size_bytes == _WORD and addr & 3 == 0:
            self._words[addr >> 2] = value
            if self._bytes:  # evict any byte residue this word covers
                pop = self._bytes.pop
                for i in range(_WORD):
                    pop(addr + i, None)
        else:
            self._spill_words(addr, size_bytes)
            store = self._bytes
            for i in range(size_bytes):
                store[addr + i] = (value >> (8 * i)) & 0xFF
        self.write_ops += 1

    def read(self, addr: int, size_bytes: int) -> int:
        """Load a little-endian value; unwritten bytes read as zero."""
        if addr < 0:
            raise MemoryError_(f"{self.name}: negative address {addr:#x}")
        self.read_ops += 1
        words = self._words
        store = self._bytes
        if (addr + size_bytes - 1) >> 2 == addr >> 2:
            # Access contained in one word: the spill/evict discipline
            # keeps the stores disjoint per word, so exactly one of the
            # two holds this range — one word probe, byte fallback.
            word = words.get(addr >> 2)
            if word is not None:
                return (word >> (8 * (addr & 3))) & ((1 << (8 * size_bytes)) - 1)
            if not store:
                return 0
            value = 0
            for i in range(size_bytes):
                value |= store.get(addr + i, 0) << (8 * i)
            return value
        # Unaligned or wide access spanning words: merge both stores.
        value = 0
        for i in range(size_bytes):
            byte_addr = addr + i
            word = words.get(byte_addr >> 2)
            if word is not None:
                value |= ((word >> (8 * (byte_addr & 3))) & 0xFF) << (8 * i)
            else:
                value |= store.get(byte_addr, 0) << (8 * i)
        return value

    def _spill_words(self, addr: int, size_bytes: int) -> None:
        """Explode words overlapping ``[addr, addr+size)`` into bytes."""
        words = self._words
        if not words:
            return
        store = self._bytes
        for word_index in range(addr >> 2, ((addr + size_bytes - 1) >> 2) + 1):
            word = words.pop(word_index, None)
            if word is not None:
                base = word_index << 2
                for i in range(_WORD):
                    store[base + i] = (word >> (8 * i)) & 0xFF

    # -- burst-segment fast paths ----------------------------------------------

    def _word_keys(
        self, addrs: Sequence[int], size_bytes: int
    ) -> Optional[Sequence[int]]:
        """Word indices of *addrs* when the burst can bypass per-beat calls.

        That is an aligned-word burst (every address non-negative and
        4-byte aligned) over a clean byte store; ``None`` sends the
        caller down the per-beat path.  A ``range`` burst is checked from
        its start and step alone and maps to a ``range`` of indices.
        """
        if size_bytes != _WORD or self._bytes:
            return None
        if type(addrs) is range:
            start, step = addrs.start, addrs.step
            if start < 0 or step <= 0 or (start | step) & 3:
                return None
            return range(start >> 2, (addrs.stop + 3) >> 2, step >> 2)
        for addr in addrs:
            if addr < 0 or addr & 3:
                return None
        return [addr >> 2 for addr in addrs]

    def read_beats(self, addrs: Sequence[int], size_bytes: int) -> List[int]:
        """Load one value per beat address — a burst segment in one call.

        Semantics (values, zero-for-unwritten, ``read_ops`` accounting)
        are identical to calling :meth:`read` per beat; an aligned-word
        burst over a clean byte store is one ``map`` over the word dict,
        which is how both DDR controllers move a read segment.
        """
        keys = self._word_keys(addrs, size_bytes)
        if keys is None:
            return [self.read(addr, size_bytes) for addr in addrs]
        values = list(map(self._words.get, keys, repeat(0)))
        self.read_ops += len(values)
        return values

    def write_beats(
        self, addrs: Sequence[int], size_bytes: int, values: Sequence[int]
    ) -> None:
        """Store one value per beat address — a burst segment in one call.

        Mirrors per-beat :meth:`write` exactly (validation, byte-residue
        eviction, ``write_ops``); an aligned-word burst of in-range
        values over a clean byte store is one ``dict.update``.  Any
        other burst goes beat by beat, so a bad value raises after the
        same written prefix.  *values* must hold one value per address.
        """
        if len(values) != len(addrs):
            raise MemoryError_(
                f"{self.name}: {len(values)} values for {len(addrs)} beat addresses"
            )
        keys = self._word_keys(addrs, size_bytes)
        if keys is not None and (
            not values or (min(values) >= 0 and not max(values) >> 32)
        ):
            self._words.update(zip(keys, values))
            self.write_ops += len(values)
            return
        for addr, value in zip(addrs, values):
            self.write(addr, size_bytes, value)

    # -- whole-image views ------------------------------------------------------

    def _byte_image(self) -> Dict[int, int]:
        """Every stored byte as one flat ``{addr: byte}`` mapping."""
        image = dict(self._bytes)
        for word_index, word in self._words.items():
            base = word_index << 2
            for i in range(_WORD):
                image[base + i] = (word >> (8 * i)) & 0xFF
        return image

    def touched_bytes(self) -> int:
        """Number of distinct bytes ever written."""
        return len(self._bytes) + _WORD * len(self._words)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(address, byte)`` pairs in address order."""
        return iter(sorted(self._byte_image().items()))

    def equal_contents(self, other: "MemoryModel") -> bool:
        """True when both stores hold identical non-zero images.

        Zero bytes equal unwritten bytes, matching read semantics — and
        making the comparison independent of how each store shards its
        content between words and bytes.
        """
        mine, theirs = self._byte_image(), other._byte_image()
        keys = set(mine) | set(theirs)
        return all(mine.get(k, 0) == theirs.get(k, 0) for k in keys)

    def first_difference(self, other: "MemoryModel") -> Tuple[int, int, int]:
        """First (addr, mine, theirs) mismatch; raises if images match."""
        mine, theirs = self._byte_image(), other._byte_image()
        for k in sorted(set(mine) | set(theirs)):
            a, b = mine.get(k, 0), theirs.get(k, 0)
            if a != b:
                return k, a, b
        raise MemoryError_("memory images are identical")
