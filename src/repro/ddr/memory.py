"""Backing store shared by every memory model.

A sparse store: only touched 1 KB pages consume memory, so gigabyte
address spaces cost nothing until written.  Both the RTL and TLM DDR
controllers write through to a :class:`MemoryModel`, and the accuracy
harness compares final images with :meth:`equal_contents` to prove
functional equivalence of the two abstraction levels.

Each page, keyed by ``addr >> 10``, is a ``bytearray(1024)`` of
little-endian data (zero where unwritten) and an integer bit mask of
the bytes ever written, which :meth:`items` reads so a written zero
stays distinct from an unwritten byte.  Every access is one slice of
a page (:meth:`_get`/:meth:`_put`), split in two only where an
unaligned access crosses a page.  An AHB burst never crosses a 1 KB
boundary, so a contiguous burst segment of 1/2/4/8-byte beats is one
slice and one ``Struct`` pack or unpack; any other segment goes beat
by beat.  A single 1/2/4/8-byte :meth:`read` or :meth:`write` inside
one page (a written page, for a write) is one ``Struct`` unpack or
pack straight on the page.
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct
from struct import error as StructError
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MemoryError_

_PAGE_BITS = 10
_PAGE = 1 << _PAGE_BITS
_OFFSET = _PAGE - 1
#: ``struct`` codes of the beat sizes a block segment packs.
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
#: One little-endian value of each of those sizes.
_SCALARS = {size: Struct(f"<{code}") for size, code in _CODES.items()}


@lru_cache(maxsize=None)
def _block(size_bytes: int, beats: int) -> Struct:
    """Layout of *beats* adjacent little-endian beats of *size_bytes*."""
    return Struct(f"<{beats}{_CODES[size_bytes]}")


class MemoryModel:
    """Sparse little-endian store of 1 KB pages."""

    def __init__(self, name: str = "mem") -> None:
        self.name = name
        #: ``addr >> 10`` -> ``[data, written]``: the page's kilobyte
        #: and the bit mask of its bytes ever written.
        self._pages: Dict[int, list] = {}
        self.read_ops = 0
        self.write_ops = 0

    # -- page slices ----------------------------------------------------------------

    def _get(self, addr: int, count: int) -> bytes:
        """The *count* data bytes from *addr*; unwritten bytes are zero."""
        off = addr & _OFFSET
        end = off + count
        if end > _PAGE:
            split = _PAGE - off
            return self._get(addr, split) + self._get(addr + split, count - split)
        page = self._pages.get(addr >> _PAGE_BITS)
        return bytes(count) if page is None else page[0][off:end]

    def _put(self, addr: int, raw: bytes) -> None:
        """Store *raw* from *addr* and flag its bytes written."""
        off = addr & _OFFSET
        end = off + len(raw)
        if end > _PAGE:
            split = _PAGE - off
            self._put(addr + split, raw[split:])
            raw, end = raw[:split], _PAGE
        page = self._pages.get(addr >> _PAGE_BITS)
        if page is None:
            page = self._pages[addr >> _PAGE_BITS] = [bytearray(_PAGE), 0]
        page[0][off:end] = raw
        page[1] |= ((1 << (end - off)) - 1) << off

    # -- single accesses ------------------------------------------------------------

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
        self.write_ops += 1
        off = addr & _OFFSET
        page = self._pages.get(addr >> _PAGE_BITS)
        layout = _SCALARS.get(size_bytes)
        if page is None or layout is None or off + size_bytes > _PAGE:
            self._put(addr, value.to_bytes(size_bytes, "little"))
            return
        # A 1/2/4/8-byte value inside a page already held: one pack.
        layout.pack_into(page[0], off, value)
        page[1] |= ((1 << size_bytes) - 1) << off

    def read(self, addr: int, size_bytes: int) -> int:
        """Load a little-endian value; unwritten bytes read as zero."""
        if addr < 0:
            raise MemoryError_(f"{self.name}: negative address {addr:#x}")
        self.read_ops += 1
        off = addr & _OFFSET
        layout = _SCALARS.get(size_bytes)
        if layout is None or off + size_bytes > _PAGE:
            return int.from_bytes(self._get(addr, size_bytes), "little")
        # A 1/2/4/8-byte value inside one page: one unpack, or zero.
        page = self._pages.get(addr >> _PAGE_BITS)
        return 0 if page is None else layout.unpack_from(page[0], off)[0]

    # -- burst segments -------------------------------------------------------------

    @staticmethod
    def _layout(addrs: Sequence[int], size_bytes: int) -> Optional[Struct]:
        """The packing of *addrs* when they are one block, else ``None``.

        A block is adjacent beats of 1, 2, 4 or 8 bytes from a
        non-negative start: a ``range`` or list equal to ``range(start,
        ..., size_bytes)`` (a wrapping list is not).
        """
        if type(addrs) is range:
            if addrs.step != size_bytes or not addrs or addrs.start < 0:
                return None
        elif not addrs or addrs[0] < 0 or list(addrs) != list(
            range(addrs[0], addrs[0] + len(addrs) * size_bytes, size_bytes)
        ):
            return None
        return _block(size_bytes, len(addrs)) if size_bytes in _CODES else None

    def read_beats(self, addrs: Sequence[int], size_bytes: int) -> List[int]:
        """Load one value per beat address — a burst segment in one call.

        Semantics (values, zero-for-unwritten, ``read_ops`` accounting)
        are identical to calling :meth:`read` per beat; a block segment
        is one ``unpack`` of one page slice.
        """
        layout = self._layout(addrs, size_bytes)
        if layout is None:
            return [self.read(addr, size_bytes) for addr in addrs]
        self.read_ops += len(addrs)
        start = addrs[0]
        off = start & _OFFSET
        if off + layout.size > _PAGE:
            return list(layout.unpack(self._get(start, layout.size)))
        page = self._pages.get(start >> _PAGE_BITS)
        if page is None:
            return [0] * len(addrs)
        return list(layout.unpack_from(page[0], off))

    def write_beats(
        self, addrs: Sequence[int], size_bytes: int, values: Sequence[int]
    ) -> None:
        """Store one value per beat address — a burst segment in one call.

        Mirrors per-beat :meth:`write` exactly (validation, written
        bytes, ``write_ops``); a block segment of in-range values is one
        ``pack`` into one page slice.  Any other segment goes beat by
        beat, so a bad value raises after the same written prefix.
        *values* must hold one value per address.
        """
        beats = len(addrs)
        if len(values) != beats:
            raise MemoryError_(
                f"{self.name}: {len(values)} values for {beats} beat addresses"
            )
        layout = self._layout(addrs, size_bytes)
        if layout is not None:
            try:
                raw = layout.pack(*values)
            except StructError:  # a bad value: the per-beat path names it
                pass
            else:
                self._put(addrs[0], raw)
                self.write_ops += beats
                return
        for addr, value in zip(addrs, values):
            self.write(addr, size_bytes, value)

    # -- whole-image views ----------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate written ``(address, byte)`` pairs in address order."""
        for index in sorted(self._pages):
            data, written = self._pages[index]
            base = index << _PAGE_BITS
            flags = f"{written:b}"[::-1]  # flags[i] is byte i's bit
            off = flags.find("1")
            while off >= 0:
                yield base + off, data[off]
                off = flags.find("1", off + 1)

    def _data_pages(self, other: "MemoryModel") -> Iterator[Tuple[int, bytes, bytes]]:
        """``(index, mine, theirs)`` data for every page either store holds.

        A page one store lacks reads as zeros, so zero equals unwritten.
        """
        for index in sorted(self._pages.keys() | other._pages.keys()):
            base = index << _PAGE_BITS
            yield index, self._get(base, _PAGE), other._get(base, _PAGE)

    def equal_contents(self, other: "MemoryModel") -> bool:
        """True when both stores hold identical images.

        Zero bytes equal unwritten bytes, matching read semantics.
        """
        return all(a == b for _index, a, b in self._data_pages(other))
