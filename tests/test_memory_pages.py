"""``MemoryModel`` against a plain byte-dict oracle, across 1 KB pages.

The store keeps 1 KB pages, and a burst segment that is one contiguous
block is packed in one call.  These properties drive it with accesses
around page boundaries and several pages apart: single writes and reads of
every size, and ``write_beats``/``read_beats`` over ranges (some straddling a
page boundary), contiguous lists and wrapping lists, with values that
are sometimes out of range.  Every observable — values, operation
counts, the error and the prefix written before it, ``items`` and
``equal_contents`` — must equal the oracle's.
"""

from hypothesis import given, settings, strategies as st

from repro.ddr.memory import MemoryModel
from repro.errors import MemoryError_

PAGE = 1024
#: Page starts the accesses cluster around: neighbours and a far page.
BASES = (0, PAGE, 2 * PAGE, 7 * PAGE)


class ByteOracle:
    """The obvious store: one dict entry per written byte."""

    def __init__(self):
        self.bytes = {}
        self.read_ops = 0
        self.write_ops = 0

    def write(self, addr, size, value):
        for i in range(size):
            self.bytes[addr + i] = (value >> (8 * i)) & 0xFF
        self.write_ops += 1

    def read(self, addr, size):
        self.read_ops += 1
        return sum(self.bytes.get(addr + i, 0) << (8 * i) for i in range(size))


def _bad(addr, size, value):
    return addr < 0 or value < 0 or value >> (8 * size)


def _error(addr, size, value):
    """The error a lone per-beat access of this beat raises."""
    try:
        if value is None:
            MemoryModel().read(addr, size)
        else:
            MemoryModel().write(addr, size, value)
    except MemoryError_ as exc:
        return str(exc)
    return None


@st.composite
def addresses(draw, size):
    """A start near one of BASES, mostly aligned, now and then negative."""
    base = draw(st.sampled_from(BASES))
    addr = base + draw(st.integers(-3, 3)) * size - draw(st.sampled_from((0, 0, 0, 1)))
    if addr < 0 and draw(st.integers(0, 4)):
        addr = -addr
    return addr


@st.composite
def values(draw, size, count):
    good = st.integers(0, (1 << (8 * size)) - 1)
    bad = st.sampled_from((-1, 1 << (8 * size)))
    value = st.one_of(good, good, good, good, st.just(0), bad)
    return draw(st.lists(value, min_size=count, max_size=count))


@st.composite
def bursts(draw):
    """Beat addresses as a range, a contiguous list or a wrapping list."""
    size = draw(st.sampled_from((1, 2, 4, 8)))
    beats = draw(st.integers(1, 16))
    shape = draw(st.sampled_from(("range", "list", "wrap")))
    if shape == "wrap":
        beats = draw(st.sampled_from((4, 8, 16)))
        span = beats * size
        block = draw(st.sampled_from(BASES)) + draw(st.integers(-2, 2)) * span
        block = abs(block)
        first = draw(st.integers(0, beats - 1))
        addrs = [block + ((first + i) % beats) * size for i in range(beats)]
    else:
        start = draw(addresses(size))
        addrs = range(start, start + beats * size, size)
        if shape == "list":
            addrs = list(addrs)
    return addrs, size


@st.composite
def ops(draw):
    """``(name, addrs, size, values)``: one write or read (of any size,
    3 bytes included), a burst write or a burst read."""
    name = draw(st.sampled_from(("write", "read", "write_beats", "read_beats")))
    if name in ("write", "read"):
        size = draw(st.sampled_from((1, 2, 3, 4, 8)))
        vals = draw(values(size, 1)) if name == "write" else None
        return name, draw(addresses(size)), size, vals
    addrs, size = draw(bursts())
    vals = draw(values(size, len(addrs))) if name == "write_beats" else None
    return name, addrs, size, vals


def apply(mem, oracle, op):
    """Run *op* on both stores; the oracle stops where the model must."""
    name, addrs, size, vals = op
    if name == "read":
        try:
            got = mem.read(addrs, size)
        except MemoryError_ as exc:
            assert addrs < 0 and str(exc) == _error(addrs, size, None)
        else:
            assert addrs >= 0 and got == oracle.read(addrs, size)
        return
    if name == "write":
        addrs = [addrs]
    if name == "read_beats":
        bad = next((i for i, addr in enumerate(addrs) if addr < 0), None)
        want = [oracle.read(addr, size) for addr in addrs[:bad]]
        try:
            got = mem.read_beats(addrs, size)
        except MemoryError_ as exc:
            assert bad is not None and str(exc) == _error(addrs[bad], size, None)
        else:
            assert bad is None and got == want
        return
    bad = next((i for i, (a, v) in enumerate(zip(addrs, vals)) if _bad(a, size, v)), None)
    try:
        if name == "write":
            mem.write(addrs[0], size, vals[0])
        else:
            mem.write_beats(addrs, size, vals)
    except MemoryError_ as exc:
        assert bad is not None and str(exc) == _error(addrs[bad], size, vals[bad])
    else:
        assert bad is None
    for addr, value in list(zip(addrs, vals))[: len(vals) if bad is None else bad]:
        oracle.write(addr, size, value)


class TestPagesAgainstByteOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(ops(), max_size=25))
    def test_every_view_matches_the_oracle(self, script):
        mem, oracle = MemoryModel(), ByteOracle()
        for op in script:
            apply(mem, oracle, op)
            assert (mem.read_ops, mem.write_ops, len(list(mem.items()))) == (
                oracle.read_ops,
                oracle.write_ops,
                len(oracle.bytes),
            )
        assert list(mem.items()) == sorted(oracle.bytes.items())
        for base in BASES:
            for addr in range(max(base - 12, 0), base + 12):
                assert mem.read(addr, 1) == oracle.bytes.get(addr, 0)
        # The same image built byte by byte compares equal; zero bytes
        # equal unwritten ones, so only the non-zero bytes are copied.
        copy = MemoryModel()
        for addr, byte in oracle.bytes.items():
            if byte:
                copy.write(addr, 1, byte)
        assert mem.equal_contents(copy) and copy.equal_contents(mem)
        assert mem.equal_contents(MemoryModel()) == (not any(oracle.bytes.values()))

    @settings(max_examples=100, deadline=None)
    @given(
        script=st.lists(ops(), max_size=15),
        poke=st.tuples(st.sampled_from(BASES), st.integers(-8, 8), st.integers(0, 255)),
    )
    def test_one_differing_byte_breaks_equality(self, script, poke):
        mem, oracle = MemoryModel(), ByteOracle()
        for op in script:
            apply(mem, oracle, op)
        other = MemoryModel()
        for addr, byte in oracle.bytes.items():
            other.write(addr, 1, byte)
        addr = max(poke[0] + poke[1], 0)
        other.write(addr, 1, poke[2])
        mine = oracle.bytes.get(addr, 0)
        if mine == poke[2]:
            assert mem.equal_contents(other)
        else:
            assert not mem.equal_contents(other)
            assert not other.equal_contents(mem)

    def test_block_segments_count_every_beat(self):
        mem = MemoryModel()
        mem.write_beats(range(PAGE - 16, PAGE + 16, 4), 4, list(range(8)))
        mem.write_beats([0x800, 0x804, 0x808], 4, [0, 0, 0])
        assert mem.read_beats([0x808, 0x800, 0x804], 4) == [0, 0, 0]
        assert mem.read_beats(range(PAGE - 8, PAGE + 8, 4), 4) == [2, 3, 4, 5]
        assert (mem.write_ops, mem.read_ops) == (11, 7)
        assert len(list(mem.items())) == 44  # written zeros count
