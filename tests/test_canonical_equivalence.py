"""``canonical_value``'s exact-type fast path against the generic walk.

Plain ``dict``/``list``/``tuple`` values and exact scalars skip the ABC
checks in :func:`repro.canonical.canonical_value`; everything else
falls through to them.  The generic walk is kept here as the oracle:
for every value, the canonical text, the digest and any
:class:`ConfigError` message must be the same as the walk gives.
"""

import enum
import hashlib
import json
from collections import OrderedDict
from types import MappingProxyType
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

import repro.core  # noqa: F401  (anchor package import order)
from repro.canonical import KEY_HEX_CHARS, canonical_json, stable_hash
from repro.errors import ConfigError
from repro.exec.records import POINT_KEY_SCHEMA
from repro.system import paper_topology
from repro.traffic import table1_pattern_b


def _generic_value(value):
    """The walk as it stood before the fast path: ABC checks only."""
    if isinstance(value, Mapping):
        for key in value:
            if not isinstance(key, str):
                raise ConfigError(
                    f"canonical hashing needs string keys, got {key!r}"
                )
        return {
            key: _generic_value(item) for key, item in sorted(value.items())
        }
    if isinstance(value, (list, tuple)):
        return [_generic_value(item) for item in value]
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return [_generic_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(
        f"value {value!r} of type {type(value).__name__} is not "
        f"JSON-expressible; canonical hashing would not be stable"
    )


def _generic_json(value):
    return json.dumps(
        _generic_value(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def _generic_hash(value, schema):
    text = f"{schema}\n{_generic_json(value)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:KEY_HEX_CHARS]


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Colour(str, enum.Enum):
    RED = "red"


class _Frozen(Mapping):
    """A custom read-only mapping (not a dict subclass)."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class _Row(Sequence):
    """A custom sequence (not a list or tuple)."""

    def __init__(self, items):
        self._items = list(items)

    def __getitem__(self, index):
        return self._items[index]

    def __len__(self):
        return len(self._items)


def _assert_same(value):
    assert canonical_json(value) == _generic_json(value)
    assert stable_hash(value, "kind-test-1") == _generic_hash(
        value, "kind-test-1"
    )


AGREEING = {
    "nested-plain": {
        "b": [1, (2.5, None), {"z": True, "a": [False, "x"]}],
        "a": ({"k": ()}, []),
        "é": "ünïcode",
    },
    "mapping-proxy": MappingProxyType({"b": 1, "a": [MappingProxyType({})]}),
    "ordered-dict": OrderedDict([("z", 1), ("a", OrderedDict(y=2, b=3))]),
    "custom-mapping": _Frozen({"b": _Frozen({"y": 1}), "a": 2}),
    "custom-sequence": _Row([1, _Row(["x", None]), {"k": _Row([])}]),
    "plain-in-custom": _Frozen({"a": {"c": [1, 2], "b": (3,)}}),
    "int-enum": {"level": _Level.HIGH, "levels": [_Level.LOW, 7]},
    "str-enum-key": {_Colour.RED: 1, "blue": _Colour.RED},
    "bool-and-int": [True, 1, False, 0, {"t": True}],
    "none": None,
    "floats": [0.1, -0.0, 1e300, 2.0, {"f": 3.25}],
    "scalars": [0, "", "s", 10**30],
    "empty": {},
}


@pytest.mark.parametrize("value", AGREEING.values(), ids=AGREEING.keys())
def test_text_and_digest_match_the_generic_walk(value):
    _assert_same(value)


def test_point_key_payload_matches_the_generic_walk():
    spec = paper_topology(30, workload=table1_pattern_b(30))
    payload = {"spec": spec.to_dict(), "engine": "tlm", "max_cycles": None}
    assert stable_hash(payload, POINT_KEY_SCHEMA) == _generic_hash(
        payload, POINT_KEY_SCHEMA
    )


def _json_trees():
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False)
        | st.text(max_size=4)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4),
        max_leaves=20,
    )


@settings(max_examples=200, deadline=None)
@given(_json_trees())
def test_random_plain_trees_match_the_generic_walk(value):
    _assert_same(value)


FAILING = {
    "int-key-in-dict": {1: "x"},
    "late-int-key-in-dict": {"a": 1, 2: "b"},
    "int-key-in-mapping": MappingProxyType({"a": 1, 3: "c"}),
    "enum-key-in-dict": {_Level.LOW: 1},
    "set": {"a": {1, 2}},
    "bytes": [b"raw"],
    "object": {"a": [object()]},
    "bad-value-behind-good-keys": {"a": 1, "b": {"c": frozenset()}},
}


@pytest.mark.parametrize("value", FAILING.values(), ids=FAILING.keys())
def test_errors_match_the_generic_walk(value):
    with pytest.raises(ConfigError) as expected:
        _generic_json(value)
    with pytest.raises(ConfigError) as got:
        canonical_json(value)
    assert str(got.value) == str(expected.value)
    with pytest.raises(ConfigError) as got:
        stable_hash(value, "kind-test-1")
    assert str(got.value) == str(expected.value)
