"""Canonical content keys: the hashes the serving cache is built on.

Satellite requirement: ``point_key`` / ``RunRecord.content_key`` must
be *stable* — same key across dict key ordering, ``to_dict`` → JSON →
``from_dict`` round-trips, and serial- vs process-backend execution —
because a key that wobbles would turn every cache lookup into a miss
(or worse, a collision).
"""

import json
from dataclasses import replace

import pytest

import repro.core  # noqa: F401  (anchor package import order)
from repro.canonical import canonical_json, stable_hash
from repro.errors import ConfigError
from repro.exec import RunRecord, SweepRunner, point_key
from repro.system import SystemSpec, paper_topology, sweep
from repro.traffic import single_master_workload, table1_pattern_b


def _scrambled(value):
    """The same JSON document with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {key: _scrambled(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_scrambled(item) for item in value]
    return value


class TestCanonicalJson:
    def test_sorts_keys_recursively(self):
        a = {"b": {"y": 1, "x": 2}, "a": 3}
        b = {"a": 3, "b": {"x": 2, "y": 1}}
        assert canonical_json(a) == canonical_json(b)

    def test_tuples_and_lists_serialise_identically(self):
        assert canonical_json((1, (2, 3))) == canonical_json([1, [2, 3]])

    def test_schema_separates_key_spaces(self):
        payload = {"a": 1}
        assert stable_hash(payload, "kind-1") != stable_hash(payload, "kind-2")

    def test_non_json_values_rejected(self):
        with pytest.raises(ConfigError):
            canonical_json({"x": object()})
        with pytest.raises(ConfigError):
            canonical_json({1: "non-string key"})


class TestPointKeyStability:
    def test_stable_across_dict_ordering(self):
        spec = paper_topology(30)
        reordered = SystemSpec.from_dict(_scrambled(spec.to_dict()))
        assert point_key(spec) == point_key(reordered)

    def test_stable_across_json_round_trip(self):
        spec = paper_topology(30, workload=table1_pattern_b(30))
        wire = json.loads(json.dumps(spec.to_dict()))
        assert point_key(spec) == point_key(SystemSpec.from_dict(wire))

    def test_engine_and_ceiling_participate(self):
        spec = paper_topology(30)
        base = point_key(spec)
        assert point_key(spec, engine="rtl") != base
        assert point_key(spec, max_cycles=500) != base
        assert point_key(spec, max_cycles=500) != point_key(
            spec, max_cycles=501
        )

    def test_workload_and_seed_participate(self):
        spec = paper_topology(30)
        base = point_key(spec)
        assert point_key(spec.with_seed(99)) != base
        assert point_key(spec.with_seed(99)) == point_key(spec.with_seed(99))
        assert point_key(replace(spec, workload=single_master_workload(30))) != base

    def test_invalid_arguments(self):
        spec = paper_topology(30)
        with pytest.raises(ConfigError):
            point_key(spec, engine="warp")
        with pytest.raises(ConfigError):
            point_key(spec, max_cycles=0)


class TestRecordContentKey:
    def _record(self):
        grid = sweep(
            paper_topology(workload=single_master_workload(10)),
            axis="engine",
            values=("tlm",),
        )
        [record] = SweepRunner().run(grid)
        return record

    def test_ignores_wall_time(self):
        record = self._record()
        slower = replace(record, wall_seconds=record.wall_seconds + 5.0)
        assert slower == record
        assert slower.content_key() == record.content_key()

    def test_counters_participate(self):
        record = self._record()
        drifted = replace(record, cycles=record.cycles + 1)
        assert drifted.content_key() != record.content_key()

    def test_stable_across_json_round_trip(self):
        record = self._record()
        rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt.content_key() == record.content_key()

    def test_stable_across_backends(self):
        """The satellite's serial-vs-process clause, stated on keys."""
        grid = sweep(
            paper_topology(workload=single_master_workload(15)),
            axis="write_buffer_depth",
            values=(2, 8),
        )
        serial = SweepRunner(backend="serial").run(grid)
        process = SweepRunner(backend="process").run(grid)
        assert [r.content_key() for r in serial] == [
            r.content_key() for r in process
        ]
