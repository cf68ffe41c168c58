"""Every level's records are pinned by one committed digest.

A small fixed set of points runs at ``tlm``, ``tlm-threaded``, ``plain``
and ``rtl``; each run's deterministic fields (counters, per-master
completions and the observer stream) are folded into one digest under
the point-key tag.  The digest lives next to
:data:`~repro.exec.records.POINT_KEY_SCHEMA`: a change that moves one
cycle at any level fails here until the tag is bumped — so stored
records keyed under the old tag stop replaying — and the fingerprint is
re-recorded with ``PYTHONPATH=src python tests/test_record_fingerprint.py``.
"""

import hashlib

import pytest

from repro.exec.records import POINT_KEY_FINGERPRINT, POINT_KEY_SCHEMA
from repro.fuzz import Fuzzer
from repro.system import PlatformBuilder
from repro.system.scenarios import paper_topology
from repro.system.spec import LEVELS
from repro.traffic.workloads import (
    table1_pattern_a,
    table1_pattern_b,
    table1_pattern_c,
    write_heavy_workload,
)

#: fuzz-38 carries ERROR and RETRY plans and absorbs writes at TLM and RTL.
FUZZ_SEED = 38


def _specs():
    return {
        "pattern-a": paper_topology(workload=table1_pattern_a(60)),
        "pattern-b": paper_topology(workload=table1_pattern_b(60)),
        "pattern-c": paper_topology(workload=table1_pattern_c(60)),
        "write-heavy": paper_topology(workload=write_heavy_workload(60)),
        f"fuzz-{FUZZ_SEED}": Fuzzer().scenario(FUZZ_SEED),
    }


def fingerprint_rows():
    """``(point, level, fields)`` for every pinned run, in a fixed order."""
    rows = []
    for name, spec in sorted(_specs().items()):
        for level in LEVELS:
            platform = PlatformBuilder(spec).build(level)
            stream = []
            platform.attach(
                lambda txn, grant, start, finish: stream.append(
                    (txn.master, txn.addr, grant, start, finish)
                )
            )
            result = platform.run()
            rows.append(
                (
                    name,
                    level,
                    (
                        result.cycles,
                        result.transactions,
                        result.bytes_transferred,
                        result.busy_cycles,
                        tuple(result.per_master_transactions),
                        result.absorbed_writes,
                        result.drained_writes,
                        result.error_responses,
                        result.retry_responses,
                        result.rt_deadline_hits,
                        result.rt_deadline_misses,
                        tuple(stream),
                    ),
                )
            )
    return rows


def fingerprint(rows) -> str:
    payload = repr((POINT_KEY_SCHEMA, rows)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@pytest.fixture(scope="module")
def rows():
    return fingerprint_rows()


def test_pinned_points_cover_every_level_and_both_fault_kinds(rows):
    assert {level for _name, level, _fields in rows} == set(LEVELS)
    fuzz = [f for name, _level, f in rows if name == f"fuzz-{FUZZ_SEED}"]
    assert all(f[7] > 0 and f[8] > 0 for f in fuzz)  # ERROR and RETRY
    assert any(f[5] > 0 for _n, level, f in rows if level == "rtl")


def test_records_match_the_committed_fingerprint(rows):
    got = fingerprint(rows)
    assert got == POINT_KEY_FINGERPRINT, (
        f"cycles moved: bump the point-key tag and re-record the fingerprint "
        f"(got {got}, committed {POINT_KEY_FINGERPRINT})"
    )


if __name__ == "__main__":
    print(fingerprint(fingerprint_rows()))
