"""Pinned outcomes of the ``plain`` (unextended AMBA 2.0) level.

Each row fixes one plain run's counters and a digest of its observer
stream, so any change to how the baseline is elaborated or scheduled
must reproduce the same cycles, transfers and faults.  The Fuzzer rows
carry ERROR/RETRY plans.  Regenerate the table (only for an intended
timing change) with ``PYTHONPATH=src python tests/test_plain_pin.py``.
"""

import hashlib

import pytest

from repro.fuzz import Fuzzer
from repro.system import PlatformBuilder
from repro.system.scenarios import paper_topology, scenario
from repro.traffic.workloads import (
    saturating_workload,
    table1_pattern_a,
    table1_pattern_b,
    table1_pattern_c,
    write_heavy_workload,
)


def _specs():
    specs = {
        "pattern-a": paper_topology(workload=table1_pattern_a(120)),
        "pattern-b": paper_topology(workload=table1_pattern_b(120)),
        "pattern-c": paper_topology(workload=table1_pattern_c(120)),
        "saturating": paper_topology(workload=saturating_workload(40)),
        "write-heavy": paper_topology(workload=write_heavy_workload(120)),
        "multi-slave-soc": scenario("multi-slave-soc", transactions=80),
        "mpeg-bursty": scenario("mpeg-bursty", transactions=60),
    }
    fuzzer = Fuzzer()
    for seed in range(40):
        specs[f"fuzz-{seed}"] = fuzzer.scenario(seed)
    return specs


SPECS = _specs()


def measure(spec):
    """``(cycles, txns, bytes, busy, per_master, errors, retries, digest)``."""
    platform = PlatformBuilder(spec).build("plain")
    stream = []
    platform.attach(
        lambda txn, grant, start, finish: stream.append(
            (txn.master, txn.addr, grant, start, finish)
        )
    )
    result = platform.run()
    digest = hashlib.sha256(repr(stream).encode()).hexdigest()[:16]
    return (
        result.cycles,
        result.transactions,
        result.bytes_transferred,
        result.busy_cycles,
        tuple(result.per_master_transactions),
        result.error_responses,
        result.retry_responses,
        digest,
    )


PINNED = {
    "fuzz-0": (223, 12, 140, 167, (5, 7), 0, 2, 'e29ec3813767f5bc'),
    "fuzz-1": (237, 9, 328, 117, (10,), 1, 1, '6dbe3aac97863a6f'),
    "fuzz-10": (356, 24, 248, 318, (10, 8, 6), 0, 0, '3f835b4ba22e3c49'),
    "fuzz-11": (281, 10, 137, 102, (5, 5), 0, 0, 'e5b41d335829f33a'),
    "fuzz-12": (323, 9, 288, 166, (6, 6), 3, 1, 'd8b368a39da10356'),
    "fuzz-13": (159, 11, 138, 112, (4, 7), 0, 0, 'fd5ca316db14969b'),
    "fuzz-14": (144, 4, 40, 25, (4,), 0, 0, '2e3d244ac47e7887'),
    "fuzz-15": (474, 8, 88, 113, (8,), 0, 3, 'ff29d9741c97faf6'),
    "fuzz-16": (312, 11, 134, 195, (6, 7), 2, 6, '231a6b9d06bfc417'),
    "fuzz-17": (295, 14, 493, 244, (7, 5, 4), 2, 4, '4d6e6f780ba88a48'),
    "fuzz-18": (459, 3, 17, 30, (7,), 4, 3, '1ef389f224061851'),
    "fuzz-19": (382, 17, 243, 254, (9, 6, 9), 7, 11, 'ab352943714932c9'),
    "fuzz-2": (52, 3, 36, 47, (3,), 0, 0, '5e45dc28389f685b'),
    "fuzz-20": (293, 17, 160, 173, (3, 8, 6), 0, 3, '61e20b74614fa549'),
    "fuzz-21": (79, 3, 6, 27, (3,), 0, 0, 'c4ce5401a57f3b5a'),
    "fuzz-22": (167, 5, 32, 56, (5,), 0, 0, '69ea4b0b521c08ed'),
    "fuzz-23": (335, 14, 188, 155, (6, 8), 0, 0, '91842e8981f94def'),
    "fuzz-24": (439, 20, 386, 257, (10, 7, 3), 0, 0, 'ad14747401bb4c32'),
    "fuzz-25": (178, 8, 62, 68, (4, 4), 0, 0, 'f9119ea52347ba2c'),
    "fuzz-26": (169, 10, 69, 74, (5, 5, 4), 4, 2, 'dfce0b3862bab377'),
    "fuzz-27": (407, 23, 604, 371, (6, 9, 8), 0, 0, '55e019e418af8ece'),
    "fuzz-28": (30, 3, 36, 18, (6,), 3, 1, 'bed3814158d8e2e4'),
    "fuzz-29": (442, 24, 314, 351, (10, 6, 9), 1, 13, '4b26ee14e10ab420'),
    "fuzz-3": (189, 4, 64, 35, (6,), 2, 1, 'c7477a9c9fc7cf42'),
    "fuzz-30": (272, 18, 396, 249, (5, 9, 4), 0, 0, '06bbe8a2ad17c625'),
    "fuzz-31": (55, 4, 64, 45, (5,), 1, 1, 'a1c0e94d9f538fac'),
    "fuzz-32": (64, 7, 19, 48, (8,), 1, 2, 'b01957a6d66be284'),
    "fuzz-33": (255, 25, 206, 230, (8, 10, 7), 0, 0, 'a5f68881f4dd3cd5'),
    "fuzz-34": (312, 20, 358, 265, (8, 7, 6), 1, 8, '30b65ea41d0d9ff7'),
    "fuzz-35": (159, 11, 236, 133, (3, 3, 5), 0, 5, 'c5cf700761332a08'),
    "fuzz-36": (282, 13, 216, 189, (7, 6), 0, 6, '223a3e618fb13077'),
    "fuzz-37": (436, 28, 704, 407, (10, 10, 8), 0, 0, 'da3852182a31fd6d'),
    "fuzz-38": (402, 15, 298, 281, (8, 9, 3), 5, 5, '350637759ea8544b'),
    "fuzz-39": (148, 2, 18, 18, (3,), 1, 0, 'aeed5eb884673053'),
    "fuzz-4": (164, 2, 64, 42, (3,), 1, 1, '1fe0a0c58394b42c'),
    "fuzz-5": (196, 9, 148, 119, (3, 3, 5), 2, 0, '98dfa40d782e4f9c'),
    "fuzz-6": (266, 17, 350, 219, (6, 7, 4), 0, 0, 'd5e627bc89637bc5'),
    "fuzz-7": (131, 6, 20, 58, (3, 3), 0, 1, 'c5a34c6dcb36f196'),
    "fuzz-8": (54, 6, 54, 42, (6,), 0, 2, 'a33323a9a99c6e18'),
    "fuzz-9": (178, 4, 256, 79, (8, 5), 9, 6, '0c4c02641fc753f9'),
    "mpeg-bursty": (3731, 240, 7184, 3300, (60, 60, 60, 60), 0, 0, '3f5dd2e441c17aa7'),
    "multi-slave-soc": (4888, 320, 6492, 3127, (80, 80, 80, 80), 0, 0, 'fc85f65c1d5d77e1'),
    "pattern-a": (8343, 480, 19828, 7716, (120, 120, 120, 120), 0, 0, '225a405f7ee955e3'),
    "pattern-b": (5811, 480, 4952, 5038, (120, 120, 120, 120), 0, 0, 'b8cf04f9bd2d3722'),
    "pattern-c": (47609, 480, 12720, 6212, (120, 120, 120, 120), 0, 0, '397d875ee9c46911'),
    "saturating": (12840, 640, 38796, 12064, (200, 200, 200, 40), 0, 0, 'a1245e288eab46b0'),
    "write-heavy": (6342, 480, 10760, 5779, (120, 120, 120, 120), 0, 0, '0c0a48d59a942a59'),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_plain_run_is_pinned(name):
    assert measure(SPECS[name]) == PINNED[name]


if __name__ == "__main__":
    for name in sorted(SPECS):
        print(f'    "{name}": {measure(SPECS[name])!r},')
