"""The benchmark's pinned record digests, checked in tier-1.

``perfbench/digests.json`` pins the ``RunRecord.content_key`` digest of
each of the first ``PINNED_ROUNDS`` rounds of every workload at
``DEFAULT_SEED``; a timed benchmark run counts a moved digest as a
failed operation.  This test runs those rounds of the two sweep
workloads through ``perfbench/workloads.py`` itself (imported, never
modified), so a change that moves a bench record fails here too, not
only under ``make bench``.  The serve workload runs its pinned rounds
against an in-process server on a loopback socket, which also checks
that every warm replay equals its cold records and that each point is
classified ``run`` cold and ``store`` warm.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["tlm-sweep", "rtl-accuracy"])
def test_pinned_rounds_match_the_committed_digests(name, tmp_path):
    pinned = workloads.load_pinned()
    seed = workloads.DEFAULT_SEED
    workload = workloads.make_workload(name, seed, workloads.SIZES[name], str(tmp_path))
    out = workloads.Outcome()
    try:
        for index in range(workloads.PINNED_ROUNDS):
            workload.run_round(out, index, None)
    finally:
        workload.close()
    produced = workloads.check_digests(name, seed, out, pinned)
    assert out.failed == 0, out.problems
    assert produced == pinned[name]


def test_serve_pinned_rounds_match_the_committed_digests(tmp_path):
    name = "serve-closed-loop"
    pinned = workloads.load_pinned()
    seed = workloads.DEFAULT_SEED
    workload = workloads.make_workload(name, seed, workloads.SIZES[name], str(tmp_path / "serve"))
    workload.start_server()
    try:
        out = workload.measure(0.0, workloads.PINNED_ROUNDS)
    finally:
        workload.close()
    produced = workloads.check_digests(name, seed, out, pinned)
    assert out.failed == 0, out.problems
    assert produced == pinned[name]
