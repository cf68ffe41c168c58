"""Smoke test of the benchmark at reduced size (a few seconds per workload).

Run with ``python3 -m pytest perfbench/smoke.py -q`` from the repository
root.  It checks that every metric named in ``BENCHMARK.json`` is
emitted with its unit, that traced self times add up to the traced wall
time, that a tampered digest counts as failed operations, and that the
benchmark refuses to run without the simulator's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

SMOKE = {"min_rounds": 1, "trace_rounds": 1}


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "0", "--rounds", "1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = _bench("--workload", workload, "--seed", str(workloads.DEFAULT_SEED))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit():
    result = _bench("--workload", "rtl-accuracy", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["metrics"]["kernel.cycles"]["value"] > 0
    assert result["metrics"]["trace.missing_hooks"]["value"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_sum_to_the_traced_wall(workload, tmp_path):
    result = workloads.run(workload, 3, 0.0, True, str(tmp_path / "serve"), sizes=SMOKE)
    assert result["correct"], result["context"].get("problems")
    wall = result["metrics"]["trace.wall_s"]
    assert wall > 0
    assert sum(result["context"]["self_time"].values()) == pytest.approx(wall, rel=1e-9)


def test_tampered_digest_raises_error_rate(tmp_path):
    pinned = workloads.load_pinned()
    honest = workloads.run("tlm-sweep", workloads.DEFAULT_SEED, 0.0, False, str(tmp_path), sizes=SMOKE, pinned=pinned)
    assert honest["failed"] == 0
    tampered = json.loads(json.dumps(pinned))
    tampered["tlm-sweep"]["r0"] = "0" * 16
    result = workloads.run("tlm-sweep", workloads.DEFAULT_SEED, 0.0, False, str(tmp_path), sizes=SMOKE, pinned=tampered)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    # Another seed skips only the digest check.
    other = workloads.run("tlm-sweep", 2, 0.0, False, str(tmp_path), sizes=SMOKE, pinned=tampered)
    assert other["correct"] and other["failed"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tlm-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
