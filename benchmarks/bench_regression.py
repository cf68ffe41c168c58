"""Speed gate and ledger over the repository benchmark (``perfbench``).

Usage (see also ``make bench`` / ``make bench-baseline``)::

    python -m benchmarks.bench_regression
        Run every workload once at seed 1 (the seed whose record digests
        perfbench pins) and exit 1 if a run is incorrect (perfbench
        counts any failed operation as incorrect) or an end-to-end
        metric is worse than the ledger median by more than its bound.
        A note follows the verdict when the ledger was measured on
        another host.

    python -m benchmarks.bench_regression --write-baseline
        Run every workload three times (seeds 1-3) and, if every run is
        correct, record each end-to-end metric's median and quartiles as
        ``BENCH_speed.json``'s ``current`` block.  The outgoing block is
        appended to ``history``.

The benchmark command, workloads, run length and each metric's
direction and bound all come from ``BENCHMARK.json``.  Exit status: 0
ok, 1 regression or incorrect run, 2 no perfbench ledger to gate on.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER = REPO_ROOT / "BENCH_speed.json"
SCHEMA = 2
BASELINE_REPEAT = 3


def run_perfbench(bench: dict, workload: str, *args: str) -> dict:
    """One perfbench invocation; echoes its report, returns its JSON line."""
    cmd = [*bench["command"], "--workload", workload, "--seconds", str(bench["run_seconds"]), *args]
    with subprocess.Popen(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True) as proc:
        last = ""
        for line in proc.stdout:
            sys.stdout.write(line)
            last = line
    if proc.returncode != 0:
        raise SystemExit(f"perfbench exited with status {proc.returncode}")
    return json.loads(last)


def gate(results: dict, ledger: dict, bench: dict) -> list:
    """``(ok, line)`` per check of fresh single-run results against the ledger."""
    rows = []
    for workload, result in results.items():
        verdict = "correct" if result["correct"] else "INCORRECT"
        rows.append((
            result["correct"],
            f"{workload}: verdict {verdict} ({result['failed']} of {result['attempted']} operations failed)",
        ))
        recorded = ledger["current"]["workloads"][workload]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            value, median = result["metrics"][name]["value"], recorded[name]["median"]
            change = (value - median) / median
            worse = -change if metric["better"] == "higher" else change
            rows.append((
                worse <= bound,
                f"{workload}: {name} {value:.5g} vs median {median:.5g} "
                f"({change:+.1%}, {metric['better']} is better, bound {bound:.0%})",
            ))
    return rows


def host() -> dict:
    """Where a ledger was measured: host-scaled figures compare only on one host."""
    return {"node": platform.node(), "python": platform.python_version()}


def write_baseline(bench: dict) -> int:
    workloads = {}
    for spec in bench["workloads"]:
        summary = run_perfbench(bench, spec["name"], "--seed", "1", "--repeat", str(BASELINE_REPEAT))
        if not summary["correct"]:
            print(f"{spec['name']}: a run was INCORRECT; ledger not written", file=sys.stderr)
            return 1
        workloads[spec["name"]] = {
            name: {key: summary["metrics"][name][key] for key in ("median", "q1", "q3", "unit")}
            for name in (metric["name"] for metric in bench["end_to_end"])
        }
    previous = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    history = previous["history"] + [previous["current"]] if previous.get("schema") == SCHEMA else []
    current = {
        "host": host(),
        "measured_at": datetime.datetime.now().isoformat(timespec="seconds"),
        "runs": BASELINE_REPEAT,
        "workloads": workloads,
    }
    ledger = {"schema": SCHEMA, "current": current, "history": history}
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"ledger written to {LEDGER}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write-baseline", action="store_true", help="re-record the ledger instead of gating")
    args = parser.parse_args(argv)
    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    if args.write_baseline:
        return write_baseline(bench)
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    if ledger.get("schema") != SCHEMA:
        print(f"no perfbench ledger at {LEDGER}; run `make bench-baseline` first", file=sys.stderr)
        return 2
    results = {spec["name"]: run_perfbench(bench, spec["name"], "--seed", "1") for spec in bench["workloads"]}
    rows = gate(results, ledger, bench)
    for ok, line in rows:
        print(f"{'ok  ' if ok else 'FAIL'} {line}")
    failures = sum(not ok for ok, _ in rows)
    print(f"{failures} of {len(rows)} checks failed" if failures else f"ok: all {len(rows)} checks passed")
    recorded = ledger["current"]["host"]
    if recorded != host():
        print(f"note: the ledger was measured on {recorded['node']} (Python {recorded['python']}), "
              f"not this host; its medians may not be comparable")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
