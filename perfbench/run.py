"""The repository benchmark: end-to-end and per-layer timing of the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tlm-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all             # every workload once
    python3 perfbench/run.py --workload rtl-accuracy --repeat 5   # steadiness

Workloads: ``tlm-sweep``, ``rtl-accuracy`` and ``serve-closed-loop``
(see ``workloads.py`` and ``WORKLOADS.md``).  Each run starts fresh
worker processes: a few that only set up, for a median set-up time, and
one that sets up and measures.  Gated times are host times scaled to a
reference host speed by passes of ``reference.py`` run beside them; the
unscaled figures are printed too.  With ``--trace 0`` the last line of
output is a JSON object whose metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced pass, and the
spans are written under ``.perfbench/``.  ``--repeat N`` runs N times on
seeds ``seed .. seed+N-1`` and prints each end-to-end metric's median,
quartiles and relative spread.

The simulator is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTPUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("tlm-sweep", "rtl-accuracy", "serve-closed-loop")

#: Set-up-only worker processes per run (plus the measuring one).
SETUP_PROBES = 4

#: Seconds one worker process may take before it is killed.
WORKER_TIMEOUT = 150

#: End-to-end metrics: name -> unit (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_mean_ms": "ms",
    "op2_mean_ms": "ms",
    "kcycles_per_s": "kcycles/s",
}

#: What each generic metric means on each workload, by the names the
#: workload's design uses.
ALIASES = {
    "tlm-sweep": {
        "ops_per_s": "points_per_s",
        "op_mean_ms": "point_mean_ms (Table-1 + write-heavy)",
        "op2_mean_ms": "filter_point_mean_ms (A5 ablation)",
        "kcycles_per_s": "tlm_kcycles_per_s",
    },
    "rtl-accuracy": {
        "ops_per_s": "points_per_s (rtl + tlm)",
        "op_mean_ms": "rtl_point_mean_ms",
        "op2_mean_ms": "tlm_point_mean_ms",
        "kcycles_per_s": "rtl_kcycles_per_s",
    },
    "serve-closed-loop": {
        "ops_per_s": "serve_submits_per_s",
        "op_mean_ms": "serve_cold_mean_ms",
        "op2_mean_ms": "serve_warm_mean_ms",
        "kcycles_per_s": "serve_cold_kcycles_per_s",
    },
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("ratio", "yield", "rate", "per_cycle", "over_rtl")):
        return "ratio"
    return "count"


def _worker(workload: str, seed: int, seconds: float, trace: int, rounds: int, setup_only: bool) -> dict:
    """Run one worker process; returns its result with ``setup_s`` added."""
    tag = f"{workload}-{os.getpid()}"
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--rounds", str(rounds),
        "--workdir", os.path.join(OUTPUT, f"serve-{tag}"),
    ]
    if trace:
        cmd += ["--trace-path", os.path.join(OUTPUT, f"trace-{workload}-seed{seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_host_s"] = result["setup_done"] - spawned
    result["setup_s"] = result["setup_host_s"] * result["setup_scale"]
    return result


def measure(workload: str, seed: int, seconds: float, trace: int, rounds: int = 0) -> dict:
    """One benchmark run: set-up probes, then the measuring worker."""
    os.makedirs(OUTPUT, exist_ok=True)
    probes = [_worker(workload, seed, seconds, trace, rounds, setup_only=True) for _ in range(SETUP_PROBES)]
    result = _worker(workload, seed, seconds, trace, rounds, setup_only=False)
    probes.append(result)
    setups = [probe["setup_s"] for probe in probes]
    if trace:
        metrics = result["metrics"]
        result["metrics"] = {
            name: {"value": float(metrics[name]), "unit": layer_unit(name)}
            for name in sorted(metrics)
        }
    else:
        metrics = dict(result["metrics"], setup_s=statistics.median(setups))
        result["metrics"] = {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    result["context"]["setup_samples_s"] = setups
    result["context"]["setup_host_samples_s"] = [probe["setup_host_s"] for probe in probes]
    return result


def report(workload: str, seed: int, result: dict) -> None:
    """Human-readable lines: metrics with units and names, samples, checks."""
    info = result["context"]
    aliases = ALIASES[workload]
    error_rate = result["failed"] / result["attempted"]
    print(f"== {workload}  seed={seed}  rounds={info.get('rounds')}  wall={info.get('wall_s', 0):.2f}s")
    for name, metric in result["metrics"].items():
        alias = aliases.get(name)
        label = f"{alias} [{name}]" if alias else name
        print(f"  {label:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  samples: op={info.get('op_samples')} ({info.get('op_beyond_p90')} beyond p90; "
        f"p50 {info.get('op_p50_ms', 0):.4g} ms, p90 {info.get('op_p90_ms', 0):.4g} ms), "
        f"op2={info.get('op2_samples')} ({info.get('op2_beyond_p90')} beyond p90; "
        f"p50 {info.get('op2_p50_ms', 0):.4g} ms, p90 {info.get('op2_p90_ms', 0):.4g} ms)"
    )
    if info.get("reference_passes"):
        unscaled = dict(info["unscaled"], setup_s=statistics.median(info["setup_host_samples_s"]))
        print(
            f"  host scale x{info['host_scale']:.4f} ({info['reference_passes']} reference passes); unscaled: "
            + ", ".join(f"{name}={value:.5g}" for name, value in unscaled.items())
        )
    if "tlm_error_pct" in info:
        print(
            f"  tlm_error_pct={info['tlm_error_pct']:.4f} %  "
            f"tlm_over_rtl={info['tlm_over_rtl']:.2f}x (context, not gated)"
        )
    if "dispatch" in info:
        print(f"  serve dispatch={info['dispatch']}  shed={info['shed']}")
    if "self_time" in info:
        wall = result["metrics"]["trace.wall_s"]["value"]
        print(f"  per-layer self time (traced wall {wall:.4f}s, overhead x{result['metrics']['trace.overhead_ratio']['value']:.3f}):")
        rows = {name: seconds for name, seconds in info["self_time"].items() if not name.startswith("bench.")}
        rows["unattributed"] = sum(s for name, s in info["self_time"].items() if name.startswith("bench."))
        for name, seconds in sorted(rows.items(), key=lambda item: -item[1]):
            calls = info["calls"].get(name, "")
            share = seconds / wall if wall else 0.0
            print(f"    {name:<22} {seconds:>10.4f}s {share:>7.1%} {calls:>10}")
        print(f"    {'sum':<22} {sum(info['self_time'].values()):>10.4f}s")
        if info.get("missing_hooks"):
            print(f"  hooks not found in this tree: {info['missing_hooks']}")
        if info.get("trace_file"):
            print(f"  {info.get('spans_written')} spans written to {info['trace_file']}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"  verdict: {verdict}  attempted={result['attempted']} failed={result['failed']} error_rate={error_rate:.4f}")
    for problem in info.get("problems", []):
        print(f"    ! {problem}")


def steadiness(workload: str, seed: int, seconds: float, repeat: int) -> dict:
    """Repeat a workload on consecutive seeds; spread of each metric."""
    values = {name: [] for name in END_TO_END}
    correct = True
    for offset in range(repeat):
        result = measure(workload, seed + offset, seconds, 0)
        correct = correct and result["correct"]
        for name in END_TO_END:
            values[name].append(result["metrics"][name]["value"])
        print(f"  run {offset + 1}/{repeat} seed={seed + offset}: " + ", ".join(
            f"{name}={result['metrics'][name]['value']:.5g}" for name in END_TO_END
        ), flush=True)
    summary = {}
    print(f"== steadiness {workload}: {repeat} runs")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (series[0],) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": END_TO_END[name]}
        print(f"  {name:<16} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.2%}")
    return {"workload": workload, "runs": repeat, "correct": correct, "metrics": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: runs per workload")
    parser.add_argument(
        "--rounds",
        type=int,
        default=0,
        help="reduced size for smoke tests: rounds per pass instead of the "
        "workload's minimum (percentiles then lose their tail samples)",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"perfbench: no simulator sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.repeat:
            summaries = [steadiness(name, args.seed, args.seconds, args.repeat) for name in names]
            print(json.dumps(summaries if len(summaries) > 1 else summaries[0]))
            return 0
        results = {}
        for name in names:
            result = measure(name, args.seed, args.seconds, args.trace, args.rounds)
            report(name, args.seed, result)
            results[name] = result
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if len(results) == 1:
        (result,) = results.values()
        final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
