"""Speed-regression gate over the committed ``BENCH_speed.json``.

Usage (see also ``make bench`` / ``make bench-baseline``)::

    PYTHONPATH=src python -m benchmarks.bench_regression
        Run the §4 speed suite and fail (exit 1) if any model is more
        than --threshold below the committed baseline.

    PYTHONPATH=src python -m benchmarks.bench_regression --write-baseline
        Run the suite and rewrite BENCH_speed.json's ``current`` block
        (the ``seed`` block — the pre-optimisation measurement — is
        preserved so cumulative speedups keep their reference).

Beyond the per-model Kcycles/s gate, the suite measures traffic
generation (items/s per mode), end-to-end sweep execution (the A5
filter grid, serial vs process over a reused pool) and the serving
layer (warm submissions/s, cache hit-rate and queue depth through an
in-process ``repro.serve`` server under a concurrent duplicate-heavy
burst).  On hosts with more than one worker the process backend must
beat serial by ``--min-sweep-speedup`` (default 1.5x); on single-CPU
hosts the speedup is recorded but not gated — a pool of one worker can
only add overhead.

``--models rtl`` narrows measurement and grading to a model subset
(the check path prints a per-model delta table either way), and
``--trajectory`` renders the committed speed history (seed → PR
milestones → current) without measuring anything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import repro.core  # noqa: F401  (anchor package import order)
from repro.analysis.bench_io import (
    MODELS,
    append_history,
    compare_reports,
    load_report,
    make_report,
    render_block,
    render_delta_table,
    render_trajectory,
    run_speed_suite,
    same_host,
    speedups_vs,
    write_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_speed.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline report path (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional slowdown per model (default: 0.20)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as the new baseline instead of checking",
    )
    parser.add_argument(
        "--repeats-tlm", type=int, default=5, help="best-of-N for TLM runs"
    )
    parser.add_argument(
        "--repeats-rtl", type=int, default=3, help="best-of-N for RTL runs"
    )
    parser.add_argument(
        "--min-sweep-speedup",
        type=float,
        default=1.5,
        help=(
            "required process-over-serial sweep speedup when the host "
            "has more than one worker (default: 1.5)"
        ),
    )
    parser.add_argument(
        "--models",
        nargs="+",
        choices=MODELS,
        default=None,
        metavar="MODEL",
        help=(
            "measure/gate only these models (e.g. --models rtl while "
            "iterating on the pin-accurate hot path)"
        ),
    )
    parser.add_argument(
        "--trajectory",
        action="store_true",
        help="print the committed speed-trajectory table and exit",
    )
    args = parser.parse_args(argv)

    if args.trajectory:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}", file=sys.stderr)
            return 2
        print(render_trajectory(load_report(args.baseline)))
        return 0

    if args.write_baseline and args.models is not None:
        # Validated before any measurement runs: a partial suite must
        # never overwrite the committed full-suite baseline.
        print(
            "--write-baseline needs the full model suite; drop --models",
            file=sys.stderr,
        )
        return 2

    fresh = run_speed_suite(
        repeats_tlm=args.repeats_tlm,
        repeats_rtl=args.repeats_rtl,
        models=args.models,
        # A filtered run is for fast iteration on one model: skip the
        # unrelated trafficgen/sweep/serve suites too.
        include_trafficgen=args.models is None,
        include_sweep=args.models is None,
        include_serve=args.models is None,
    )
    print(render_block(fresh, title="this run"))

    # Baseline-independent gate: the sweep speedup is a property of
    # *this* run, so it fires on every path (except an explicit
    # baseline rewrite, where it is surfaced as a warning).
    sweep_failures = _check_sweep_speedup(fresh, args.min_sweep_speedup)

    if args.write_baseline:
        for failure in sweep_failures:
            print(f"WARNING: {failure}", file=sys.stderr)
        seed = None
        history = None
        if args.baseline.exists():
            previous = load_report(args.baseline)
            seed = previous.get("seed")
            # Archive the *outgoing* current block as a history
            # milestone before this run replaces it — the fresh numbers
            # live in `current`, never duplicated into history.  A
            # re-record at the same revision just replaces `current`;
            # archiving it would render a self-milestone next to an
            # identical current row.
            outgoing = previous.get("current")
            history = previous.get("history")
            if outgoing and outgoing.get("git_rev") == fresh.get("git_rev"):
                outgoing = None
            if outgoing:
                history = append_history(
                    history,  # type: ignore[arg-type]
                    outgoing,  # type: ignore[arg-type]
                    label=f"rev {outgoing.get('git_rev', '?')}",  # type: ignore[union-attr]
                )
        report = make_report(fresh, seed=seed, history=history)
        write_report(args.baseline, report)
        print(f"baseline written to {args.baseline}")
        print(f"speedup vs seed: {report['speedup_vs_seed']}")
        return 0

    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --write-baseline first",
            file=sys.stderr,
        )
        if sweep_failures:
            for failure in sweep_failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        return 2

    baseline = load_report(args.baseline)
    # The readable verdict table is the primary comparison output; the
    # REGRESSION lines below stay as the machine-greppable detail.
    print(render_delta_table(fresh, baseline, threshold=args.threshold))
    seed = baseline.get("seed")
    if seed is not None:
        print(f"cumulative speedup vs seed: {speedups_vs(fresh, seed)}")
    if not same_host(fresh, baseline):
        print(
            "baseline was recorded on a different host; absolute Kcycles/s "
            "do not transfer between machines, so only cycle-count "
            "determinism and the sweep speedup are graded. Run "
            "`make bench-baseline` on this host for the full gate."
        )
    # compare_reports skips the Kcycles/s thresholds itself on a host
    # mismatch but always grades simulated-cycle determinism.
    failures = compare_reports(fresh, baseline, threshold=args.threshold)
    failures.extend(sweep_failures)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"ok: within {args.threshold:.0%} of baseline for all models")
    return 0


def _check_sweep_speedup(fresh: dict, minimum: float) -> list:
    """Gate the process-backend sweep speedup on multi-worker hosts."""
    sweep = fresh.get("sweep")
    if not sweep:
        return []
    if sweep["workers"] <= 1:
        print(
            "note: single-worker host — process-over-serial sweep speedup "
            f"({sweep['process_over_serial']}x) is recorded but not gated."
        )
        return []
    if sweep["process_over_serial"] < minimum:
        return [
            f"sweep: process backend is only {sweep['process_over_serial']}x "
            f"over serial with {sweep['workers']} workers "
            f"(required: {minimum}x)"
        ]
    return []


if __name__ == "__main__":
    raise SystemExit(main())
