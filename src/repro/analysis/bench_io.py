"""Persistent Kcycles/s benchmark reports (the BENCH trajectory).

The paper's headline result is simulation *speed* (§4: 0.47 Kcycles/s
RTL vs 166/456 Kcycles/s TLM), so this repository tracks its own speed
trajectory across PRs: :func:`run_speed_suite` wall-clocks the canonical
§4 workloads, :func:`write_report` persists the numbers to
``BENCH_speed.json`` together with the git revision, and
:func:`compare_reports` flags regressions against the committed
baseline.  ``python -m benchmarks.bench_regression`` (or ``make bench``)
is the CLI over these helpers.

The committed ``BENCH_speed.json`` holds two measurement blocks:

* ``seed`` — the numbers measured on the seed implementation (the
  "before" of the first optimisation PR), kept verbatim so every later
  measurement can report its cumulative speedup, and
* ``current`` — the most recent committed measurement, which future PRs
  regress against (default tolerance: 20 %).

Absolute Kcycles/s are host-dependent, so every measurement block
records the host it ran on and :func:`compare_reports` refuses to
grade a fresh run against a baseline from a *different* host (the CLI
then asks for a local ``--write-baseline`` instead of failing
spuriously on a slower machine).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.speed import SpeedSample, measure_rtl, measure_tlm
from repro.errors import ConfigError, SimulationError
from repro.exec import SweepRunner, default_workers, shared_pool
from repro.traffic.generator import generate_items
from repro.traffic.patterns import DMA
from repro.traffic.workloads import single_master_workload, table1_pattern_a

#: Schema version of BENCH_speed.json.
SCHEMA = 1

#: Canonical suite sizing: large enough for stable timings, small
#: enough that the pin-accurate run finishes in well under a second.
TLM_TRANSACTIONS = 300
SINGLE_MASTER_TRANSACTIONS = 600
RTL_TRANSACTIONS = 40

#: Traffic-generation throughput suite sizing.
TRAFFICGEN_ITEMS = 30_000
TRAFFICGEN_SEED = 11

#: Sweep-execution suite sizing (the A5 filter-ablation grid).
SWEEP_TRANSACTIONS = 120

#: Serving suite sizing: grid size per submission and the burst shape
#: (concurrent clients x duplicate submissions each).
SERVE_TRANSACTIONS = 60
SERVE_CLIENTS = 4
SERVE_SUBMISSIONS_PER_CLIENT = 3

#: Models measured by the suite (report keys).
MODELS = ("tlm_method", "tlm_single_master", "rtl")

#: model -> (engine level, workload factory): the single definition of
#: what each bench model runs.  The speed suite wall-clocks these and
#: ``benchmarks/profile_hotspots.py`` profiles the same pairs, so the
#: profiler's evidence always matches what ``make bench`` times.
BENCH_MODEL_RUNS = {
    "tlm_method": ("tlm", lambda: table1_pattern_a(TLM_TRANSACTIONS)),
    "tlm_single_master": (
        "tlm",
        lambda: single_master_workload(SINGLE_MASTER_TRANSACTIONS),
    ),
    "rtl": ("rtl", lambda: table1_pattern_a(RTL_TRANSACTIONS)),
}


def git_revision(default: str = "unknown") -> str:
    """Short git revision of the working tree, or *default*."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return default
    if out.returncode != 0:
        return default
    return out.stdout.strip() or default


def _sample_dict(sample: SpeedSample) -> Dict[str, float]:
    return {
        "kcycles_per_sec": round(sample.kcycles_per_sec, 3),
        "simulated_cycles": sample.simulated_cycles,
        "wall_seconds": round(sample.wall_seconds, 6),
    }


def run_trafficgen_suite(
    items: int = TRAFFICGEN_ITEMS, repeats: int = 3
) -> Dict[str, object]:
    """Traffic-generation throughput: items/s per generator mode.

    Times the canonical DMA pattern (long bursts, 50 % writes, so the
    data-word draws are exercised) through the legacy-exact ``compat``
    mode and the batched ``stream`` mode.
    """
    modes: Dict[str, object] = {}
    rates: Dict[str, float] = {}
    for mode in ("compat", "stream"):
        best = float("inf")
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            generated = generate_items(
                DMA, 0, items, TRAFFICGEN_SEED, mode=mode
            )
            best = min(best, time.perf_counter() - start)
        if len(generated) != items:  # rate guard: must survive python -O
            raise SimulationError(
                f"{mode} generator produced {len(generated)} of {items} items"
            )
        rates[mode] = items / best
        modes[mode] = {
            "items_per_sec": round(rates[mode], 1),
            "wall_seconds": round(best, 6),
        }
    return {
        "items": items,
        "modes": modes,
        "stream_over_compat": round(rates["stream"] / rates["compat"], 3),
    }


def run_sweep_suite(
    transactions: int = SWEEP_TRANSACTIONS,
    workers: Optional[int] = None,
    repeats: int = 3,
) -> Dict[str, object]:
    """End-to-end sweep wall time: serial vs process on the A5 grid.

    Both backends run best-of-*repeats*; the process backend maps over
    one :func:`~repro.exec.shared_pool`, so only the first repeat pays
    pool start-up and the recorded wall time reflects a warm pool — the
    steady state of any caller that executes more than one grid.  Also
    a determinism gate: every repeat's records must equal the serial
    records, or the measurement itself raises.
    """
    from repro.analysis.experiments import filter_ablation_grid

    grid = filter_ablation_grid(transactions)
    resolved_workers = (
        workers if workers is not None else default_workers(len(grid))
    )
    repeats = max(repeats, 1)

    serial_runner = SweepRunner(backend="serial")
    serial_wall = float("inf")
    serial_records = None
    for _ in range(repeats):
        start = time.perf_counter()
        records = serial_runner.run(grid)
        serial_wall = min(serial_wall, time.perf_counter() - start)
        if serial_records is not None and records != serial_records:
            raise SimulationError("serial sweep records changed on repeat")
        serial_records = records

    process_runner = SweepRunner(
        backend="process",
        workers=resolved_workers,
        pool=shared_pool(resolved_workers),
    )
    process_wall = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        process_records = process_runner.run(grid)
        process_wall = min(process_wall, time.perf_counter() - start)
        if serial_records != process_records:
            raise SimulationError(
                "process-backend sweep records diverged from the serial backend"
            )
    return {
        "points": len(grid),
        "transactions": transactions,
        "workers": resolved_workers,
        "repeats": repeats,
        "serial_wall_seconds": round(serial_wall, 6),
        "process_wall_seconds": round(process_wall, 6),
        "process_over_serial": round(serial_wall / process_wall, 3),
    }


def run_serve_suite(
    transactions: int = SERVE_TRANSACTIONS,
    clients: int = SERVE_CLIENTS,
    submissions_per_client: int = SERVE_SUBMISSIONS_PER_CLIENT,
) -> Dict[str, object]:
    """Serving-layer throughput: a burst of duplicate-heavy submissions.

    Hermetic and in-process: starts a :class:`~repro.serve.SweepServer`
    (default backend, in-memory store) on a loopback port, primes the
    cache with one cold pass of the multi-master write-buffer grid and
    fires *clients* concurrent threads each submitting the same grid
    *submissions_per_client* times.  Every burst point must replay from
    the cache — the suite raises if the warm hit-rate is not 100 % or
    any burst record differs from the cold pass (the "cache hit is
    provably correct" guarantee, measured rather than assumed).

    Reported: cold/burst wall seconds, warm submissions/s and points/s,
    the overall cache hit-rate and the queue-depth high-water mark.

    Two supervision metrics ride along, recorded rather than gated:
    the admission-control shed rate over the burst (0.0 unless the
    queue bound was hit) and a crash-recovery drill — a second server
    is started on the burst server's store with a journal holding six
    accepted-but-unfinished points, four of which the store already
    has.  The drill records how many replayed from the store versus
    re-ran, the replay hit-rate (4/6 by construction), and the
    wall-clock cost of draining the recovered backlog.
    """
    import threading

    from repro.exec import point_key
    from repro.serve import Journal, ServeClient, SweepServer
    from repro.serve.protocol import point_to_wire
    from repro.system import paper_topology, sweep as sweep_grid

    spec = paper_topology(transactions)
    grid = sweep_grid(spec, axis="write_buffer_depth", values=(1, 2, 4, 8))
    clients = max(clients, 1)
    submissions_per_client = max(submissions_per_client, 1)

    with SweepServer() as server:
        host, port = server.address

        start = time.perf_counter()
        cold = ServeClient(host, port).submit(grid)
        cold_wall = time.perf_counter() - start
        if cold.misses != len(grid):
            raise SimulationError(
                f"cold pass expected {len(grid)} misses, got {cold.misses}"
            )

        failures: List[str] = []

        def burst_worker() -> None:
            client = ServeClient(host, port)
            for _ in range(submissions_per_client):
                result = client.submit(grid)
                if result.hits != len(grid):
                    failures.append(
                        f"warm submission hit {result.hits}/{len(grid)}"
                    )
                if result.records != cold.records:
                    failures.append("burst records diverged from cold pass")

        threads = [
            threading.Thread(target=burst_worker) for _ in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        burst_wall = time.perf_counter() - start
        if failures:
            raise SimulationError(
                f"serve burst failed: {failures[0]} "
                f"({len(failures)} failures total)"
            )
        stats = server.stats()

    # Admission-control shed rate over the whole run.  At these sizes
    # nothing sheds; the metric is recorded so a regression that starts
    # refusing warm work shows up in the trajectory, not as a gate.
    shed = int(stats.get("shed_submissions") or 0)
    admitted = int(stats.get("submissions") or 0)
    shed_rate = shed / (admitted + shed) if admitted + shed else 0.0

    # Recovery drill on a *separate* server so the burst stats above
    # stay pure: seed a journal with six accepted-but-unfinished points
    # (the four warm grid points plus two genuinely cold ones) and
    # start a server on the same store — restart-after-crash in
    # miniature.  Warm points must replay from the store; cold points
    # must re-run.
    cold_grid = sweep_grid(spec, axis="write_buffer_depth", values=(16, 32))
    recovery_journal = Journal()
    for point in list(grid) + list(cold_grid):
        recovery_journal.record_accept(
            point_key(point.spec, engine=point.engine, max_cycles=None),
            point_to_wire(point),
        )
    start = time.perf_counter()
    with SweepServer(store=server.store, journal=recovery_journal) as rec:
        deadline = start + 120.0
        while len(recovery_journal) or rec.queue_depth():
            if time.perf_counter() > deadline:
                raise SimulationError(
                    "recovery drill did not drain its journal in time"
                )
            time.sleep(0.005)
        recovery_wall = time.perf_counter() - start
        rec_stats = rec.stats()
    replayed = int(rec_stats.get("recovery_replayed") or 0)
    rerun = int(rec_stats.get("recovered_rerun") or 0)
    if replayed + rerun != len(grid) + len(cold_grid):
        raise SimulationError(
            f"recovery drill resolved {replayed + rerun} of "
            f"{len(grid) + len(cold_grid)} journaled points"
        )

    burst_submissions = clients * submissions_per_client
    return {
        "points": len(grid),
        "transactions": transactions,
        "clients": clients,
        "submissions_per_client": submissions_per_client,
        "cold_wall_seconds": round(cold_wall, 6),
        "burst_wall_seconds": round(burst_wall, 6),
        "submissions_per_sec": round(burst_submissions / burst_wall, 1),
        "points_per_sec": round(
            burst_submissions * len(grid) / burst_wall, 1
        ),
        "cache_hit_rate": stats["hit_rate"],
        "max_queue_depth": stats["max_queue_depth"],
        "shed_rate": round(shed_rate, 6),
        "recovery_replayed": replayed,
        "recovered_rerun": rerun,
        "recovery_replay_hit_rate": round(replayed / (replayed + rerun), 6),
        "recovery_wall_seconds": round(recovery_wall, 6),
    }


def run_speed_suite(
    repeats_tlm: int = 5,
    repeats_rtl: int = 3,
    include_trafficgen: bool = True,
    include_sweep: bool = True,
    include_serve: bool = True,
    models: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the §4 speed suite; returns one measurement block.

    Best-of-N timing per model (platform construction untimed), exactly
    the methodology of :mod:`repro.analysis.speed`.  *models* restricts
    the measurement to a subset of :data:`MODELS` (``["rtl"]`` while
    iterating on the pin-accurate hot path); the comparison helpers all
    skip models a block does not carry.  The block also carries the
    traffic-generation items/s, serial-vs-process sweep wall-time and
    serving-layer entries unless switched off.
    """
    selected = tuple(models) if models is not None else MODELS
    unknown = set(selected) - set(MODELS)
    if unknown:
        raise ConfigError(
            f"unknown bench models {sorted(unknown)}; choose from {MODELS}"
        )
    samples: Dict[str, SpeedSample] = {}
    for name in MODELS:
        if name not in selected:
            continue
        level, make_workload = BENCH_MODEL_RUNS[name]
        if level == "rtl":
            samples[name] = measure_rtl(make_workload(), repeats=repeats_rtl)
        else:
            samples[name] = measure_tlm(make_workload(), repeats=repeats_tlm)
    block: Dict[str, object] = {
        "git_rev": git_revision(),
        "python": sys.version.split()[0],
        "host": platform.node() or "unknown",
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "models": {
            name: _sample_dict(sample) for name, sample in samples.items()
        },
    }
    tlm = samples.get("tlm_method")
    rtl = samples.get("rtl")
    if tlm is not None and rtl is not None:
        speedup = (
            tlm.kcycles_per_sec / rtl.kcycles_per_sec
            if rtl.kcycles_per_sec > 0
            else float("inf")
        )
        block["tlm_over_rtl_speedup"] = round(speedup, 2)
    if include_trafficgen:
        block["trafficgen"] = run_trafficgen_suite()
    if include_sweep:
        block["sweep"] = run_sweep_suite()
    if include_serve:
        block["serve"] = run_serve_suite()
    return block


def speedups_vs(block: Dict[str, object], reference: Dict[str, object]) -> Dict[str, float]:
    """Per-model Kcycles/s ratio of *block* over *reference*."""
    ratios: Dict[str, float] = {}
    block_models = block["models"]  # type: ignore[index]
    ref_models = reference["models"]  # type: ignore[index]
    for model in MODELS:
        mine = block_models.get(model)  # type: ignore[union-attr]
        theirs = ref_models.get(model)  # type: ignore[union-attr]
        if not mine or not theirs:
            continue
        base = theirs["kcycles_per_sec"]
        if base > 0:
            ratios[model] = round(mine["kcycles_per_sec"] / base, 3)
    return ratios


def make_report(
    current: Dict[str, object],
    seed: Optional[Dict[str, object]] = None,
    history: Optional[List[Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Assemble the full BENCH_speed.json document.

    *history* is the speed trajectory: one compact entry per committed
    milestone (see :func:`history_entry`), rendered by
    :func:`render_trajectory`.  Omitted, the report carries none.
    """
    if seed is None:
        seed = current
    report = {
        "schema": SCHEMA,
        "note": (
            "Kcycles/s are host-dependent; 'seed' was measured on the "
            "pre-optimisation implementation on the same host as 'current'."
        ),
        "seed": seed,
        "current": current,
        "speedup_vs_seed": speedups_vs(current, seed),
    }
    if history:
        report["history"] = history
    return report


def history_entry(
    block: Dict[str, object], label: str
) -> Dict[str, object]:
    """Compress a measurement block to one speed-trajectory milestone."""
    models = block.get("models", {})  # type: ignore[union-attr]
    return {
        "label": label,
        "git_rev": block.get("git_rev", "?"),
        "measured_at": block.get("measured_at", "?"),
        "models": {
            name: sample["kcycles_per_sec"]
            for name, sample in models.items()  # type: ignore[union-attr]
        },
    }


def append_history(
    report_history: Optional[List[Dict[str, object]]],
    block: Dict[str, object],
    label: str,
) -> List[Dict[str, object]]:
    """History with *block* appended; same-revision tail entries collapse.

    A collapse keeps the established milestone label (e.g. "PR 3") —
    re-measuring the same revision refreshes the numbers, it does not
    rename the milestone.
    """
    history = list(report_history or [])
    entry = history_entry(block, label)
    if history and history[-1].get("git_rev") == entry["git_rev"]:
        entry["label"] = history[-1].get("label", entry["label"])
        history[-1] = entry
    else:
        history.append(entry)
    return history


def render_trajectory(report: Dict[str, object]) -> str:
    """The speed-trajectory table: seed → committed milestones → current.

    One row per milestone, one column per model (Kcycles/s) plus the
    cumulative speedup over the seed for the models the row carries.
    """
    seed_block = report.get("seed", {})
    rows: List[Dict[str, object]] = [history_entry(seed_block, "seed")]  # type: ignore[arg-type]
    rows.extend(report.get("history", []))  # type: ignore[arg-type]
    rows.append(history_entry(report.get("current", {}), "current"))  # type: ignore[arg-type]
    seed_models = rows[0]["models"]  # type: ignore[index]
    header = f"{'milestone':<12} {'rev':<9}" + "".join(
        f" {model:>18}" for model in MODELS
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = ""
        row_models = row.get("models", {})  # type: ignore[union-attr]
        for model in MODELS:
            rate = row_models.get(model)  # type: ignore[union-attr]
            base = seed_models.get(model)  # type: ignore[union-attr]
            if rate is None:
                cells += f" {'-':>18}"
            elif base:
                cells += f" {rate:>10.1f} ({rate / base:>4.2f}x)"
            else:
                cells += f" {rate:>18.1f}"
        lines.append(
            f"{str(row.get('label', '?')):<12} "
            f"{str(row.get('git_rev', '?')):<9}{cells}"
        )
    return "\n".join(lines)


def render_delta_table(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = 0.20,
) -> str:
    """Readable per-model delta table for the regression gate.

    One row per model: baseline vs fresh Kcycles/s, the relative delta,
    the simulated-cycle determinism check, and a verdict column (``ok``
    / ``FAIL``; speed deltas on a different host grade as ``n/a``).
    """
    base_block = baseline.get("current", baseline)
    base_models = base_block.get("models", {})  # type: ignore[union-attr]
    fresh_models = fresh.get("models", {})  # type: ignore[union-attr]
    gradable = same_host(fresh, baseline)
    header = (
        f"{'model':<20} {'baseline':>10} {'current':>10} {'delta':>8} "
        f"{'cycles':>8} {'verdict':>8}"
    )
    lines = [header, "-" * len(header)]
    for model in MODELS:
        base = base_models.get(model)  # type: ignore[union-attr]
        mine = fresh_models.get(model)  # type: ignore[union-attr]
        if not base or not mine:
            continue
        delta = mine["kcycles_per_sec"] / base["kcycles_per_sec"] - 1.0
        cycles_ok = mine["simulated_cycles"] == base["simulated_cycles"]
        if not cycles_ok:
            verdict = "FAIL"
            cycles = "DRIFT"
        elif not gradable:
            verdict = "n/a"
            cycles = "ok"
        else:
            verdict = "ok" if delta >= -threshold else "FAIL"
            cycles = "ok"
        lines.append(
            f"{model:<20} {base['kcycles_per_sec']:>10.1f} "
            f"{mine['kcycles_per_sec']:>10.1f} {delta:>+7.1%} "
            f"{cycles:>8} {verdict:>8}"
        )
    return "\n".join(lines)


def write_report(path: Path, report: Dict[str, object]) -> None:
    """Persist *report* as pretty-printed JSON."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def load_report(path: Path) -> Dict[str, object]:
    """Load a previously written BENCH_speed.json."""
    return json.loads(Path(path).read_text())


def same_host(fresh: Dict[str, object], baseline: Dict[str, object]) -> bool:
    """Whether two blocks/reports were (as far as recorded) measured on
    the same machine.  Missing host information counts as comparable so
    pre-host-field reports keep working."""
    base_block = baseline.get("current", baseline)
    mine = fresh.get("host")
    theirs = base_block.get("host")  # type: ignore[union-attr]
    return mine is None or theirs is None or mine == theirs


def compare_reports(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = 0.20,
) -> List[str]:
    """Regressions of *fresh* against *baseline*'s ``current`` block.

    Returns human-readable failure strings; empty means every model is
    within *threshold* of the committed baseline (or faster).  A
    baseline recorded on a different host is not gradable on absolute
    Kcycles/s — they do not transfer between machines — so those
    produce no failures; callers should check :func:`same_host` and
    prompt for a local baseline instead.  Simulated *cycle counts* are
    pure determinism (seeded workloads), so they are gated on every
    host: a fresh run whose cycle counts drift from the committed
    baseline fails regardless of machine.
    """
    failures: List[str] = []
    base_block = baseline.get("current", baseline)
    base_models = base_block.get("models", {})  # type: ignore[union-attr]
    fresh_models = fresh["models"]  # type: ignore[index]
    for model in MODELS:
        base = base_models.get(model)
        mine = fresh_models.get(model)  # type: ignore[union-attr]
        if not base or not mine:
            continue
        if mine["simulated_cycles"] != base["simulated_cycles"]:
            failures.append(
                f"{model}: simulated {mine['simulated_cycles']} cycles but "
                f"baseline recorded {base['simulated_cycles']} "
                f"(rev {base_block.get('git_rev', '?')}) — determinism drift"
            )
    if not same_host(fresh, baseline):
        return failures
    for model in MODELS:
        base = base_models.get(model)
        mine = fresh_models.get(model)  # type: ignore[union-attr]
        if not base or not mine:
            continue
        floor = base["kcycles_per_sec"] * (1.0 - threshold)
        if mine["kcycles_per_sec"] < floor:
            failures.append(
                f"{model}: {mine['kcycles_per_sec']:.1f} Kcyc/s is more than "
                f"{threshold:.0%} below baseline "
                f"{base['kcycles_per_sec']:.1f} Kcyc/s "
                f"(rev {base_block.get('git_rev', '?')})"
            )
    return failures


def render_block(block: Dict[str, object], title: str = "speed") -> str:
    """One-measurement summary table for terminals/logs."""
    lines = [f"== {title} (rev {block.get('git_rev', '?')}) =="]
    models = block["models"]  # type: ignore[index]
    for model in MODELS:
        sample = models.get(model)  # type: ignore[union-attr]
        if sample:
            lines.append(
                f"  {model:<20} {sample['kcycles_per_sec']:>10.1f} Kcycles/s"
                f"  ({sample['simulated_cycles']} cycles in "
                f"{sample['wall_seconds']:.4f}s)"
            )
    lines.append(f"  TLM/RTL speedup: {block.get('tlm_over_rtl_speedup', '?')}x")
    trafficgen = block.get("trafficgen")
    if trafficgen:
        for mode, sample in trafficgen["modes"].items():  # type: ignore[index]
            lines.append(
                f"  trafficgen/{mode:<9} {sample['items_per_sec']:>12,.0f} items/s"
            )
        lines.append(
            f"  trafficgen stream/compat: "
            f"{trafficgen['stream_over_compat']}x"  # type: ignore[index]
        )
    sweep = block.get("sweep")
    if sweep:
        lines.append(
            f"  sweep ({sweep['points']} pts, {sweep['workers']} workers): "  # type: ignore[index]
            f"serial {sweep['serial_wall_seconds']:.3f}s, "  # type: ignore[index]
            f"process {sweep['process_wall_seconds']:.3f}s "  # type: ignore[index]
            f"({sweep['process_over_serial']}x)"  # type: ignore[index]
        )
    serve = block.get("serve")
    if serve:
        lines.append(
            f"  serve ({serve['points']} pts, {serve['clients']} clients): "  # type: ignore[index]
            f"{serve['submissions_per_sec']:,.0f} submissions/s warm, "  # type: ignore[index]
            f"hit rate {serve['cache_hit_rate']:.1%}, "  # type: ignore[index]
            f"max queue {serve['max_queue_depth']}"  # type: ignore[index]
        )
        if "recovery_replay_hit_rate" in serve:  # type: ignore[operator]
            lines.append(
                f"  serve recovery: {serve['recovery_replayed']} replayed "  # type: ignore[index]
                f"+ {serve['recovered_rerun']} re-run "  # type: ignore[index]
                f"({serve['recovery_replay_hit_rate']:.1%} replay hits) "  # type: ignore[index]
                f"in {serve['recovery_wall_seconds']:.3f}s, "  # type: ignore[index]
                f"shed rate {serve['shed_rate']:.1%}"  # type: ignore[index]
            )
    return "\n".join(lines)
