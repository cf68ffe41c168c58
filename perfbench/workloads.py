"""The benchmark's three workloads, timed from outside the simulator.

Each workload runs *rounds*.  A round is a fixed mix of operations on
inputs drawn from the workload seed, so every round loads the layers in
the same proportions and a run can stop at any round boundary.  A run
keeps starting rounds until ``seconds`` have passed and at least
``min_rounds`` are done; ``min_rounds`` gives every percentile at least
ten samples beyond it.

* ``tlm-sweep`` — serial spec → ``RunRecord`` over TLM points: the
  Table-1 suites and the write-heavy mix (class ``op``), and the A5
  filter-ablation grid on the saturating workload (class ``op2``).
* ``rtl-accuracy`` — the Table-1 suites elaborated at ``rtl`` (``op``)
  and at ``tlm`` (``op2``) from one spec; memory images and read data
  must agree, and the cycle counts give the TLM's error.
* ``serve-closed-loop`` — two closed-loop clients against an
  in-process ``SweepServer`` with a file-backed store and journal; cold
  submissions (``op``) carry never-seen seeds, and each is followed by
  a warm one (``op2``) that re-sends the grid just completed.

Correctness is checked outside the timed region: the content keys of
the first rounds must match ``digests.json`` at the default seed, warm
replays must equal the cold records, and TLM and RTL must compute the
same memory image and read data.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.experiments import filter_ablation_grid
from repro.exec import SweepRunner
from repro.serve.client import ServeClient
from repro.serve.journal import Journal
from repro.serve.server import SweepServer
from repro.serve.store import ResultStore
from repro.system.platform import platform_agents
from repro.system.scenarios import paper_topology
from repro.system.spec import sweep
from repro.traffic.workloads import (
    table1_pattern_a,
    table1_pattern_b,
    table1_pattern_c,
    write_heavy_workload,
)

from reference import host_scale, timed_pass
from tracing import BENCH_SPANS, METHOD, NAME, TRUTHY, Hook, Tracer, attribute

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

#: The seed the digests in ``digests.json`` were pinned at.
DEFAULT_SEED = 1

#: Rounds whose record digests are pinned per workload.
PINNED_ROUNDS = 3

TABLE1 = (table1_pattern_a, table1_pattern_b, table1_pattern_c)

#: Workload sizes.  Transactions are per master (four masters).
SIZES = {
    "tlm-sweep": {"table_txns": 100, "filter_txns": 60, "min_rounds": 25, "trace_rounds": 3},
    "rtl-accuracy": {"txns": 50, "min_rounds": 34, "trace_rounds": 4},
    # The serve mix follows the repository's own serve usage
    # (examples/serve_demo.py, README): a 4-point write_buffer_depth grid
    # at 40 transactions per master, submitted cold and then once warm.
    "serve-closed-loop": {
        "txns": 40,
        "depths": (1, 2, 4, 8),
        "clients": 2,
        "min_rounds": 50,
        "trace_rounds": 10,
    },
}


def round_seed(seed: int, *parts: int) -> int:
    """A distinct workload seed per (run seed, round, ...) tuple."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def digest(records) -> str:
    joined = "\n".join(record.content_key() for record in records)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def percentile(samples: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing hooks ------------------------------------------------------------------


def _after_bus_run(tracer: Tracer, args, result) -> None:
    """Arbitration and DDR counters of one TLM run, read off its result."""
    counters = tracer.counters
    for stats in getattr(result, "filter_stats", {}).values():
        counters["core.filter_applied"] += stats.get("applied", 0)
        counters["core.filter_narrowed"] += stats.get("narrowed", 0)
    counters["core.pipelined_grants"] += getattr(result, "pipelined_grants", 0)
    counters["core.transactions"] += getattr(result, "transactions", 0)
    for slave in getattr(args[0], "slaves", ()):
        timeline = getattr(slave, "timeline", None)
        if timeline is None:
            continue
        activations, hits, _conflicts = timeline.stats()
        counters["ddr.activations"] += activations
        counters["ddr.row_hits"] += hits
        counters["ddr.beats"] += getattr(slave, "data_beats", 0)


def _after_build_masters(tracer: Tracer, args, result) -> None:
    tracer.counters["traffic.items"] += args[0].total_transactions


def _client_of(label: str) -> Optional[int]:
    """Serve grid labels start with ``c<client>-``; others have no client."""
    if label.startswith("c") and "-" in label:
        head = label[1 : label.index("-")]
        if head.isdigit():
            return int(head)
    return None


def _state(tracer: Tracer, name: str) -> dict:
    return tracer.state.setdefault(name, {})  # type: ignore[return-value]


def _before_route(tracer: Tracer, args) -> None:
    points = args[1]
    tracer.set_hint(_client_of(points[0].label) if points else None)


def _before_accept(tracer: Tracer, args) -> None:
    key, wire = args[1], args[2]
    client = _client_of(str(wire.get("label", "")))
    _state(tracer, "client")[key] = client
    _state(tracer, "key")[wire.get("label")] = key
    _state(tracer, "accepted")[key] = perf()


def _before_start(tracer: Tracer, args) -> None:
    key = args[1]
    client = _state(tracer, "client").get(key)
    tracer.set_hint(client)
    accepted = _state(tracer, "accepted").pop(key, None)
    if accepted is not None:
        tracer.add("serve.queue_wait", accepted, perf(), client)


def _before_execute(tracer: Tracer, args) -> None:
    tracer.set_hint(_client_of(args[0].point.label))


def _after_execute(tracer: Tracer, args, result) -> None:
    key = _state(tracer, "key").get(args[0].point.label)
    if key is not None:
        _state(tracer, "executed")[key] = perf()


def _before_finish(tracer: Tracer, args) -> None:
    """Executor-side calls for one finished point: store put, done/fail."""
    key = args[1]
    client = _state(tracer, "client").get(key)
    tracer.set_hint(client)
    executed = _state(tracer, "executed").pop(key, None)
    if executed is not None:
        # The record waited between its run and its delivery (the batch
        # backend delivers a whole burst at once).
        tracer.add("serve.result_wait", executed, perf(), client)


def _engine_probe(engine) -> Tuple[int, int, int]:
    return engine.cycle, engine.cycles_skipped, engine.evaluate_passes


_KERNEL_KEYS = ("kernel.cycles", "kernel.cycles_skipped", "kernel.passes")


def hooks() -> List[Hook]:
    """Every layer boundary the traced run records, by span name."""
    wb = "repro.core.write_buffer:WriteBuffer."
    ddr = "repro.ddr.controller:DdrControllerTlm."
    return [
        Hook("repro.traffic.workloads:Workload.build_masters", "traffic.build", after=_after_build_masters),
        Hook("repro.ahb.master:TlmMaster.pending", "traffic.pending", truthy=True),
        Hook("repro.system.platform:PlatformBuilder.build", "system.build"),
        Hook("repro.core.bus:AhbPlusBusTlm.run", "core.bus", after=_after_bus_run),
        Hook("repro.core.arbiter:AhbPlusArbiter.choose", "core.choose"),
        *(Hook(wb + name, "core.wb") for name in ("read_hazard", "conflicts_with", "can_absorb", "absorb", "pop_head")),
        Hook(ddr + "serve", "ddr.serve"),
        *(Hook(ddr + name, "ddr.score") for name in ("access_score", "notify_next", "access_permitted_at", "idle_until")),
        Hook("repro.kernel.cycle:CycleEngine.run", "kernel.run", probe=_engine_probe, probe_keys=_KERNEL_KEYS),
        Hook("repro.kernel.cycle:CycleEngine.run_until", "kernel.run", probe=_engine_probe, probe_keys=_KERNEL_KEYS),
        Hook("repro.rtl.arbiter:ArbiterRtl.update", "rtl.seq"),
        Hook("repro.rtl.master:MasterRtl.update", "rtl.seq"),
        Hook("repro.rtl.write_buffer:BufferMasterRtl.update", "rtl.seq"),
        Hook("repro.rtl.slave:StaticSlaveRtl.update", "rtl.seq"),
        Hook("repro.rtl.ddrc:DdrcRtl.update", "rtl.ddrc"),
        Hook("repro.rtl.master:MasterRtl.evaluate", "rtl.comb"),
        Hook("repro.rtl.write_buffer:BufferMasterRtl.evaluate", "rtl.comb"),
        *(Hook("repro.rtl.mux:BusMux." + name, "rtl.comb") for name in ("evaluate", "evaluate_address", "evaluate_wdata")),
        Hook("repro.rtl.mux:ResponseMux.evaluate", "rtl.comb"),
        Hook("repro.exec.records:RunRecord.from_run", "exec.record"),
        Hook("repro.exec.runner:_execute", "exec.runner", before=_before_execute, after=_after_execute),
        Hook("repro.exec.records:point_key", "canonical.hash"),
        Hook("repro.exec.records:RunRecord.content_key", "canonical.hash"),
        Hook("repro.serve.server:SweepServer.route", "serve.route", before=_before_route),
        Hook("repro.serve.store:ResultStore.get", "serve.store_get", truthy=True),
        Hook("repro.serve.store:ResultStore.put", "serve.store_put", before=_before_finish),
        Hook("repro.serve.journal:Journal.record_accept", "serve.journal", before=_before_accept),
        Hook("repro.serve.journal:Journal.record_start", "serve.journal", before=_before_start),
        Hook("repro.serve.journal:Journal.record_done", "serve.journal", before=_before_finish),
        Hook("repro.serve.journal:Journal.record_fail", "serve.journal", before=_before_finish),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, roots: List[list], untraced_wall: float) -> Tuple[Dict[str, float], Dict[str, float], Counter]:
    """Per-layer metrics, the self-time table and call counts of a traced pass."""
    spans = tracer.all_spans()
    self_time, wall = attribute(spans, roots)
    calls = Counter(span[NAME] for span in spans)
    methods = Counter(span[METHOD] for span in spans)
    truthy = Counter(span[METHOD] for span in spans if span[TRUTHY])
    c = tracer.counters
    st = lambda name: self_time.get(name, 0.0)  # noqa: E731
    stepped = c["kernel.cycles"] - c["kernel.cycles_skipped"]
    metrics = {
        "traffic.build_s": st("traffic.build"),
        "traffic.items": c["traffic.items"],
        "traffic.pending_calls": calls["traffic.pending"],
        "traffic.pending_s": st("traffic.pending"),
        "traffic.pending_yield": _ratio(truthy["TlmMaster.pending"], calls["traffic.pending"]),
        "system.build_s": st("system.build"),
        "system.builds": calls["system.build"],
        "core.bus_self_s": st("core.bus"),
        "core.choose_calls": calls["core.choose"],
        "core.choose_s": st("core.choose"),
        "core.filter_applied": c["core.filter_applied"],
        "core.filter_narrow_ratio": _ratio(c["core.filter_narrowed"], c["core.filter_applied"]),
        "core.wb_calls": calls["core.wb"],
        "core.wb_s": st("core.wb"),
        "core.absorb_ratio": _ratio(methods["WriteBuffer.absorb"], methods["WriteBuffer.can_absorb"]),
        "core.pipelined_ratio": _ratio(c["core.pipelined_grants"], c["core.transactions"]),
        "ddr.serve_calls": calls["ddr.serve"],
        "ddr.serve_s": st("ddr.serve"),
        "ddr.beats": c["ddr.beats"],
        "ddr.score_calls": calls["ddr.score"],
        "ddr.score_s": st("ddr.score"),
        "ddr.row_hit_rate": _ratio(c["ddr.row_hits"], c["ddr.row_hits"] + c["ddr.activations"]),
        "kernel.self_s": st("kernel.run"),
        "kernel.cycles": c["kernel.cycles"],
        "kernel.cycles_skipped": c["kernel.cycles_skipped"],
        "kernel.skip_ratio": _ratio(c["kernel.cycles_skipped"], c["kernel.cycles"]),
        "kernel.passes_per_cycle": _ratio(c["kernel.passes"], stepped),
        "rtl.seq_calls": calls["rtl.seq"],
        "rtl.seq_s": st("rtl.seq"),
        "rtl.comb_calls": calls["rtl.comb"],
        "rtl.comb_s": st("rtl.comb"),
        "rtl.ddrc_calls": calls["rtl.ddrc"],
        "rtl.ddrc_s": st("rtl.ddrc"),
        "exec.record_s": st("exec.record"),
        "exec.runner_s": st("exec.runner"),
        "canonical.hash_calls": calls["canonical.hash"],
        "canonical.hash_s": st("canonical.hash"),
        "serve.route_s": st("serve.route"),
        "serve.store_get_calls": calls["serve.store_get"],
        "serve.store_get_s": st("serve.store_get"),
        "serve.store_hit_ratio": _ratio(truthy["ResultStore.get"], calls["serve.store_get"]),
        "serve.store_put_s": st("serve.store_put"),
        "serve.journal_appends": calls["serve.journal"],
        "serve.journal_s": st("serve.journal"),
        "serve.queue_wait_s": st("serve.queue_wait"),
        "serve.result_wait_s": st("serve.result_wait"),
        "serve.transport_s": st("serve.transport"),
        "serve.shed": c["serve.shed"],
        "trace.wall_s": wall,
        "trace.unattributed_s": sum(st(name) for name in BENCH_SPANS),
        "trace.overhead_ratio": _ratio(wall, untraced_wall),
        "trace.spans": len(spans),
        "trace.missing_hooks": len(tracer.missing),
    }
    # Layer times as shares of the traced wall: they compare across runs on
    # a host whose speed drifts, and a layer the workload bypasses reads 0 %.
    for name in [name for name in metrics if name.endswith("_s") and name != "trace.wall_s"]:
        metrics[name[:-2] + "_pct"] = _ratio(100.0 * metrics.pop(name), wall)
    return metrics, self_time, calls


# -- the run skeleton -----------------------------------------------------------------


class Outcome:
    """What one pass of a workload measured and checked."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {"op": [], "op2": []}
        self.cycles: Dict[str, int] = {"op": 0, "op2": 0}
        #: Round tag -> records of that round, for digests and replays.
        self.rounds: Dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.wall = 0.0
        #: Peak RSS once the first ``min_rounds`` rounds are done, so the
        #: figure covers a fixed amount of work however fast the rounds ran.
        self.rss_mb = 0.0
        #: Thread CPU seconds of the reference passes run between rounds.
        self.passes: List[float] = []
        #: Callers that timed operations side by side (serve clients).
        self.clients = 1
        self.context: Dict[str, object] = {}

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


class SweepWorkload:
    """A serial spec → record loop (``tlm-sweep`` and ``rtl-accuracy``)."""

    name = ""

    def __init__(self, seed: int, sizes: dict) -> None:
        self.seed = seed
        self.sizes = sizes
        self.runner = SweepRunner(backend="serial", on_error="record")

    def setup(self) -> None:
        """Grid construction and warm-up: one round off the schedule."""
        self.run_round(Outcome(), -1, None)

    def close(self) -> None:
        pass

    def run_round(self, out: Outcome, index: int, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def _op(self, out: Outcome, cls: str, point, tracer: Optional[Tracer], collect=None):
        if tracer is not None:
            span = tracer.open("bench.op", op=point.label)
        start = perf()
        record = self.runner.run([point], collect=collect)[0]
        elapsed = perf() - start
        if tracer is not None:
            tracer.close(span)
        out.samples[cls].append(elapsed)
        out.cycles[cls] += record.cycles
        out.attempted += 1
        if record.failed:
            out.fail(1, f"{point.label}: {record.error}")
        return record

    def measure(
        self, seconds: float, min_rounds: int, tracer: Optional[Tracer] = None, reference: bool = False
    ) -> Outcome:
        """Run rounds; with *reference*, a reference pass follows each round."""
        out = Outcome()
        root = tracer.open("bench.loop") if tracer is not None else None
        start = perf()
        index = 0
        while index < min_rounds or perf() - start < seconds:
            self.run_round(out, index, tracer)
            if reference:
                out.passes.append(timed_pass())
            index += 1
            if index == min_rounds:
                out.rss_mb = peak_rss_mb()
        out.wall = perf() - start
        out.context["timeline_s"] = out.wall
        if root is not None:
            tracer.close(root)
            out.context["roots"] = [root]
        out.context["rounds"] = index
        return out


class TlmSweep(SweepWorkload):
    name = "tlm-sweep"

    def __init__(self, seed: int, sizes: dict) -> None:
        super().__init__(seed, sizes)
        self.filter_grid = filter_ablation_grid(sizes["filter_txns"])

    def points(self, index: int):
        seed = round_seed(self.seed, index)
        table = self.sizes["table_txns"]
        suites = [make(table, seed=seed + offset) for offset, make in enumerate(TABLE1)]
        suites.append(write_heavy_workload(table, seed=seed + 3))
        for workload in suites:
            spec = paper_topology(workload=workload)
            yield "op", sweep(spec, axis="engine", values=("tlm",), labels=(f"r{index}-{workload.name}",))[0]
        for point in self.filter_grid:
            yield "op2", replace(point, label=f"r{index}-{point.label}", spec=point.spec.with_seed(seed + 4))

    def run_round(self, out: Outcome, index: int, tracer: Optional[Tracer]) -> None:
        records = [self._op(out, cls, point, tracer) for cls, point in self.points(index)]
        out.rounds[f"r{index}"] = records


def _reads(platform) -> list:
    return [
        [(txn.addr, tuple(txn.data)) for txn in agent.completed if not txn.is_write]
        for agent in platform_agents(platform)
    ]


class RtlAccuracy(SweepWorkload):
    name = "rtl-accuracy"

    def __init__(self, seed: int, sizes: dict) -> None:
        super().__init__(seed, sizes)
        self.kept: list = []

    def _keep(self, point, platform, result) -> Dict[str, object]:
        """Collector that keeps the platform alive for the untimed checks;
        it adds no metric, so the record is the one a plain run gives."""
        self.kept.append(platform)
        return {}

    def run_round(self, out: Outcome, index: int, tracer: Optional[Tracer]) -> None:
        # A run cycles through the rounds the traced run measures.  So the
        # inputs a run times and checks depend on the seed alone, not on how
        # many rounds the host fits into the run, every run repeats the same
        # mix of RTL work, and the end-to-end, per-layer and accuracy figures
        # all describe the same suites.
        seed = round_seed(self.seed, index % self.sizes["trace_rounds"])
        records = []
        errors = out.context.setdefault("suite_error_pct", [])
        for offset, make in enumerate(TABLE1):
            workload = make(self.sizes["txns"], seed=seed + offset)
            spec = paper_topology(workload=workload)
            rtl, tlm = sweep(
                spec,
                axis="engine",
                values=("rtl", "tlm"),
                labels=(f"r{index}-{workload.name}-rtl", f"r{index}-{workload.name}-tlm"),
            )
            self.kept.clear()
            rtl_rec = self._op(out, "op", rtl, tracer, collect=self._keep)
            tlm_rec = self._op(out, "op2", tlm, tracer, collect=self._keep)
            records += [rtl_rec, tlm_rec]
            if len(self.kept) != 2:
                continue  # a crashed point is already counted as failed
            rtl_platform, tlm_platform = self.kept
            self.kept.clear()
            if not rtl_platform.memory.equal_contents(tlm_platform.memory):
                out.fail(2, f"{workload.name} seed {workload.seed}: memory images differ")
            elif _reads(rtl_platform) != _reads(tlm_platform):
                out.fail(2, f"{workload.name} seed {workload.seed}: read data differs")
            if rtl_rec.cycles and index < self.sizes["trace_rounds"]:
                errors.append(abs(tlm_rec.cycles - rtl_rec.cycles) / rtl_rec.cycles * 100.0)
        out.rounds[f"r{index}"] = records


# -- serve ------------------------------------------------------------------------------


class ServeClosedLoop:
    """Two closed-loop clients against one in-process sweep server."""

    name = "serve-closed-loop"

    def __init__(self, seed: int, sizes: dict, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.server: Optional[SweepServer] = None

    def grid(self, client: int, index: int):
        """Cold grid *index* of *client*: a multi-master write-buffer sweep."""
        seed = round_seed(self.seed, client, index)
        make = (*TABLE1, write_heavy_workload)[index % 4]
        workload = make(self.sizes["txns"], seed=seed)
        spec = paper_topology(workload=workload)
        tag = f"c{client}-r{index}" if client >= 0 else f"warmup-r{index}"
        depths = self.sizes["depths"]
        return sweep(spec, axis="write_buffer_depth", values=depths, labels=tuple(f"{tag}-wb{d}" for d in depths))

    def start_server(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.server = SweepServer(
            store=ResultStore(os.path.join(self.workdir, "results.jsonl")),
            journal=Journal(os.path.join(self.workdir, "journal.jsonl")),
        )
        self.server.start()

    def setup(self) -> None:
        """Server start, store/journal load and one cold + warm warm-up."""
        self.start_server()
        client = self._client()
        grid = self.grid(-1, 0)
        client.submit(grid)
        client.submit(grid)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _client(self) -> ServeClient:
        host, port = self.server.address
        return ServeClient(host=host, port=port, timeout=120.0, retries=0)

    def measure(
        self, seconds: float, min_rounds: int, tracer: Optional[Tracer] = None, reference: bool = False
    ) -> Outcome:
        """Run the clients; with *reference*, each client runs a reference
        pass after each of its rounds."""
        out = Outcome()
        clients = self.sizes["clients"]
        lock = threading.Lock()
        gate = threading.Barrier(clients + 1)
        roots: List[list] = []
        results: List[dict] = [{} for _ in range(clients)]
        crashes: List[BaseException] = []

        def loop(client_id: int) -> None:
            try:
                client = self._client()
                done: List[tuple] = []
                warm: List[tuple] = []
                samples: Dict[str, List[float]] = {"op": [], "op2": []}
                passes: List[float] = []
                sources_bad = 0
                gate.wait()
                root = tracer.open("bench.loop", op=client_id) if tracer is not None else None
                begin = perf()
                index = 0
                while index < min_rounds or perf() - begin < seconds:
                    grid = self.grid(client_id, index)
                    # Cold, then the same grid again warm, as serve_demo does.
                    for cls in ("op", "op2"):
                        span = None
                        if tracer is not None:
                            span = tracer.open("serve.transport", op=client_id)
                            tracer.op_spans[client_id] = span
                        start = perf()
                        reply = client.submit(grid)
                        elapsed = perf() - start
                        if span is not None:
                            tracer.close(span)
                        samples[cls].append(elapsed)
                        expect = "run" if cls == "op" else "store"
                        sources_bad += sum(1 for source in reply.sources if source != expect)
                        (done if cls == "op" else warm).append(reply.records)
                    if reference:
                        passes.append(timed_pass())
                    index += 1
                    if index == min_rounds:
                        rss_mb = peak_rss_mb()
                end = perf()
                if root is not None:
                    tracer.close(root)
                results[client_id] = {
                    "samples": samples,
                    "passes": passes,
                    "done": done,
                    "warm": warm,
                    "sources_bad": sources_bad,
                    "begin": begin,
                    "end": end,
                    "rounds": index,
                    "root": root,
                    "rss_mb": rss_mb,
                }
            except BaseException as exc:  # noqa: BLE001 - reported as a failure
                with lock:
                    crashes.append(exc)
                try:
                    gate.abort()
                except threading.BrokenBarrierError:
                    pass

        threads = [threading.Thread(target=loop, args=(c,), name=f"bench-client-{c}") for c in range(clients)]
        for thread in threads:
            thread.start()
        try:
            gate.wait()
        except threading.BrokenBarrierError:
            pass
        for thread in threads:
            thread.join()
        for exc in crashes:
            out.attempted += 1
            out.fail(1, f"client crashed: {type(exc).__name__}: {exc}")
        finished = [result for result in results if result]
        if not finished:
            return out
        out.wall = max(r["end"] for r in finished) - min(r["begin"] for r in finished)
        out.context["roots"] = [r["root"] for r in finished if r["root"] is not None]
        # Each client waits on its own timeline; traced self times sum to
        # the summed client time, so the overhead ratio compares that.
        out.context["timeline_s"] = sum(r["end"] - r["begin"] for r in finished)
        out.context["rounds"] = sum(r["rounds"] for r in finished)
        out.rss_mb = max(r["rss_mb"] for r in finished)
        out.clients = len(finished)
        for client_id, result in enumerate(results):
            if not result:
                continue
            out.passes.extend(result["passes"])
            for cls in ("op", "op2"):
                out.samples[cls].extend(result["samples"][cls])
            out.attempted += len(result["samples"]["op"]) + len(result["samples"]["op2"])
            if result["sources_bad"]:
                out.fail(result["sources_bad"], f"client {client_id}: cold/warm classification broke")
            for index, records in enumerate(result["done"]):
                out.rounds[f"c{client_id}r{index}"] = list(records)
                out.cycles["op"] += sum(record.cycles for record in records)
                for record in records:
                    if record.failed:
                        out.fail(1, f"{record.label}: {record.error}")
            for index, (cold, warm) in enumerate(zip(result["done"], result["warm"])):
                if [r.content_key() for r in warm] != [r.content_key() for r in cold]:
                    out.fail(1, f"client {client_id}: warm replay of grid {index} differs from its cold records")
        stats = self.server.stats()
        out.context["dispatch"] = stats.get("dispatch", {})
        out.context["shed"] = stats.get("shed_submissions", 0)
        return out


# -- running a workload -------------------------------------------------------------------

WORKLOADS = ("tlm-sweep", "rtl-accuracy", "serve-closed-loop")


def make_workload(name: str, seed: int, sizes: dict, workdir: str):
    if name == "tlm-sweep":
        return TlmSweep(seed, sizes)
    if name == "rtl-accuracy":
        return RtlAccuracy(seed, sizes)
    if name == "serve-closed-loop":
        return ServeClosedLoop(seed, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def check_digests(name: str, seed: int, out: Outcome, pinned: Optional[dict]) -> Dict[str, str]:
    """Digest the pinned rounds; at the default seed they must match."""
    produced = {}
    for tag, records in out.rounds.items():
        if int(tag.rpartition("r")[2]) < PINNED_ROUNDS:
            produced[tag] = digest(records)
    if seed == DEFAULT_SEED and pinned is not None:
        expected = pinned.get(name, {})
        for tag, value in sorted(produced.items()):
            if expected.get(tag) != value:
                out.fail(len(out.rounds[tag]), f"{name} round {tag}: digest {value} != pinned {expected.get(tag)}")
    return produced


def timings(name: str, out: Outcome, scale: float) -> Dict[str, float]:
    """Throughput, mean latencies and simulated-cycle rate; host times × *scale*."""
    op, op2 = out.samples["op"], out.samples["op2"]
    if name == "tlm-sweep":
        kcycles, seconds = out.cycles["op"] + out.cycles["op2"], sum(op) + sum(op2)
    else:
        # RTL cycles over RTL point time; serve: cold cycles over cold submit time.
        kcycles, seconds = out.cycles["op"], sum(op)
    # Each caller's time inside operations: the reference passes and the
    # untimed checks between rounds are left out.
    busy = (sum(op) + sum(op2)) / out.clients
    # Means, not percentiles: host speed here flips between a fast and a
    # slow state, and a run's percentiles jump between the two modes while
    # its mean moves in proportion (see WORKLOADS.md).
    return {
        "ops_per_s": _ratio(len(op) + len(op2), busy * scale),
        "op_mean_ms": _ratio(sum(op), len(op)) * 1e3 * scale,
        "op2_mean_ms": _ratio(sum(op2), len(op2)) * 1e3 * scale,
        "kcycles_per_s": _ratio(kcycles / 1e3, seconds * scale),
    }


def end_to_end(name: str, out: Outcome) -> Dict[str, float]:
    """The end-to-end metrics every workload reports (setup_s is added by run.py).

    Times are host times scaled by the reference passes run beside them
    (``reference.host_scale``); ``context`` keeps the unscaled ones.
    """
    return dict(timings(name, out, host_scale(out.passes)), peak_rss_mb=out.rss_mb)


def context(name: str, out: Outcome) -> Dict[str, object]:
    """Figures printed beside the metrics: percentiles, sample counts, accuracy, routing."""
    info = {
        "rounds": out.context.get("rounds", 0),
        "op_p50_ms": percentile(out.samples["op"], 50) * 1e3,
        "op2_p50_ms": percentile(out.samples["op2"], 50) * 1e3,
        "op_p90_ms": percentile(out.samples["op"], 90) * 1e3,
        "op2_p90_ms": percentile(out.samples["op2"], 90) * 1e3,
        "op_samples": len(out.samples["op"]),
        "op2_samples": len(out.samples["op2"]),
        "op_beyond_p90": sum(1 for s in out.samples["op"] if s > percentile(out.samples["op"], 90)),
        "op2_beyond_p90": sum(1 for s in out.samples["op2"] if s > percentile(out.samples["op2"], 90)),
        "wall_s": out.wall,
        "host_scale": host_scale(out.passes),
        "reference_passes": len(out.passes),
        "unscaled": timings(name, out, 1.0),
    }
    if name == "rtl-accuracy":
        errors = out.context.get("suite_error_pct") or [0.0]
        info["tlm_error_pct"] = sum(errors) / len(errors)
        rtl_s, tlm_s = sum(out.samples["op"]), sum(out.samples["op2"])
        info["tlm_over_rtl"] = _ratio(rtl_s, tlm_s)
    if name == "serve-closed-loop":
        info["dispatch"] = out.context.get("dispatch", {})
        info["shed"] = out.context.get("shed", 0)
    if out.problems:
        info["problems"] = out.problems
    return info


def load_pinned() -> Optional[dict]:
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    sizes: Optional[dict] = None,
    pinned: Optional[dict] = None,
    on_setup_done: Optional[Callable[[], None]] = None,
    trace_path: Optional[str] = None,
) -> dict:
    """Set up and measure one workload; returns the worker's result dict.

    Untraced, the run measures ``seconds`` (at least ``min_rounds``).
    Traced, it measures ``trace_rounds`` rounds untraced and then the
    same rounds traced, and reports per-layer metrics plus the tracing
    overhead; the two passes must produce identical records.
    """
    sizes = dict(SIZES[name], **(sizes or {}))
    if pinned is None:
        pinned = load_pinned()
    workload = make_workload(name, seed, sizes, workdir)
    try:
        workload.setup()
        if on_setup_done is not None:
            on_setup_done()
        if not trace:
            out = workload.measure(seconds, sizes["min_rounds"], reference=True)
            produced = check_digests(name, seed, out, pinned)
            return {
                "correct": out.failed == 0,
                "attempted": max(out.attempted, 1),
                "failed": out.failed,
                "metrics": end_to_end(name, out),
                "context": context(name, out),
                "digests": produced,
            }
        rounds = sizes["trace_rounds"]
        plain = workload.measure(0.0, rounds)
        if name == "serve-closed-loop":
            workload.close()
            workload.start_server()
        tracer = Tracer()
        tracer.install(hooks())
        try:
            traced = workload.measure(0.0, rounds, tracer)
        finally:
            tracer.uninstall()
        check_digests(name, seed, plain, pinned)
        check_digests(name, seed, traced, pinned)
        for tag, records in plain.rounds.items():
            mine = traced.rounds.get(tag)
            if mine is None or [r.content_key() for r in mine] != [r.content_key() for r in records]:
                traced.fail(len(records), f"round {tag}: traced records differ from untraced")
        info = context(name, traced)
        tracer.counters["serve.shed"] = info.get("shed", 0)
        metrics, self_time, calls = layer_metrics(
            tracer, traced.context.get("roots", []), plain.context.get("timeline_s", 0.0)
        )
        metrics["accuracy.tlm_error_pct"] = info.get("tlm_error_pct", 0.0)
        metrics["accuracy.tlm_over_rtl"] = info.get("tlm_over_rtl", 0.0)
        if trace_path is not None:
            info["spans_written"] = tracer.dump(trace_path)
            info["trace_file"] = trace_path
        info["missing_hooks"] = tracer.missing
        info["self_time"] = self_time
        info["calls"] = dict(calls)
        failed = plain.failed + traced.failed
        return {
            "correct": failed == 0,
            "attempted": max(plain.attempted + traced.attempted, 1),
            "failed": failed,
            "metrics": metrics,
            "context": info,
        }
    finally:
        workload.close()
