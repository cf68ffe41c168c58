"""The serving layer: store, protocol, server, client, CLI.

Pins the tentpole acceptance criteria: a grid submitted twice through
the server returns bit-identical records with a 100 % cache hit-rate on
the second pass; a mixed warm/cold submission runs only the cold
points; in-flight duplicates join the running point instead of
re-running; and crash/timeout rows are never cached as authoritative
results (a retry re-runs the point).
"""

import gc
import json
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import repro.core  # noqa: F401  (anchor package import order)
from repro.errors import ConfigError, SimulationError
from repro.exec import RunRecord, SweepRunner, point_key
from repro.serve import (
    PROTOCOL,
    Journal,
    ResultStore,
    ServeClient,
    ServerDraining,
    ServerOverloaded,
    SweepServer,
    heal_torn_tail,
    point_from_wire,
    point_to_wire,
)
from repro.system import paper_topology, sweep
from repro.system.spec import SweepPoint
from repro.traffic import single_master_workload

REPO = Path(__file__).resolve().parent.parent


def _grid(transactions=15, values=(1, 2, 4)):
    spec = paper_topology(workload=single_master_workload(transactions))
    return sweep(spec, axis="write_buffer_depth", values=values)


def _one_record(transactions=10):
    [record] = SweepRunner().run(_grid(transactions, values=(4,)))
    return record


@pytest.fixture()
def served():
    """A running in-process server plus a connected client."""
    with SweepServer() as server:
        yield server, ServeClient(*server.address)


class TestResultStore:
    def test_put_get_and_first_write_wins(self):
        store = ResultStore()
        record = _one_record()
        assert store.put("k1", record)
        assert store.get("k1") == record
        assert not store.put("k1", record)  # duplicate filing refused
        assert len(store) == 1 and "k1" in store

    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "results.jsonl"
        record = _one_record()
        store = ResultStore(path)
        store.put("k1", record)
        reopened = ResultStore(path)
        assert reopened.get("k1") == record
        assert reopened.get("k1").content_key() == record.content_key()
        assert reopened.stats()["entries"] == 1

    def test_corrupt_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put("k1", _one_record())
        with path.open("a") as handle:
            handle.write('{"key": "k2", "rec')  # crash mid-append
        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert reopened.skipped_lines == 1

    def test_failure_rows_are_never_cached(self):
        """Satellite: crash/timeout records must not become authoritative."""
        [point] = _grid(values=(4,))
        store = ResultStore()
        crash = RunRecord.from_error(point, "SimulationError: boom")
        timeout = RunRecord.from_error(point, "timeout: no result within 2s")
        assert not store.put("crash", crash)
        assert not store.put("timeout", timeout)
        assert store.get("crash") is None and store.get("timeout") is None
        assert len(store) == 0
        assert store.rejected_failures == 2

    def test_failure_rows_in_file_dropped_on_load(self, tmp_path):
        path = tmp_path / "results.jsonl"
        [point] = _grid(values=(4,))
        bad = RunRecord.from_error(point, "timeout: hand-edited store")
        path.write_text(
            json.dumps({"key": "bad", "record": bad.to_dict()}) + "\n"
        )
        store = ResultStore(path)
        assert store.get("bad") is None
        assert store.rejected_failures == 1


class TestWireProtocol:
    def test_point_round_trip_preserves_identity_and_key(self):
        [point] = _grid(values=(4,))
        rebuilt = point_from_wire(point_to_wire(point))
        assert rebuilt.label == point.label
        assert rebuilt.axis == point.axis
        assert repr(rebuilt.value) == repr(point.value)
        assert rebuilt.engine == point.engine
        assert point_key(rebuilt.spec, engine=rebuilt.engine) == point_key(
            point.spec, engine=point.engine
        )

    def test_wire_point_validation(self):
        [point] = _grid(values=(4,))
        wire = point_to_wire(point)
        with pytest.raises(ConfigError, match="fields"):
            point_from_wire({k: v for k, v in wire.items() if k != "spec"})
        with pytest.raises(ConfigError, match="engine"):
            point_from_wire({**wire, "engine": "warp"})

    def test_wire_point_is_picklable(self):
        import pickle

        [point] = _grid(values=(4,))
        rebuilt = point_from_wire(point_to_wire(point))
        clone = pickle.loads(pickle.dumps(rebuilt))
        assert repr(clone.value) == repr(point.value)


class TestServingAcceptance:
    """The tentpole's asserted behaviours, end-to-end over the socket."""

    def test_second_pass_is_all_cache_hits_and_bit_identical(self, served):
        _server, client = served
        grid = _grid()
        first = client.submit(grid)
        assert first.sources == ("run",) * len(grid)
        assert first.misses == len(grid) and first.hits == 0
        second = client.submit(grid)
        assert second.sources == ("store",) * len(grid)
        assert second.hit_rate == 1.0
        assert second.records == first.records
        assert [r.content_key() for r in second.records] == [
            r.content_key() for r in first.records
        ]

    def test_mixed_submission_runs_only_cold_points(self, served):
        server, client = served
        client.submit(_grid(values=(1, 2)))
        mixed = client.submit(_grid(values=(1, 2, 4, 8)))
        assert mixed.sources == ("store", "store", "run", "run")
        assert mixed.hits == 2 and mixed.misses == 2
        stats = server.stats()
        assert stats["misses"] == 4  # 2 cold + 2 new, never re-run

    def test_records_carry_the_requesters_labels(self, served):
        """A cache replay takes the submitting grid's identity."""
        _server, client = served
        spec = paper_topology(workload=single_master_workload(15))
        first = client.submit(
            sweep(spec, axis="write_buffer_depth", values=(4,))
        )
        relabeled = client.submit(
            sweep(
                spec,
                axis="write_buffer_depth",
                values=(4,),
                labels=("depth-four",),
            )
        )
        assert relabeled.sources == ("store",)
        [a], [b] = first.records, relabeled.records
        assert b.label == "depth-four" and a.label == "write_buffer_depth=4"
        assert b.cycles == a.cycles and b.transactions == a.transactions

    def test_max_cycles_participates_in_the_key(self, served):
        _server, client = served
        grid = _grid(values=(4,))
        bounded = client.submit(grid, max_cycles=200_000)
        unbounded = client.submit(grid)
        assert bounded.sources == ("run",)
        assert unbounded.sources == ("run",)  # different content key
        assert client.submit(grid, max_cycles=200_000).sources == ("store",)

    def test_concurrent_duplicate_submissions(self, served):
        """A burst of identical grids from many clients: one simulation."""
        server, _client = served
        grid = _grid()
        results = []
        errors = []

        def worker():
            try:
                results.append(ServeClient(*server.address).submit(grid))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 6
        reference = results[0].records
        for result in results[1:]:
            assert result.records == reference
        stats = server.stats()
        # Every point simulated exactly once; the other 5 submissions
        # were store or in-flight hits.
        assert stats["misses"] == len(grid)
        assert stats["hits"] == 5 * len(grid)

    def test_status_ping_and_queue_metrics(self, served):
        server, client = served
        assert client.ping() == PROTOCOL
        client.submit(_grid())
        status = client.status()
        assert status["stats"]["submissions"] == 1
        assert status["stats"]["max_queue_depth"] >= 1
        assert status["stats"]["queue_depth"] == 0  # drained
        assert status["store"]["entries"] == 3
        assert server.queue_depth() == 0

    def test_unknown_op_and_empty_submit_answer_with_errors(self, served):
        server, _client = served
        import socket

        with socket.create_connection(server.address, timeout=10) as sock:
            reader = sock.makefile("r", encoding="utf-8")
            writer = sock.makefile("w", encoding="utf-8")
            writer.write(json.dumps({"op": "teleport"}) + "\n")
            writer.flush()
            event = json.loads(reader.readline())
            assert event["event"] == "error" and "teleport" in event["message"]
            # The connection survives a bad op; an empty submit errors too.
            writer.write(json.dumps({"op": "submit", "points": []}) + "\n")
            writer.flush()
            event = json.loads(reader.readline())
            assert event["event"] == "error"

    def test_shutdown_via_client(self):
        with SweepServer() as server:
            client = ServeClient(*server.address)
            assert client.shutdown()
            assert server.wait(timeout=10.0)
            with pytest.raises((SimulationError, OSError)):
                client.ping()


class TestFailureRowsNotAuthoritative:
    """Satellite: a retry after a transient crash re-runs the point."""

    def _crashing_grid(self):
        spec = paper_topology(workload=single_master_workload(12))
        return sweep(spec, axis="engine", values=("rtl",))

    def test_crash_row_returned_but_not_cached(self, served):
        server, client = served
        grid = self._crashing_grid()
        # 3 cycles cannot drain anything: the RTL point raises.
        result = client.submit(grid, max_cycles=3)
        [record] = result.records
        assert record.failed and "SimulationError" in record.error
        assert result.sources == ("run",)
        assert len(server.store) == 0
        # The retry re-runs (a miss again), it does not replay the crash.
        retry = client.submit(grid, max_cycles=3)
        assert retry.sources == ("run",)
        assert retry.records[0].failed
        assert server.stats()["failure_rows"] == 2
        # A successful run under a workable ceiling does get cached.
        good = client.submit(grid, max_cycles=1_000_000)
        assert not good.records[0].failed
        assert client.submit(grid, max_cycles=1_000_000).sources == ("store",)


class TestRoutingUnit:
    """Deterministic in-flight dedupe, without socket timing races."""

    def test_inflight_duplicates_join_the_running_point(self):
        server = SweepServer()  # not started: executor stays parked
        grid = _grid(values=(4,))
        [(point1, key1, source1, pending1)] = server.route(grid)
        [(_point2, key2, source2, pending2)] = server.route(grid)
        assert source1 == "run" and source2 == "inflight"
        assert key1 == key2 and pending1 is pending2
        assert server.queue_depth() == 1
        # Drain the queue by hand (the executor thread is not running).
        batch = server._work.get_nowait()
        server._run_batch(batch)
        assert pending1.wait().transactions > 0
        assert server.queue_depth() == 0
        # Resolved work is now a store hit for everyone.
        [(_point3, _key3, source3, record)] = server.route(grid)
        assert source3 == "store"
        assert record == pending1.record

    def test_route_after_stop_is_refused(self):
        server = SweepServer()
        server.start()
        server.stop()
        with pytest.raises(ServerDraining, match="draining"):
            server.route(_grid(values=(4,)))

    def test_stop_fails_leftover_pendings(self):
        server = SweepServer()  # executor parked: pendings never resolve
        [(point, _key, _source, pending)] = server.route(_grid(values=(4,)))
        server._stopped.set()
        server._work.put(None)
        with server._lock:
            leftovers = list(server._inflight.items())
            server._inflight.clear()
        for _k, p in leftovers:
            p.record = RunRecord.from_error(p.point, "server stopped")
            p.event.set()
        assert pending.wait().failed


def _multi_master_grid(transactions=15, values=(1, 2, 4)):
    spec = paper_topology(transactions)
    return sweep(spec, axis="write_buffer_depth", values=values)


class TestDefaultBackend:
    """The default path runs each cold point once, journaling as it goes."""

    def test_auto_backend_resolution(self):
        assert SweepServer().runner.backend == "serial"
        assert SweepServer(workers=1).runner.backend == "process"
        assert SweepServer(timeout=30.0).runner.backend == "process"

    def test_cold_grid_journals_start_then_done_per_point(self, tmp_path):
        """Each point's ``done`` mark lands before the next ``start``, so
        a kill -9 mid-burst charges a crash only to the running point."""
        journal_path = tmp_path / "journal.jsonl"
        grid = _multi_master_grid()
        with SweepServer(journal=Journal(journal_path)) as server:
            ServeClient(*server.address).submit(grid)
        keys = [
            point_key(point.spec, engine=point.engine, max_cycles=None)
            for point in grid
        ]
        marks = [
            (entry["op"], entry["key"])
            for entry in map(json.loads, journal_path.read_text().splitlines())
            if entry["op"] in ("start", "done")
        ]
        assert marks == [
            (op, key) for key in keys for op in ("start", "done")
        ]

    def test_each_cold_point_builds_once(self, monkeypatch):
        builds = []
        original = SweepPoint.build

        def counting_build(point, **kwargs):
            builds.append(point.label)
            return original(point, **kwargs)

        monkeypatch.setattr(SweepPoint, "build", counting_build)
        grid = _multi_master_grid()
        with SweepServer() as server:
            ServeClient(*server.address).submit(grid)
        assert builds == [point.label for point in grid]

    def test_served_records_match_serial(self, served):
        _server, client = served
        grid = _multi_master_grid()
        served_records = list(client.submit(grid).records)
        assert served_records == SweepRunner(backend="serial").run(grid)

    def test_explicit_serial_backend_still_works(self):
        with SweepServer(backend="serial") as server:
            client = ServeClient(*server.address)
            client.submit(_grid(values=(1, 2)))
            stats = server.stats()
            assert stats["backend"] == "serial"
            assert stats["bursts"] == 1


class TestPersistenceAcrossRestart:
    def test_new_server_on_same_store_starts_warm(self, tmp_path):
        path = tmp_path / "results.jsonl"
        grid = _grid()
        with SweepServer(store=ResultStore(path)) as server:
            first = ServeClient(*server.address).submit(grid)
        with SweepServer(store=ResultStore(path)) as server:
            second = ServeClient(*server.address).submit(grid)
        assert second.sources == ("store",) * len(grid)
        assert second.records == first.records

    def test_point_key_tag_bump_leaves_the_old_store_cold(
        self, tmp_path, monkeypatch
    ):
        """Records filed under one point-key tag are never replayed
        under the next: a bumped model revision reruns every point."""
        from repro.exec import records

        path = tmp_path / "results.jsonl"
        grid = _grid()
        with SweepServer(store=ResultStore(path)) as server:
            cold = ServeClient(*server.address).submit(grid)
        monkeypatch.setattr(records, "POINT_KEY_SCHEMA", "ahbplus-point-bumped")
        with SweepServer(store=ResultStore(path)) as server:
            bumped = ServeClient(*server.address).submit(grid)
        assert bumped.hits == 0
        assert bumped.sources == ("run",) * len(grid)
        assert bumped.records == cold.records


class TestCli:
    """`python -m repro.serve` end-to-end: serve, submit, status, shutdown."""

    def _run(self, *argv, timeout=120):
        return subprocess.run(
            [sys.executable, "-m", "repro.serve", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=str(REPO),
            env={
                "PYTHONPATH": str(REPO / "src"),
                "PATH": "/usr/bin:/bin:/usr/local/bin",
            },
        )

    def test_full_cli_session(self, tmp_path):
        store = tmp_path / "results.jsonl"
        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "serve",
                "--port",
                "0",
                "--store",
                str(store),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(REPO),
            env={
                "PYTHONPATH": str(REPO / "src"),
                "PATH": "/usr/bin:/bin:/usr/local/bin",
            },
        )
        try:
            banner = daemon.stdout.readline()
            assert "listening on" in banner, banner
            port = banner.split("listening on ")[1].split()[0].split(":")[1]
            submit_args = (
                "submit",
                "--port",
                port,
                "--transactions",
                "15",
                "--values",
                "1,4",
            )
            cold = self._run(*submit_args)
            assert cold.returncode == 0, cold.stderr
            assert "2 simulated" in cold.stdout
            warm = self._run(*submit_args)
            assert warm.returncode == 0, warm.stderr
            assert "hit rate 100%" in warm.stdout
            status = self._run("status", "--port", port, "--json")
            assert status.returncode == 0, status.stderr
            payload = json.loads(status.stdout)
            assert payload["stats"]["hits"] == 2
            assert payload["store"]["entries"] == 2
            assert payload["stats"]["uptime_seconds"] >= 0.0
            assert payload["stats"]["draining"] is False
            assert payload["stats"]["quarantine"] == []
            assert payload["journal"]["pending"] == 0
            human = self._run("status", "--port", port)
            assert human.returncode == 0, human.stderr
            assert "quarantine:" in human.stdout
            assert "journal:" in human.stdout
            bye = self._run("shutdown", "--port", port)
            assert bye.returncode == 0, bye.stderr
            daemon.wait(timeout=30)
            assert daemon.returncode == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
            daemon.communicate()  # reaps it and closes its pipes

    def test_submit_against_dead_server_fails_cleanly(self):
        result = self._run("status", "--port", "1", timeout=60)
        assert result.returncode == 1
        assert "error:" in result.stderr


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class _Rng:
    """Deterministic ``random()`` source for backoff tests."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 0.0


class TestJournal:
    """The write-ahead log: pending work, crash counts, durability."""

    def _accept_one(self, journal, value=4):
        [point] = _grid(values=(value,))
        key = point_key(point.spec, engine=point.engine, max_cycles=None)
        journal.record_accept(key, point_to_wire(point), None)
        return key

    def test_accept_start_done_lifecycle(self):
        journal = Journal()
        key = self._accept_one(journal)
        assert len(journal) == 1
        [(pending_key, wire, ceiling)] = journal.pending()
        assert pending_key == key and ceiling is None
        assert wire["label"] == "write_buffer_depth=4"
        journal.record_start(key)
        journal.record_done(key)
        assert journal.pending() == [] and len(journal) == 0
        journal.record_done(key)  # idempotent: recovery may re-mark
        assert journal.stats()["completed"] == 1

    def test_fail_counts_and_done_resets_the_streak(self):
        journal = Journal()
        key = self._accept_one(journal)
        journal.record_fail(key, "boom")
        self._accept_one(journal)
        journal.record_fail(key, "boom again")
        assert journal.crash_count(key) == 2
        assert journal.quarantined(threshold=2) == [key]
        self._accept_one(journal)
        journal.record_start(key)
        journal.record_done(key)
        assert journal.crash_count(key) == 0
        assert journal.quarantined(threshold=2) == []

    def test_persists_and_reloads_pending_work(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        key = self._accept_one(journal)
        done_key = self._accept_one(journal, value=8)
        journal.record_start(done_key)
        journal.record_done(done_key)
        reopened = Journal(path)
        [(pending_key, wire, _ceiling)] = reopened.pending()
        assert pending_key == key
        assert point_from_wire(wire).label == "write_buffer_depth=4"
        assert reopened.stats()["completed"] == 1

    def test_interrupted_start_counts_as_a_crash_on_replay(self, tmp_path):
        """A start with no terminal mark means the server died mid-attempt."""
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        key = self._accept_one(journal)
        journal.record_start(key)  # ... and then the process was killed
        reopened = Journal(path)
        assert reopened.crash_count(key) == 1
        assert [k for k, _w, _c in reopened.pending()] == [key]
        # A live attempt in the same process is NOT a crash.
        assert journal.crash_count(key) == 0

    def test_torn_tail_tolerated_and_healed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        key = self._accept_one(journal)
        with path.open("a") as handle:
            handle.write('{"op": "sta')  # crash mid-append
        reopened = Journal(path)
        assert reopened.skipped_lines == 1
        assert [k for k, _w, _c in reopened.pending()] == [key]
        # The next append heals the torn line instead of merging into it.
        reopened.record_start(key)
        again = Journal(path)
        assert again.skipped_lines == 1
        assert again.crash_count(key) == 1  # the healed start replayed


class TestConcurrentWriters:
    """Satellite: two servers on one store path, one crashing mid-append."""

    def test_corrupt_tail_from_crashed_second_writer(self, tmp_path):
        path = tmp_path / "results.jsonl"
        survivor = ResultStore(path)
        survivor.put("k1", _one_record())
        # A second server holding the same path crashes mid-append,
        # leaving a torn line with no trailing newline...
        with path.open("a") as handle:
            handle.write('{"key": "k2", "rec')
        # ...and the survivor's next append must not merge into it.
        assert survivor.put("k3", _one_record())
        reopened = ResultStore(path)
        assert reopened.get("k1") is not None
        assert reopened.get("k3") is not None
        assert reopened.get("k2") is None
        assert reopened.skipped_lines == 1  # only the torn fragment lost

    def test_heal_torn_tail_is_idempotent(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"key": "k1"')  # no newline
        assert heal_torn_tail(path) is True
        assert heal_torn_tail(path) is False  # already terminated
        assert path.read_text().endswith("\n")

    def test_first_write_wins_across_writers_on_load(self, tmp_path):
        """Duplicate key lines on disk: the earliest one is authoritative."""
        path = tmp_path / "results.jsonl"
        first, second = _one_record(), _one_record(transactions=11)
        with path.open("w") as handle:
            handle.write(json.dumps({"key": "k", "record": first.to_dict()}))
            handle.write("\n")
            handle.write(json.dumps({"key": "k", "record": second.to_dict()}))
            handle.write("\n")
        store = ResultStore(path)
        assert store.get("k") == first
        assert len(store) == 1


class TestCrashRecovery:
    """Tentpole: journaled work re-runs after a crash, bit-identically."""

    def test_accepted_but_unexecuted_work_reruns_on_restart(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        journal_path = tmp_path / "journal.jsonl"
        grid = _grid()
        # Server 1 accepts and journals the grid but is never started:
        # its executor never runs — the moral equivalent of kill -9
        # right after the accepts hit the journal.
        crashed = SweepServer(
            store=ResultStore(store_path), journal=Journal(journal_path)
        )
        crashed.route(grid)
        assert len(Journal(journal_path)) == len(grid)
        # Server 2 on the same store+journal recovers automatically.
        with SweepServer(
            store=ResultStore(store_path), journal=Journal(journal_path)
        ) as recovered:
            assert _wait_until(lambda: len(recovered.store) == len(grid))
            assert _wait_until(lambda: len(recovered.journal) == 0)
            result = ServeClient(*recovered.address).submit(grid)
            stats = recovered.stats()
        assert result.sources == ("store",) * len(grid)
        baseline = SweepRunner(backend="serial").run(grid)
        assert list(result.records) == baseline  # equality excludes wall time
        assert stats["recovered_rerun"] == len(grid)

    def test_finished_work_replays_from_store_not_rerun(self, tmp_path):
        """A result that landed without its done mark replays for free."""
        self._recover_one_finished_point(tmp_path, cold_values=())

    def test_journaled_points_without_results_rerun_beside_a_replay(self, tmp_path):
        """Journaled points with no stored result re-run next to the replay."""
        self._recover_one_finished_point(tmp_path, cold_values=(1, 2))

    @staticmethod
    def _recover_one_finished_point(tmp_path, cold_values):
        store_path = tmp_path / "results.jsonl"
        journal_path = tmp_path / "journal.jsonl"
        [point] = _grid(values=(4,))
        key = point_key(point.spec, engine=point.engine, max_cycles=None)
        store = ResultStore(store_path)
        store.put(key, _one_record(transactions=15))
        journal = Journal(journal_path)
        journal.record_accept(key, point_to_wire(point), None)
        journal.record_start(key)  # killed between store.put and done mark
        cold = _grid(values=cold_values) if cold_values else []
        for extra in cold:
            journal.record_accept(
                point_key(extra.spec, engine=extra.engine, max_cycles=None),
                point_to_wire(extra),
                None,
            )
        with SweepServer(
            store=ResultStore(store_path), journal=Journal(journal_path)
        ) as server:
            stats = server.stats()
            assert stats["recovery_replayed"] == 1
            assert stats["recovered_rerun"] == len(cold)
            # The replay's done mark is re-stamped during recovery, before
            # the executor starts; the re-runs write theirs as they finish.
            assert len(server.journal) <= len(cold)
            assert _wait_until(lambda: len(server.journal) == 0)
            assert len(server.store) == 1 + len(cold)

    def test_unrecoverable_accept_entry_is_failed_not_fatal(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        journal = Journal(journal_path)
        journal.record_accept("badkey", {"label": "broken"}, None)
        with SweepServer(journal=Journal(journal_path)) as server:
            assert len(server.journal) == 0
            assert server.journal.crash_count("badkey") == 1


class TestDrain:
    """Tentpole: graceful draining refuses, finishes, journals the rest."""

    def test_route_refused_while_draining(self):
        server = SweepServer()
        server._draining.set()
        with pytest.raises(ServerDraining, match="draining"):
            server.route(_grid(values=(4,)))
        server._draining.clear()

    def test_drain_keeps_queued_work_journaled(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        # Executor parked (never started): routed work stays queued.
        server = SweepServer(journal=Journal(journal_path))
        outcomes = server.route(_grid(values=(2, 4)))
        server.drain(timeout=0.5)
        for _point, _key, _source, pending in outcomes:
            record = pending.wait()
            assert record.failed
            assert "journaled" in record.error
        assert len(Journal(journal_path)) == 2  # pending for the next start
        assert server.stats()["draining"] is True

    def test_drain_op_over_the_wire(self):
        with SweepServer() as server:
            client = ServeClient(*server.address)
            warm = client.submit(_grid(values=(4,)))
            assert not warm.records[0].failed
            assert client.drain() is True
            assert _wait_until(server._stopped.is_set, timeout=10)

    def test_sigterm_drains_the_cli_daemon(self, tmp_path):
        import signal as _signal

        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "serve",
                "--port",
                "0",
                "--journal",
                str(tmp_path / "journal.jsonl"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=str(REPO),
            env={
                "PYTHONPATH": str(REPO / "src"),
                "PATH": "/usr/bin:/bin:/usr/local/bin",
            },
        )
        try:
            banner = daemon.stdout.readline()
            assert "listening on" in banner, banner
            daemon.send_signal(_signal.SIGTERM)
            daemon.wait(timeout=30)
            assert daemon.returncode == 0
            tail = daemon.stdout.read()
            assert "draining" in tail and "stopped" in tail
        finally:
            if daemon.poll() is None:
                daemon.kill()
            daemon.communicate()  # reaps it and closes its pipes


class TestBackpressure:
    """Tentpole: bounded queueing with structured overload shedding."""

    def test_submission_past_the_bound_is_shed_whole(self):
        # Executor parked: accepted work stays queued forever.
        server = SweepServer(max_queue_depth=1)
        server.route(_grid(values=(4,)))
        journaled = len(server.journal)
        with pytest.raises(ServerOverloaded) as caught:
            server.route(_grid(values=(1, 2)))
        assert caught.value.retry_after > 0
        assert caught.value.queue_depth == 1
        # Refused whole: nothing from the shed submission was journaled.
        assert len(server.journal) == journaled
        stats = server.stats()
        assert stats["shed_submissions"] == 1
        assert stats["shed_points"] == 2
        assert stats["retry_after_hint"] > 0

    def test_warm_points_do_not_count_toward_the_bound(self, served):
        server, client = served
        grid = _grid(values=(1, 2, 4))
        client.submit(grid)
        # Everything is cached now: a tiny bound still admits the grid.
        server.max_queue_depth = 1
        result = client.submit(grid)
        assert result.hits == len(grid)

    def test_overloaded_event_over_the_wire(self, served):
        server, client = served
        server.max_queue_depth = 1
        # Fake a full queue (inert occupiers, nothing runs), then ask
        # for more cold points than the bound admits — via a raw socket
        # so the structured event itself is visible.
        sock = socket.create_connection(server.address, timeout=10)
        try:
            with server._lock:
                for index in range(2):
                    server._inflight[f"occupier-{index}"] = _FakePending()
            writer = sock.makefile("w")
            reader = sock.makefile("r")
            payload = {
                "op": "submit",
                "points": [point_to_wire(p) for p in _grid(values=(1, 2))],
                "max_cycles": None,
            }
            writer.write(json.dumps(payload) + "\n")
            writer.flush()
            event = json.loads(reader.readline())
            assert event["event"] == "overloaded"
            assert event["retry_after"] > 0
            assert event["queue_depth"] == 2
            # The connection survives an overload refusal.
            writer.write(json.dumps({"op": "ping"}) + "\n")
            writer.flush()
            assert json.loads(reader.readline())["event"] == "pong"
        finally:
            sock.close()
            with server._lock:
                server._inflight.clear()


class _FakePending:
    """Inert queue occupier for backpressure tests."""


class TestQuarantine:
    """Tentpole: repeatedly-crashing points are parked, not re-run."""

    def _poison(self):
        spec = paper_topology(workload=single_master_workload(12))
        return sweep(spec, axis="engine", values=("rtl",))

    def test_point_parked_after_threshold_crashes(self):
        with SweepServer(quarantine_threshold=2) as server:
            client = ServeClient(*server.address)
            poison = self._poison()
            for _attempt in range(2):
                result = client.submit(poison, max_cycles=3)
                assert result.records[0].failed
                assert result.quarantined == 0
            parked = client.submit(poison, max_cycles=3)
            assert parked.quarantined == 1
            assert parked.sources == ("quarantined",)
            assert "quarantined" in parked.records[0].error
            [entry] = server.quarantine()
            assert entry["crashes"] >= 2
            assert entry["label"] == poison[0].label
            status = client.status()
            assert status["stats"]["quarantine"] == server.quarantine()
            assert status["stats"]["quarantined_answers"] == 1

    def test_quarantine_survives_restart_via_journal(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        [point] = self._poison()
        key = point_key(point.spec, engine=point.engine, max_cycles=3)
        journal = Journal(journal_path)
        for _attempt in range(2):
            journal.record_accept(key, point_to_wire(point), 3)
            journal.record_fail(key, "SimulationError: ceiling")
        with SweepServer(
            journal=Journal(journal_path), quarantine_threshold=2
        ) as server:
            result = ServeClient(*server.address).submit([point], max_cycles=3)
            assert result.sources == ("quarantined",)
            assert server.stats()["recovered_rerun"] == 0

    def test_success_is_never_quarantined(self, served):
        server, client = served
        for _pass in range(4):
            result = client.submit(_grid(values=(4,)))
            assert not result.records[0].failed
        assert server.quarantine() == []


class TestClientResilience:
    """Tentpole: exponential backoff with jitter, idempotent teardown."""

    def test_knob_validation(self):
        with pytest.raises(ConfigError, match="port"):
            ServeClient(port=0)
        with pytest.raises(ConfigError, match="retries"):
            ServeClient(port=1, retries=-1)
        with pytest.raises(ConfigError, match="jitter"):
            ServeClient(port=1, jitter=1.5)

    def test_backoff_shape_and_jitter_down_only(self):
        client = ServeClient(
            port=1,
            backoff_base=0.1,
            backoff_max=1.0,
            jitter=0.5,
            rng=_Rng([0.0, 1.0, 0.0]),
        )
        assert client._backoff_delay(0, 0.0) == pytest.approx(0.1)
        # Full jitter shaves half the delay off, never adds.
        assert client._backoff_delay(1, 0.0) == pytest.approx(0.1)
        # The cap bounds the exponential; the server hint floors it.
        assert client._backoff_delay(10, 0.0) == pytest.approx(1.0)
        assert client._backoff_delay(0, 5.0) == pytest.approx(5.0)

    def test_connect_failures_retry_then_raise(self):
        sleeps = []
        client = ServeClient(
            port=1,  # nothing listens here
            retries=2,
            backoff_base=0.01,
            backoff_max=0.02,
            sleep=sleeps.append,
            rng=_Rng([0.0, 0.0]),
        )
        with pytest.raises(SimulationError, match="after 3 attempts"):
            client.ping()
        assert len(sleeps) == 2
        assert len(client.retry_log) == 2

    def _canned_server(self, scripts):
        """A fake daemon: per connection, read one line, play a script."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()

        def serve():
            for script in scripts:
                conn, _addr = listener.accept()
                with conn, conn.makefile("r", encoding="utf-8") as reader:
                    reader.readline()
                    with conn.makefile("w", encoding="utf-8") as writer:
                        for event in script:
                            writer.write(json.dumps(event) + "\n")
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener.getsockname()[1], thread

    @staticmethod
    def _store_hit():
        """A canned script: one point answered from the store."""
        return [
            {"event": "accepted", "job": 1, "points": 1},
            {
                "event": "result",
                "job": 1,
                "index": 0,
                "key": "k",
                "cached": True,
                "source": "store",
                "record": _one_record().to_dict(),
            },
            {"event": "done", "job": 1, "hits": 1, "misses": 0},
        ]

    def test_overloaded_retry_honours_the_servers_hint(self):
        [point] = _grid(values=(4,))
        success = self._store_hit()
        port, thread = self._canned_server(
            [
                [
                    {
                        "event": "overloaded",
                        "message": "queue full",
                        "retry_after": 0.7,
                        "queue_depth": 9,
                    }
                ],
                success,
            ]
        )
        sleeps = []
        client = ServeClient(
            port=port,
            retries=2,
            backoff_base=0.01,
            sleep=sleeps.append,
            rng=_Rng([0.0]),
        )
        result = client.submit([point])
        thread.join(timeout=10)
        assert result.hits == 1
        # The server's hint floors the backoff delay.
        assert sleeps == [pytest.approx(0.7)]
        [(reason, delay)] = client.retry_log
        assert "overloaded" in reason and delay == pytest.approx(0.7)

    def test_draining_response_is_retried(self):
        [point] = _grid(values=(4,))
        success = self._store_hit()
        port, thread = self._canned_server(
            [[{"event": "draining", "message": "going down"}], success]
        )
        client = ServeClient(
            port=port, retries=1, backoff_base=0.001, sleep=lambda _d: None
        )
        result = client.submit([point])
        thread.join(timeout=10)
        assert result.hits == 1
        assert "draining" in client.retry_log[0][0]

    def test_connections_are_closed_on_success_and_retry(self):
        """Reader, writer and socket close together: no fd outlives a call."""
        [point] = _grid(values=(4,))
        port, thread = self._canned_server(
            [
                [{"event": "pong", "protocol": PROTOCOL}],
                [{"event": "draining", "message": "going down"}],
                self._store_hit(),
            ]
        )
        client = ServeClient(
            port=port, retries=1, backoff_base=0.001, sleep=lambda _d: None
        )
        gc.collect()  # earlier tests' garbage must not count here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert client.ping() == PROTOCOL
            assert client.submit([point]).hits == 1
            thread.join(timeout=10)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]

    def test_shutdown_and_drain_return_false_on_dead_server(self):
        """Satellite: idempotent teardown — no raise, just False."""
        client = ServeClient(port=1, retries=0)
        assert client.shutdown() is False
        assert client.drain() is False

    def test_shutdown_true_then_false_across_restart(self):
        with SweepServer() as server:
            client = ServeClient(*server.address)
            assert client.shutdown() is True
            assert _wait_until(server._stopped.is_set, timeout=10)
        assert client.shutdown() is False  # already gone: still no raise


class TestProtocolRobustness:
    """Satellite: malformed input gets error events, never thread death."""

    def _raw(self, address, payload, expect_reply=True, timeout=10):
        sock = socket.create_connection(address, timeout=timeout)
        try:
            sock.sendall(payload)
            if not expect_reply:
                return None
            reader = sock.makefile("r", encoding="utf-8")
            line = reader.readline()
            return json.loads(line) if line else None
        finally:
            sock.close()

    def test_unknown_request_fields_are_ignored(self, served):
        """Forward compatibility: a v3 client's extra fields are inert."""
        server, client = served
        payload = json.dumps(
            {
                "op": "submit",
                "points": [point_to_wire(p) for p in _grid(values=(4,))],
                "max_cycles": None,
                "retry_after": 1.5,  # not a request field; must be ignored
                "priority": "high",
            }
        ).encode() + b"\n"
        event = self._raw(server.address, payload)
        assert event["event"] == "accepted"
        assert client.ping() == PROTOCOL

    @staticmethod
    def _spoiled_submit(spoil):
        [wire] = [point_to_wire(p) for p in _grid(values=(4,))]
        spoil(wire["spec"])
        return {"op": "submit", "points": [wire]}

    @pytest.mark.parametrize(
        "spoil, detail",
        [
            (lambda spec: spec["workload"].update(gen_mode="stream"), "stream"),
            (lambda spec: spec.pop("name"), "name"),
            (lambda spec: spec["workload"].update(seed="x"), "'x'"),
            (lambda spec: spec["workload"].update(sed=99), "sed"),
        ],
        ids=["removed-generator", "no-name", "bad-seed", "unknown-key"],
    )
    def test_malformed_spec_answers_error_then_serves(self, served, spoil, detail):
        """A spec that does not decode gets an error event naming the
        point, and the same connection still serves a valid submit."""
        server, client = served
        good = {
            "op": "submit",
            "points": [point_to_wire(p) for p in _grid(values=(4,))],
        }
        with socket.create_connection(server.address, timeout=30) as sock:
            reader = sock.makefile("r", encoding="utf-8")
            writer = sock.makefile("w", encoding="utf-8")
            for request in (self._spoiled_submit(spoil), good):
                writer.write(json.dumps(request) + "\n")
                writer.flush()
                event = json.loads(reader.readline())
                if request is not good:
                    assert event["event"] == "error"
                    assert "write_buffer_depth=4" in event["message"]
                    assert detail in event["message"]
            assert event["event"] == "accepted"
        assert client.ping() == PROTOCOL

    def test_malformed_spec_raises_config_error_naming_the_point(self):
        wire = self._spoiled_submit(lambda spec: spec.pop("name"))["points"][0]
        with pytest.raises(ConfigError, match=r"point 'write_buffer_depth=4'.*'name'"):
            point_from_wire(wire)

    def test_malformed_json_line_answers_error(self, served):
        server, client = served
        event = self._raw(server.address, b"this is not json\n")
        assert event["event"] == "error"
        assert "malformed" in event["message"]
        assert client.ping() == PROTOCOL  # the server lived

    def test_truncated_submit_mid_line_during_drain(self, served):
        """A client dying mid-line while the server drains hurts nobody."""
        server, client = served
        server._draining.set()
        try:
            self._raw(
                server.address,
                b'{"op": "submit", "points": [{"lab',  # no newline: EOF
                expect_reply=False,
            )
            # The acceptor and its handler threads survived.
            status = client.status()
            assert status["stats"]["draining"] is True
        finally:
            server._draining.clear()

    def test_submit_during_drain_gets_structured_draining_event(self, served):
        server, client = served
        server._draining.set()
        try:
            payload = json.dumps(
                {
                    "op": "submit",
                    "points": [point_to_wire(p) for p in _grid(values=(4,))],
                }
            ).encode() + b"\n"
            event = self._raw(server.address, payload)
            assert event["event"] == "draining"
        finally:
            server._draining.clear()

    def test_bad_max_cycles_is_an_error_event(self, served):
        server, client = served
        payload = json.dumps(
            {
                "op": "submit",
                "points": [point_to_wire(p) for p in _grid(values=(4,))],
                "max_cycles": "many",
            }
        ).encode() + b"\n"
        event = self._raw(server.address, payload)
        assert event["event"] == "error"
        assert "max_cycles" in event["message"]
        assert client.ping() == PROTOCOL


class TestStatusSurface:
    """Satellite: machine-readable status with the supervision fields."""

    def test_stats_carry_the_supervision_block(self, served):
        server, client = served
        client.submit(_grid(values=(4,)))
        stats = client.status()["stats"]
        assert stats["uptime_seconds"] >= 0.0
        assert stats["queue_depth"] == 0
        assert stats["in_flight"] == 0
        assert stats["queue_bound"] == server.max_queue_depth
        assert stats["quarantine"] == []
        assert stats["quarantine_threshold"] == server.quarantine_threshold
        assert stats["draining"] is False and stats["stopped"] is False
        assert stats["retry_after_hint"] > 0
        assert stats["shed_submissions"] == 0
        assert stats["recovered_rerun"] == 0
        journal = client.status()["journal"]
        assert journal["pending"] == 0 and journal["completed"] == 1
