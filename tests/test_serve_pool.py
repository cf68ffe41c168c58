"""The sweep server's worker pool: forked once, never orphaned, and a
worker killed mid-point fails only the point that killed it.

Linux-only, like the pool's parent-death signal: liveness is read from
``/proc``, where a reaped or zombie worker counts as gone.
"""

import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.core  # noqa: F401  (anchor package import order)
from repro.errors import SimulationError
from repro.exec import SweepRunner
from repro.exec.records import point_key
from repro.serve import Journal, ServeClient, SweepServer
from repro.system import paper_topology, sweep
from repro.system.spec import SweepPoint

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _grid(values=(1, 2, 4)):
    return sweep(paper_topology(15), axis="write_buffer_depth", values=values)


def _running(pid: int) -> bool:
    """Whether *pid* is a live (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _children() -> set:
    return {child.pid for child in multiprocessing.active_children()}


class TestPoolLifetime:
    def test_start_forks_the_pool_and_stop_leaves_no_child(self):
        before = _children()
        with SweepServer(workers=2) as server:
            workers = _children() - before
            assert len(workers) == 2  # forked in start(), before any submit
            with ServeClient(*server.address) as client:
                assert client.submit(_grid()).sources == ("run",) * 3
            assert _children() - before == workers  # the same pool served it
        assert _children() == before
        assert not any(_running(pid) for pid in workers)

    def test_failed_bind_leaves_no_child(self):
        with SweepServer(workers=1) as server:
            running = _children()
            taken = SweepServer(workers=1, port=server.address[1])
            with pytest.raises(OSError):
                taken.start()
            assert _children() == running

    def test_workers_die_with_a_sigkilled_server(self):
        script = (
            "import multiprocessing, sys, time\n"
            "from repro.serve import SweepServer\n"
            "SweepServer(workers=2).start()\n"
            "pids = [child.pid for child in multiprocessing.active_children()]\n"
            "print(' '.join(map(str, pids)), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert len(workers) == 2
        deadline = time.monotonic() + 2.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not [pid for pid in workers if _running(pid)]

    def test_stop_terminates_a_running_point_and_keeps_it_journaled(
        self, monkeypatch, tmp_path
    ):
        """``stop()`` does not wait for a long point: it terminates the
        worker, answers the point without a crash mark, and the journal
        keeps it for the next start."""
        # Patched before start(): the forked worker inherits it.
        monkeypatch.setattr(SweepPoint, "build", _sleep_at_depth_2(30.0))
        before = _children()
        server = SweepServer(
            workers=1, journal=Journal(tmp_path / "journal.jsonl")
        )
        server.start()
        try:
            [(_point, key, source, pending)] = server.route(_grid(values=(2,)))
            assert source == "run"
            deadline = time.monotonic() + 10.0
            while not server.in_flight() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.in_flight() == 1
            began = time.monotonic()
            server.stop()
            assert time.monotonic() - began < 5.0
        finally:
            server.stop()
        assert pending.wait().failed and "journaled" in pending.record.error
        assert [entry[0] for entry in server.journal.pending()] == [key]
        assert server.journal.crash_count(key) == 0
        assert _children() == before


def _sleep_at_depth_2(seconds: float):
    """A ``SweepPoint.build`` that sleeps before building the
    ``write_buffer_depth=2`` point."""
    original = SweepPoint.build

    def build(point, **kwargs):
        if point.label.endswith("=2"):
            time.sleep(seconds)
        return original(point, **kwargs)

    return build


def _kill_worker_at_depth_2(point, _platform, _result):
    """Collector that SIGKILLs its worker on the ``write_buffer_depth=2``
    point: every time, or only the first time when ``$KILL_ONCE_FLAG``
    names a file for it to create."""
    if point.label.endswith("=2"):
        flag = os.environ.get("KILL_ONCE_FLAG")
        if flag is None or not os.path.exists(flag):
            if flag is not None:
                Path(flag).touch()
            os.kill(os.getpid(), signal.SIGKILL)
    return {}


class TestKilledWorker:
    def test_only_the_point_that_kills_its_worker_is_quarantined(
        self, monkeypatch, tmp_path
    ):
        """The killed worker's burst loses every point still out, but
        each re-runs alone: only the point that kills its worker again
        gets a failure row and a crash strike, so ``quarantine_threshold``
        submissions park it and nothing submitted beside it."""
        grid = _grid(values=(1, 2, 4, 8))
        keys = [
            point_key(point.spec, engine=point.engine, max_cycles=None)
            for point in grid
        ]
        with SweepServer(
            workers=2, journal=Journal(tmp_path / "journal.jsonl")
        ) as server:
            monkeypatch.setattr(
                server.runner,
                "run",
                functools.partial(
                    server.runner.run, collect=_kill_worker_at_depth_2
                ),
            )
            threshold = server.quarantine_threshold
            with ServeClient(*server.address, timeout=60.0) as client:
                replies = [client.submit(grid) for _ in range(threshold)]
                parked = client.submit(grid)
            stats = server.stats()
        for reply in replies:
            assert [record.failed for record in reply.records] == [
                False, True, False, False
            ]
            assert "worker process died" in reply.records[1].error
        assert replies[0].sources == ("run",) * 4
        assert replies[-1].sources == ("store", "run", "store", "store")
        assert parked.sources == ("store", "quarantined", "store", "store")
        assert [row["key"] for row in stats["quarantine"]] == [keys[1]]
        assert stats["failure_rows"] == threshold
        assert [server.journal.crash_count(key) for key in keys] == [
            0, threshold, 0, 0
        ]

    def test_a_worker_killed_once_loses_no_point(self, monkeypatch, tmp_path):
        monkeypatch.setenv("KILL_ONCE_FLAG", str(tmp_path / "killed"))
        with SweepRunner(
            backend="process", workers=2, on_error="record"
        ) as runner:
            records = runner.run(_grid(), collect=_kill_worker_at_depth_2)
            assert (tmp_path / "killed").exists()
            assert not any(record.failed for record in records)
            assert runner.run(_grid()) == SweepRunner().run(_grid())

    def test_raise_policy_names_the_point_that_kills_its_worker(self):
        with SweepRunner(backend="process", workers=2) as runner:
            with pytest.raises(
                SimulationError, match="'write_buffer_depth=2'.*worker process died"
            ):
                runner.run(_grid(), collect=_kill_worker_at_depth_2)
            assert [record.failed for record in runner.run(_grid())] == [
                False
            ] * 3
