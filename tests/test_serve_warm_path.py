"""The serve request path: one key per point, off the lock; coalesced sends.

``SweepServer.route`` keys each submitted point exactly once, before it
takes the server lock that the executor's ``_finish`` also needs, and a
point that cannot be keyed leaves nothing journaled or counted.  The
connection handler writes ``accepted`` and every ``result`` unflushed:
it flushes only before it blocks on a running point and with ``done``,
so a fully cached submission leaves in one send while a cold one still
gets every known event out before the handler waits.  The events
themselves are the ones a client sees over a real socket.
"""

import json
import threading
from dataclasses import replace

import pytest

import repro.core  # noqa: F401  (anchor package import order)
import repro.serve.server as server_module
from repro.errors import ConfigError
from repro.exec import point_key
from repro.serve import (
    ServeClient,
    ServerOverloaded,
    SweepServer,
    point_to_wire,
)
from repro.serve.server import _Handler
from repro.system import paper_topology, sweep
from repro.traffic import single_master_workload


def _grid(values=(1, 2, 4, 8)):
    spec = paper_topology(workload=single_master_workload(15))
    return sweep(spec, axis="write_buffer_depth", values=values)


def _settle(server):
    """Run the parked executor's queued work by hand."""
    server._run_batch(server._work.get_nowait())


@pytest.fixture()
def spy_keys(monkeypatch):
    """Install a ``point_key`` spy for a server; returns its call log.

    Each call appends whether that server's lock was held at the time.
    """

    def install(server):
        calls = []

        def spy(spec, engine="tlm", max_cycles=None):
            calls.append(server._lock.locked())
            return point_key(spec, engine=engine, max_cycles=max_cycles)

        monkeypatch.setattr(server_module, "point_key", spy)
        return calls

    return install


class TestRouteKeying:
    def test_one_key_per_point_none_under_the_lock(self, spy_keys):
        server = SweepServer()  # not started: the executor stays parked
        grid = _grid()
        server.route(grid[:1])
        _settle(server)  # grid[0] is now a store hit
        server.route(grid[1:2])  # grid[1] is now in flight
        parked = point_key(grid[2].spec)
        server._quarantine[parked] = {"label": "parked", "crashes": 3}
        calls = spy_keys(server)
        outcomes = server.route(grid)
        assert [source for _p, _k, source, _s in outcomes] == [
            "store",
            "inflight",
            "quarantined",
            "run",
        ]
        assert len(calls) == len(grid)
        assert not any(calls)

    def test_a_shed_submission_is_keyed_once_too(self, spy_keys):
        server = SweepServer(max_queue_depth=1)
        calls = spy_keys(server)
        with pytest.raises(ServerOverloaded):
            server.route(_grid(values=(1, 2)))
        assert calls == [False, False]

    def test_unkeyable_point_leaves_journal_and_counters_untouched(self):
        server = SweepServer()
        grid = _grid()
        server.route(grid[:1])
        stats, journal = server.stats(), server.journal.stats()
        queued = server._work.qsize()
        bad = replace(grid[2], engine="warp")
        with pytest.raises(ConfigError, match="unknown engine 'warp'"):
            server.route([grid[1], bad, grid[3]])
        assert server.stats() == stats
        assert server.journal.stats() == journal
        assert server._work.qsize() == queued
        assert server.queue_depth() == 1


class _RecordingWriter:
    """A text stream that logs every ``write`` and ``flush`` in order."""

    def __init__(self):
        self.calls = []
        self.flushed = threading.Event()

    def write(self, text):
        self.calls.append(("write", text))

    def flush(self):
        self.calls.append(("flush", None))
        self.flushed.set()

    def flushes(self):
        return sum(1 for kind, _text in self.calls if kind == "flush")

    def events(self, upto=None):
        calls = self.calls if upto is None else self.calls[:upto]
        return [
            json.loads(line)
            for kind, text in calls
            if kind == "write"
            for line in text.splitlines()
        ]


def _handle_submit(server, grid, writer):
    handler = object.__new__(_Handler)  # no socket: drive the method alone
    message = {
        "op": "submit",
        "points": [point_to_wire(point) for point in grid],
        "max_cycles": None,
    }
    handler._handle_submit(server, message, writer)


def _comparable(events, wall=True):
    """Events without the per-submission job number (and, unless *wall*,
    without the records' wall time, which differs between two runs)."""
    out = []
    for event in events:
        event = {k: v for k, v in event.items() if k != "job"}
        if "record" in event and not wall:
            event["record"] = {
                k: v for k, v in event["record"].items() if k != "wall_seconds"
            }
        out.append(event)
    return out


class TestReplyFraming:
    def test_cached_submission_is_one_flush_and_matches_the_socket(self):
        grid = _grid()
        with SweepServer() as server:
            client = ServeClient(*server.address)
            client.submit(grid)
            seen = []
            client.submit(grid, on_event=seen.append)
            writer = _RecordingWriter()
            _handle_submit(server, grid, writer)
        assert writer.flushes() == 1
        assert writer.calls[-1] == ("flush", None)
        events = writer.events()
        assert [event["event"] for event in events] == (
            ["accepted"] + ["result"] * len(grid) + ["done"]
        )
        assert [e["source"] for e in events[1:-1]] == ["store"] * len(grid)
        # Same store records on both paths: only the job number differs.
        assert _comparable(events) == _comparable(seen)

    @pytest.mark.parametrize("cached", [0, 2], ids=["cold", "half-cached"])
    def test_cold_submission_flushes_known_events_before_blocking(self, cached):
        grid = _grid()
        server = SweepServer()  # parked executor: the handler must block
        if cached:
            server.route(grid[:cached])
            _settle(server)
        writer = _RecordingWriter()
        thread = threading.Thread(
            target=_handle_submit, args=(server, grid, writer)
        )
        thread.start()
        try:
            assert writer.flushed.wait(30.0)
            # Blocked on the first running point: everything known so far
            # was written, then flushed, and nothing after it.
            first = writer.calls.index(("flush", None))
            assert first == len(writer.calls) - 1
            before = writer.events(upto=first)
            assert [event["event"] for event in before] == (
                ["accepted"] + ["result"] * cached
            )
            assert [event["index"] for event in before[1:]] == list(
                range(cached)
            )
        finally:
            _settle(server)
            thread.join(30.0)
        assert not thread.is_alive()
        assert writer.calls[-1] == ("flush", None)
        events = writer.events()
        assert [e.get("source") for e in events[1:-1]] == (
            ["store"] * cached + ["run"] * (len(grid) - cached)
        )

        with SweepServer() as reference:
            client = ServeClient(*reference.address)
            if cached:
                client.submit(grid[:cached])
            seen = []
            client.submit(grid, on_event=seen.append)
        assert _comparable(events, wall=False) == _comparable(seen, wall=False)
