"""The serve request path: one key per point, off the lock; a digest
memo that skips decoding and keying; coalesced sends; one kept
connection per client.

``SweepServer.route`` keys each submitted point exactly once, before it
takes the server lock that the executor's ``_finish`` also needs, and a
point that cannot be keyed leaves nothing journaled or counted.  The
connection handler writes ``accepted`` and every ``result`` unflushed:
it flushes only before it blocks on a running point and with ``done``,
so a fully cached submission leaves in one send while a cold one still
gets every known event out before the handler waits.  The events
themselves are the ones a client sees over a real socket.

The server remembers the key of every wire point it routed, by a digest
of the point's spec, engine and the submission's ``max_cycles``.  A
point whose digest is known and whose record is stored is answered
without ``SystemSpec.from_dict`` or ``point_key``, under the label,
axis and value it was sent with; anything else is decoded and keyed as
before, and a spec that does not decode is never remembered.

A client opens one connection and keeps it for every operation; it
replaces a kept connection the server closed without spending a retry,
closes it on ``close()``, on leaving a ``with`` block or when collected,
and ``SweepServer.stop()`` hangs up every open connection.
"""

import gc
import json
import socket
import threading
import time
import warnings
from dataclasses import replace

import pytest

import repro.core  # noqa: F401  (anchor package import order)
import repro.serve.server as server_module
from repro.errors import ConfigError, SimulationError
from repro.exec import point_key
from repro.serve import (
    PROTOCOL,
    Journal,
    ResultStore,
    ServeClient,
    ServerOverloaded,
    SweepServer,
    point_to_wire,
)
from repro.serve.protocol import encode_message, read_message
from repro.serve.server import _Handler
from repro.system import SystemSpec, paper_topology, sweep
from repro.traffic import single_master_workload


def _grid(values=(1, 2, 4, 8)):
    spec = paper_topology(workload=single_master_workload(15))
    return sweep(spec, axis="write_buffer_depth", values=values)


def _settle(server):
    """Run the parked executor's queued work by hand."""
    server._run_burst(server._work.get_nowait())


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
        assert server.stats()["queue_depth"] == 1


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


def _listener_closed(server, timeout=10.0):
    """Wait until *server*'s listening socket is closed (stop() done)."""
    deadline = time.monotonic() + timeout
    while server._tcp.socket.fileno() != -1:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestKeptConnection:
    def test_many_operations_make_one_accepted_connection(self, monkeypatch):
        accepts = []
        accept = server_module._ServeTCPServer.get_request

        def counting(tcp):
            accepts.append(tcp.server_address)
            return accept(tcp)

        monkeypatch.setattr(
            server_module._ServeTCPServer, "get_request", counting
        )
        grid = _grid(values=(1, 2))
        with SweepServer() as server:
            with ServeClient(*server.address) as client:
                assert client.ping() == PROTOCOL
                assert client.submit(grid).misses == len(grid)
                assert client.submit(grid).hits == len(grid)
                assert client.status()["stats"]["submissions"] == 2
                assert client.ping() == PROTOCOL
        assert len(accepts) == 1

    def test_server_restarted_on_the_same_port_costs_no_retry(self):
        grid = _grid(values=(1,))
        with SweepServer() as first:
            host, port = first.address
            client = ServeClient(host, port, retries=0)
            assert client.ping() == PROTOCOL
        with SweepServer(host=host, port=port):
            # The kept connection died with the first server; the client
            # replaces it without a retry, which retries=0 would forbid.
            assert client.ping() == PROTOCOL
            assert client.submit(grid).misses == 1
        assert client.retry_log == []
        client.close()

    def test_close_with_and_collection_leave_no_socket_open(self):
        with SweepServer() as server:
            gc.collect()  # earlier tests' garbage must not count here
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                closed = ServeClient(*server.address)
                assert closed.ping() == PROTOCOL
                closed.close()
                closed.close()  # idempotent
                assert closed.ping() == PROTOCOL  # reopens after close()
                closed.close()
                with ServeClient(*server.address) as scoped:
                    assert scoped.ping() == PROTOCOL
                ServeClient(*server.address).ping()  # never closed
                del closed, scoped
                gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]

    def test_stop_hangs_up_open_connections(self):
        server = SweepServer()
        server.start()
        try:
            sock = socket.create_connection(server.address, timeout=10)
            with sock, sock.makefile("rb") as reader:
                sock.sendall(encode_message({"op": "ping"}))
                assert read_message(reader)["event"] == "pong"
                server.stop()
                try:
                    sock.sendall(encode_message({"op": "ping"}))
                    line = reader.readline()
                except ConnectionError:
                    line = b""
                assert line == b""  # EOF, not a pong
        finally:
            server.stop()

    def test_idle_stop_wakes_the_acceptor_at_once(self):
        server = SweepServer(workers=1)
        server.start()
        began = time.monotonic()
        server.stop()
        # The acceptor re-reads the stop flag on its own only every
        # poll_seconds; stop() must not wait for that.
        assert time.monotonic() - began < server._tcp.poll_seconds / 2
        assert not server._acceptor.is_alive()

    def test_stop_lets_a_reply_in_progress_finish(self, monkeypatch):
        server = SweepServer()
        monkeypatch.setattr(server, "_run_burst", lambda burst: None)
        server.start()  # the executor takes batches but never runs them
        submit = {
            "op": "submit",
            "points": [point_to_wire(point) for point in _grid(values=(1,))],
        }
        try:
            sock = socket.create_connection(server.address, timeout=10)
            with sock, sock.makefile("rb") as reader:
                sock.sendall(encode_message(submit))
                # Flushed before the handler blocks on the unrun point.
                assert read_message(reader)["event"] == "accepted"
                server.stop()
                result, done = read_message(reader), read_message(reader)
                assert "server stopped" in result["record"]["error"]
                assert done["event"] == "done"
                assert reader.readline() == b""  # then the hang-up
        finally:
            server.stop()

    def test_stopped_server_fails_a_kept_client(self):
        with SweepServer() as server:
            client = ServeClient(*server.address, retries=0)
            assert client.ping() == PROTOCOL
        with pytest.raises(SimulationError, match="ping failed after 1"):
            client.ping()
        client.close()

    @pytest.mark.parametrize("op", ["shutdown", "drain"])
    def test_last_op_on_a_kept_connection_is_true_then_false(self, op):
        with SweepServer() as server:
            client = ServeClient(*server.address, retries=0)
            assert client.ping() == PROTOCOL  # the connection is kept now
            assert getattr(client, op)() is True
            assert _listener_closed(server)
            assert getattr(client, op)() is False


@pytest.fixture()
def decodes(monkeypatch):
    """Count ``SystemSpec.from_dict`` and the server's ``point_key`` calls;
    returns the log, one ``"from_dict"``/``"point_key"`` name per call."""
    calls = []
    from_dict = SystemSpec.from_dict.__func__

    def counting_from_dict(cls, data):
        calls.append("from_dict")
        return from_dict(cls, data)

    def counting_key(spec, engine="tlm", max_cycles=None):
        calls.append("point_key")
        return point_key(spec, engine=engine, max_cycles=max_cycles)

    monkeypatch.setattr(SystemSpec, "from_dict", classmethod(counting_from_dict))
    monkeypatch.setattr(server_module, "point_key", counting_key)
    return calls


def _submit_wire(server, entries, max_cycles=None):
    """Decode and route *entries* as the connection handler does."""
    points, digests = server._decode(entries, max_cycles)
    return server.route(points, max_cycles, digests)


def _wire(grid):
    return [point_to_wire(point) for point in grid]


class TestDigestMemo:
    def test_warm_resend_decodes_and_keys_nothing(self, decodes):
        grid = _grid()
        with SweepServer() as server, ServeClient(*server.address) as client:
            cold = client.submit(grid)
            assert decodes.count("from_dict") == len(grid)
            assert decodes.count("point_key") == len(grid)
            decodes.clear()
            warm = client.submit(grid)
        assert decodes == []
        assert warm.sources == ("store",) * len(grid)
        assert warm.records == cold.records

    def test_same_spec_under_a_new_label_hits_and_answers_as_sent(
        self, decodes
    ):
        grid = _grid()
        renamed = [
            replace(point, label=f"other-{index}", axis="renamed", value=-index)
            for index, point in enumerate(grid)
        ]
        with SweepServer() as server, ServeClient(*server.address) as client:
            cold = client.submit(grid)
            decodes.clear()
            warm = client.submit(renamed)
        assert decodes == []
        assert warm.sources == ("store",) * len(grid)
        assert [
            (record.label, record.axis, record.value) for record in warm.records
        ] == [(point.label, "renamed", repr(point.value)) for point in renamed]
        assert warm.records == tuple(
            replace(record, label=point.label, axis="renamed", value=repr(point.value))
            for record, point in zip(cold.records, renamed)
        )

    @pytest.mark.parametrize(
        "engine, max_cycles",
        [("tlm", 10**6), ("plain", None)],
        ids=["max_cycles", "engine"],
    )
    def test_a_new_ceiling_or_engine_misses(self, decodes, engine, max_cycles):
        grid = _grid(values=(1, 2))
        with SweepServer() as server, ServeClient(*server.address) as client:
            client.submit(grid)
            decodes.clear()
            again = [replace(point, engine=engine) for point in grid]
            other = client.submit(again, max_cycles=max_cycles)
            memo = len(server._keys_by_digest)
        assert other.sources == ("run",) * len(grid)
        assert decodes.count("from_dict") == len(grid)
        assert decodes.count("point_key") == len(grid)
        assert memo == 2 * len(grid)

    def test_an_invalid_spec_errors_on_every_submit_and_is_never_kept(
        self, decodes
    ):
        server = SweepServer()
        grid = _grid(values=(1, 2))
        _submit_wire(server, _wire(grid[:1]))
        _settle(server)  # grid[0] is stored, its digest known
        bad = point_to_wire(grid[1])
        bad["spec"] = {**bad["spec"], "warp_drive": True}
        message = {"op": "submit", "points": [_wire(grid[:1])[0], bad]}
        memo = dict(server._keys_by_digest)
        stats, journal = server.stats(), server.journal.stats()
        handler = object.__new__(_Handler)
        decodes.clear()
        for _attempt in range(3):
            writer = _RecordingWriter()
            assert handler._answer(server, message, writer) is True
            [event] = writer.events()
            assert event["event"] == "error"
            assert "bad spec" in event["message"]
        assert decodes.count("from_dict") == 3  # the bad spec, every time
        assert server._keys_by_digest == memo
        assert server.stats() == stats
        assert server.journal.stats() == journal

    @pytest.mark.parametrize("field", ["label", "axis", "value", "spec", "engine"])
    def test_a_missing_field_fails_alike_known_or_not(self, field):
        grid = _grid(values=(1,))
        known = SweepServer()
        _submit_wire(known, _wire(grid))
        _settle(known)
        entry = {k: v for k, v in _wire(grid)[0].items() if k != field}
        errors = []
        for server in (known, SweepServer()):
            with pytest.raises(ConfigError) as caught:
                server._decode([entry], None)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == f"wire point needs fields ['{field}']"

    @pytest.mark.parametrize("entry", [5, "point", None, [1, 2]])
    def test_a_wire_point_that_is_no_object_is_a_config_error(self, entry):
        with pytest.raises(ConfigError, match="wire points are JSON objects"):
            SweepServer()._decode([entry], None)

    def test_a_wire_point_that_is_no_object_leaves_the_connection_up(self):
        with SweepServer() as server:
            sock = socket.create_connection(server.address, timeout=10)
            with sock, sock.makefile("rb") as reader:
                sock.sendall(encode_message({"op": "submit", "points": [5]}))
                assert read_message(reader) == {
                    "event": "error",
                    "message": "wire points are JSON objects, got int",
                }
                sock.sendall(encode_message({"op": "ping"}))
                assert read_message(reader)["event"] == "pong"

    def test_a_known_point_in_flight_joins_the_running_one(self, decodes):
        server = SweepServer()  # parked executor: the points stay in flight
        grid = _grid(values=(1, 2))
        first = _submit_wire(server, _wire(grid))
        assert len(server._keys_by_digest) == len(grid)
        decodes.clear()
        second = _submit_wire(server, _wire(grid))
        assert [source for _p, _k, source, _s in first] == ["run"] * len(grid)
        assert [source for _p, _k, source, _s in second] == (
            ["inflight"] * len(grid)
        )
        for (_p1, key1, _s1, slot1), (_p2, key2, _s2, slot2) in zip(
            first, second
        ):
            assert key2 == key1 and slot2 is slot1
        # Not stored yet, so each point is decoded; its key is known.
        assert decodes == ["from_dict"] * len(grid)
        assert server.stats()["hits_inflight"] == len(grid)
        assert server.journal.stats()["pending"] == len(grid)
        _settle(server)
        third = _submit_wire(server, _wire(grid))
        assert [source for _p, _k, source, _s in third] == ["store"] * len(grid)
        assert [slot for _p, _k, _s, slot in third] == [
            slot.record for _p, _k, _s, slot in first
        ]

    def test_a_restarted_server_replays_what_the_first_ran(
        self, decodes, tmp_path
    ):
        grid = _grid()
        store, journal = tmp_path / "results.jsonl", tmp_path / "journal.jsonl"
        with SweepServer(
            store=ResultStore(store), journal=Journal(journal)
        ) as server, ServeClient(*server.address) as client:
            cold = client.submit(grid)
        replies, counts = [], []
        with SweepServer(
            store=ResultStore(store), journal=Journal(journal)
        ) as server, ServeClient(*server.address) as client:
            for _attempt in range(2):
                decodes.clear()
                replies.append(client.submit(grid))
                counts.append(len(decodes))
        # The memo is not persisted: the first warm submit decodes and
        # keys every point again, the second nothing.
        assert counts == [2 * len(grid), 0]
        for reply in replies:
            assert reply.sources == ("store",) * len(grid)
            assert reply.records == cold.records
