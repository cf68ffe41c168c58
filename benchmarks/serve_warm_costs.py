"""CPU cost of one warm ``repro.serve`` submission, step by step.

Usage::

    PYTHONPATH=src python -m benchmarks.serve_warm_costs [--txns 40]
        [--depths 1,2,4,8] [--seed 1] [--number 200] [--repeat 5]

Builds the ``serve-closed-loop`` workload's grid (a ``write_buffer_depth``
sweep of Table-1 pattern (a) at ``--txns`` transactions per master),
files its records in an in-memory server that is never started, and
then times each step a warm re-send of that grid costs, in-process and
without sockets: the client's request encoding, the server's parse,
decode, routing and reply, and the client's reply parse.  Two more rows
time what a point the server cannot replay from its digest memo costs
instead: ``point_from_wire`` and ``point_key`` for every point.

Each figure is the best of ``--repeat`` means over ``--number`` calls,
so it shows CPU work rather than scheduling noise; socket handoffs and
lock waits are not in it.
"""

from __future__ import annotations

import argparse
import io
import json
import timeit
from typing import Callable, List, Tuple

import repro.core  # noqa: F401  (anchor package import order)
from repro.exec import RunRecord, point_key
from repro.serve.protocol import (
    encode_message,
    grid_to_wire,
    point_from_wire,
    read_message,
)
from repro.serve.server import SweepServer, _Handler
from repro.system.scenarios import paper_topology
from repro.system.spec import sweep
from repro.traffic.workloads import table1_pattern_a


class _Sink:
    """A handler writer that keeps the reply text."""

    def __init__(self) -> None:
        self.parts: List[str] = []

    def write(self, text: str) -> None:
        self.parts.append(text)

    def flush(self) -> None:
        pass


def _parse_reply(reply: bytes) -> List[RunRecord]:
    """What ``ServeClient.submit`` does with a reply: parse every line
    and rebuild every record."""
    stream = io.BytesIO(reply)
    records = []
    while True:
        event = read_message(stream)
        if event is None:
            return records
        if event.get("event") == "result":
            records.append(RunRecord.from_dict(event["record"]))


def measure(
    txns: int, depths: Tuple[int, ...], seed: int, number: int, repeat: int
) -> List[Tuple[str, float]]:
    """``(step, milliseconds per warm submission)`` rows."""
    spec = paper_topology(workload=table1_pattern_a(txns, seed=seed))
    grid = sweep(spec, axis="write_buffer_depth", values=depths)
    server = SweepServer()  # never started: nothing runs behind our back
    request = {"op": "submit", "points": grid_to_wire(grid), "max_cycles": None}
    line = encode_message(request)
    # One cold submission through the wire path files the records and
    # the digest memo; every timed call below is warm.
    points, digests = server._decode(request["points"], None)
    server.route(points, None, digests)
    server._run_burst(server._work.get_nowait())

    handler = object.__new__(_Handler)  # no socket: drive the method alone
    message = read_message(io.BytesIO(line))
    sink = _Sink()
    handler._handle_submit(server, message, sink)
    reply = "".join(sink.parts).encode("utf-8")
    decoded = [point_from_wire(entry) for entry in request["points"]]

    def best(call: Callable[[], object]) -> float:
        return min(timeit.repeat(call, number=number, repeat=repeat)) / number

    def decode_and_route() -> None:
        points, digests = server._decode(message["points"], None)
        server.route(points, None, digests)

    steps = [
        (
            "client grid_to_wire + encode",
            lambda: encode_message(
                {"op": "submit", "points": grid_to_wire(grid), "max_cycles": None}
            ),
        ),
        ("server json.loads", lambda: read_message(io.BytesIO(line))),
        (
            f"server _decode x{len(grid)}",
            lambda: server._decode(message["points"], None),
        ),
        ("server decode + route", decode_and_route),
        (
            "server whole submit (decode, route, reply)",
            lambda: handler._handle_submit(server, message, _Sink()),
        ),
        ("client reply parse", lambda: _parse_reply(reply)),
        (
            f"miss only: point_from_wire x{len(grid)}",
            lambda: [point_from_wire(entry) for entry in request["points"]],
        ),
        (
            f"miss only: point_key x{len(grid)}",
            lambda: [
                point_key(point.spec, engine=point.engine) for point in decoded
            ],
        ),
    ]
    return [(name, best(call) * 1e3) for name, call in steps]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--txns", type=int, default=40)
    parser.add_argument("--depths", default="1,2,4,8")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--number", type=int, default=200)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    depths = tuple(int(value) for value in args.depths.split(","))
    rows = measure(args.txns, depths, args.seed, args.number, args.repeat)
    width = max(len(name) for name, _ms in rows)
    print(f"{'step':<{width}}  ms per warm submit")
    for name, ms in rows:
        print(f"{name:<{width}}  {ms:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
