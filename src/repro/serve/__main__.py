"""CLI for the sweep server: ``python -m repro.serve <command>``.

Commands::

    serve     start a daemon: bind, load/create the result store and
              write-ahead journal, recover unfinished journaled work,
              serve until a client sends ``shutdown`` (SIGTERM and
              Ctrl-C drain gracefully: in-flight work finishes, the
              queued remainder stays journaled for the next start)
    submit    build a sweep grid from a named scenario and submit it;
              prints one row per record with its cache verdict
    status    print the server's serving stats, store and journal
              summaries (``--json`` for one machine-readable object)
    drain     ask the server to finish in-flight work and stop
    shutdown  ask the server to stop immediately

Example session (two shells)::

    $ python -m repro.serve serve --port 7414 --store results.jsonl \\
          --journal journal.jsonl
    $ python -m repro.serve submit --port 7414 --scenario paper \\
          --transactions 60 --axis write_buffer_depth --values 1,2,4,8
    $ python -m repro.serve submit --port 7414 --scenario paper \\
          --transactions 60 --axis write_buffer_depth --values 1,2,4,8
    # second pass: 100% cache hits
    $ python -m repro.serve status --port 7414 --json
    $ python -m repro.serve shutdown --port 7414
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from typing import List, Optional

import repro.core  # noqa: F401  (anchor package import order)
from repro.errors import ReproError
from repro.serve.client import ServeClient
from repro.serve.journal import Journal
from repro.serve.server import SweepServer
from repro.serve.store import ResultStore
from repro.system import scenario, scenario_names, sweep

#: Default TCP port (no IANA meaning; just stable across the docs).
DEFAULT_PORT = 7414


def _parse_values(text: str) -> List[object]:
    """Comma-separated sweep values: JSON scalars, else plain strings."""
    values: List[object] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            values.append(json.loads(chunk))
        except ValueError:
            values.append(chunk)
    return values


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)


def cmd_serve(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    journal = Journal(args.journal)
    supervision = {
        name: value
        for name in (
            "max_queue_depth",
            "max_inflight",
            "quarantine_threshold",
        )
        if (value := getattr(args, name)) is not None
    }
    server = SweepServer(
        store=store,
        journal=journal,
        backend=args.backend,
        workers=args.workers,
        timeout=args.timeout,
        host=args.host,
        port=args.port,
        **supervision,
    )
    recover = len(journal)

    def _drain_signal(signum, _frame) -> None:
        # Raw write: the interrupted main thread may be inside a
        # buffered-stdout flush, which print() would re-enter.
        name = signal.Signals(signum).name
        os.write(1, f"repro.serve: {name} received, draining\n".encode())
        # Never drain on the main thread the signal interrupted: drain
        # joins worker threads, and those may be blocked on locks the
        # interrupted frame holds.
        threading.Thread(target=server.drain, daemon=True).start()

    # Installed before the banner: anyone who read "listening on" may
    # already be sending signals.
    signal.signal(signal.SIGTERM, _drain_signal)
    host, port = server.start()
    print(
        f"repro.serve: listening on {host}:{port} "
        f"(backend={server.runner.backend}, store="
        f"{args.store or 'in-memory'}, {len(store)} cached records, "
        f"journal={args.journal or 'in-memory'}, {recover} pending "
        f"recovered)"
    )
    sys.stdout.flush()
    try:
        server.wait()
    except KeyboardInterrupt:
        print("repro.serve: interrupt received, draining")
        server.drain()
    print("repro.serve: stopped")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    spec = scenario(args.scenario, transactions=args.transactions)
    values = _parse_values(args.values)
    grid = sweep(spec, axis=args.axis, values=values, engine=args.engine)
    client = ServeClient(args.host, args.port, retries=args.retries)
    result = client.submit(grid, max_cycles=args.max_cycles)
    print(
        f"{'label':<24} {'source':<12} {'cycles':>8} {'txns':>6} {'util':>6}"
    )
    for record, source in zip(result.records, result.sources):
        print(
            f"{record.label:<24} {source:<12} {record.cycles:>8} "
            f"{record.transactions:>6} {record.utilization:>6.3f}"
        )
    print(
        f"\n{len(result.records)} records: {result.hits} cached, "
        f"{result.misses} simulated (hit rate {result.hit_rate:.0%})"
        + (
            f", {result.quarantined} quarantined"
            if result.quarantined
            else ""
        )
    )
    if client.retry_log:
        print(f"{len(client.retry_log)} retries taken (backoff applied)")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    status = client.status()
    if args.json:
        # One machine-readable object on stdout, nothing else.
        print(json.dumps(status, sort_keys=True))
        return 0
    stats = status["stats"] or {}
    store = status["store"] or {}
    journal = status["journal"] or {}
    print(f"uptime:        {stats.get('uptime_seconds', 0.0):.1f}s")
    print(
        f"state:         "
        f"{'draining' if stats.get('draining') else 'serving'}"
        f" (backend={stats.get('backend')})"
    )
    print(
        f"queue:         {stats.get('queue_depth')} queued "
        f"(bound {stats.get('queue_bound')}), "
        f"{stats.get('in_flight')} in flight, "
        f"high-water {stats.get('max_queue_depth')}"
    )
    print(
        f"traffic:       {stats.get('submissions')} submissions, "
        f"{stats.get('points')} points, hit rate "
        f"{100.0 * float(stats.get('hit_rate', 0.0)):.1f}%, "
        f"{stats.get('shed_submissions')} shed"
    )
    print(
        f"store:         {store.get('entries')} records "
        f"({store.get('path') or 'in-memory'})"
    )
    print(
        f"journal:       {journal.get('pending')} pending, "
        f"{journal.get('completed')} completed "
        f"({journal.get('path') or 'in-memory'})"
    )
    quarantine = stats.get("quarantine") or []
    print(f"quarantine:    {len(quarantine)} point(s)")
    for entry in quarantine:
        print(
            f"  - {entry.get('label')} [{entry.get('key')}] "
            f"({entry.get('crashes')} crashes)"
        )
    return 0


def cmd_drain(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    if client.drain():
        print("server acknowledged drain")
        return 0
    print("server already gone")
    return 0


def cmd_shutdown(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    if client.shutdown():
        print("server acknowledged shutdown")
    else:
        # Idempotent teardown: a dead server is a drained server.
        print("server already gone")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the sweep daemon")
    _add_endpoint(serve)
    serve.add_argument(
        "--store",
        default=None,
        help="JSON-lines result store path (default: in-memory only)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        help="write-ahead journal path: accepted work survives crashes "
        "and re-runs on restart (default: in-memory only)",
    )
    serve.add_argument(
        "--backend",
        choices=("auto", "serial", "process"),
        default="auto",
        help="sweep backend; auto picks process when --workers or "
        "--timeout is given, serial otherwise",
    )
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point delivery deadline in seconds (process backend)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        dest="max_queue_depth",
        help="bound on accepted-but-unfinished points; beyond it "
        "submissions shed with an 'overloaded' retry-after event",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        dest="max_inflight",
        help="points one executor burst hands the runner at a time",
    )
    serve.add_argument(
        "--quarantine-threshold",
        type=int,
        default=None,
        dest="quarantine_threshold",
        help="consecutive crashed attempts that park a point",
    )
    serve.set_defaults(func=cmd_serve)

    submit = commands.add_parser("submit", help="submit a sweep grid")
    _add_endpoint(submit)
    submit.add_argument(
        "--scenario",
        default="paper",
        choices=scenario_names(),
        help="named scenario to build the spec from",
    )
    submit.add_argument("--transactions", type=int, default=60)
    submit.add_argument("--axis", default="write_buffer_depth")
    submit.add_argument(
        "--values",
        default="1,4",
        help="comma-separated sweep values (JSON scalars)",
    )
    submit.add_argument("--engine", default="tlm")
    submit.add_argument("--max-cycles", type=int, default=None)
    submit.add_argument(
        "--retries",
        type=int,
        default=3,
        help="transient-failure retries (backoff with jitter)",
    )
    submit.set_defaults(func=cmd_submit)

    status = commands.add_parser("status", help="print serving stats")
    _add_endpoint(status)
    status.add_argument(
        "--json",
        action="store_true",
        help="one machine-readable JSON object instead of the summary",
    )
    status.set_defaults(func=cmd_status)

    drain = commands.add_parser(
        "drain", help="gracefully drain and stop the daemon"
    )
    _add_endpoint(drain)
    drain.set_defaults(func=cmd_drain)

    shutdown = commands.add_parser("shutdown", help="stop the daemon")
    _add_endpoint(shutdown)
    shutdown.set_defaults(func=cmd_shutdown)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
