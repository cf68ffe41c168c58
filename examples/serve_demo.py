#!/usr/bin/env python3
"""Simulation-as-a-service with ``repro.serve``.

Starts a sweep daemon on a loopback port with a JSON-lines result
store, then demonstrates the serving loop end-to-end:

1. **Cold pass** — a client submits a write-buffer sweep grid; every
   point is simulated and filed under its content key.
2. **Warm pass** — the *same* grid submitted again replays entirely
   from the cache (100 % hit-rate) with records equal to the first
   pass: simulations are deterministic, so a hit is free and provably
   correct.
3. **Mixed pass** — a wider grid re-uses the warm points and simulates
   only the cold ones.
4. **Restart** — a second server opened on the same store file starts
   warm: the cache is persistent, not per-process.

Run:  python examples/serve_demo.py [--transactions N]
"""

import argparse
import tempfile
from pathlib import Path

import repro.core  # noqa: F401  (anchor package import order)
from repro.errors import SimulationError
from repro.serve import ResultStore, ServeClient, SweepServer
from repro.system import paper_topology, sweep


def submit_and_report(client: ServeClient, grid, title: str):
    result = client.submit(grid)
    print(f"{title}: {result.hits} cached / {result.misses} simulated "
          f"(hit rate {result.hit_rate:.0%})")
    for record, source in zip(result.records, result.sources):
        print(f"  {record.label:<24} {source:<9} {record.cycles:>7} cycles")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transactions", type=int, default=40)
    args = parser.parse_args()

    spec = paper_topology(args.transactions)
    grid = sweep(spec, axis="write_buffer_depth", values=(1, 2, 4, 8))
    wider = sweep(spec, axis="write_buffer_depth", values=(1, 2, 4, 8, 16, 32))

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        store_path = Path(tmp) / "results.jsonl"

        with SweepServer(store=ResultStore(store_path)) as server:
            host, port = server.address
            # One client keeps one connection for all of its requests.
            with ServeClient(host, port) as client:
                print(f"daemon listening on {host}:{port} "
                      f"(protocol {client.ping()})\n")

                cold = submit_and_report(client, grid, "cold pass")
                warm = submit_and_report(client, grid, "warm pass")
                if warm.hit_rate != 1.0:  # must survive python -O
                    raise SimulationError("warm pass was not 100% cache hits")
                if warm.records != cold.records:
                    raise SimulationError("cache replay diverged from cold run")
                print("warm records are bit-identical to the cold pass\n")

                submit_and_report(client, wider, "mixed pass (wider grid)")
                stats = client.status()["stats"]
                print(f"\nserver stats: {stats['points']} points in, "
                      f"{stats['hits']} hits, {stats['misses']} misses, "
                      f"max queue depth {stats['max_queue_depth']}")
                client.shutdown()
            server.wait(timeout=10.0)
        print("daemon stopped cleanly")

        # A fresh server on the same store starts warm: the cache is
        # content-addressed state on disk, not process memory.
        with SweepServer(store=ResultStore(store_path)) as server, \
                ServeClient(*server.address) as client:
            revived = submit_and_report(
                client, wider, "\nafter restart (same store)"
            )
            if revived.hit_rate != 1.0:
                raise SimulationError("restarted server lost the cache")
        print("restart served everything from the persisted store")


if __name__ == "__main__":
    main()
