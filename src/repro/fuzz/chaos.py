"""Chaos harness: kill, corrupt and choke the sweep server — prove the
supervision guarantees hold anyway.

Each seeded **campaign** runs a real ``python -m repro.serve`` daemon
(a subprocess, because ``kill -9`` needs a process to kill) against a
throwaway store+journal, then plays a scripted-but-seeded sequence of
hostile moves against it:

* **kill -9 mid-batch** — SIGKILL the daemon after the first result of
  a multi-point submission streams back, leaving the journal with a
  mix of finished, started-but-interrupted and accepted-only points;
* **torn tails** — append a partial JSON fragment (no newline) to the
  journal and/or store file while the daemon is down, exactly what a
  crash mid-append leaves behind;
* **connection chaos** — open a raw socket and slam it shut after half
  a submit line, mid-burst, or right after the request;
* **poisoned points** — submit a deterministically-crashing point
  (the RTL engine under a 3-cycle ceiling) until the server parks it
  in quarantine;
* **drain mid-service** — ask a live server to drain and restart it.

After the dust settles a fresh server on the *same* store+journal gets
the original grid re-submitted, and the campaign asserts the
guarantees the serving layer advertises:

1. **no accepted work lost** — every point of the original submission
   yields a successful record;
2. **bit-identical recovery** — each record equals the one an
   uninterrupted serial run produces (field-for-field, wall time
   excluded: it is the only nondeterministic field);
3. **no point simulated twice** — the journal's dispatch accounting
   never shows a ``start`` for a key after that key's ``done``;
4. **no corruption** — both files reload with at most the injected
   torn lines skipped, and the store holds exactly one valid line per
   key.

``make chaos`` runs 25 fixed-seed campaigns (exit status 1 on any
violated guarantee); ``tests/test_chaos.py`` keeps a short smoke of
the same harness in tier-1.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

import repro.serve
from repro.errors import SimulationError
from repro.exec import RunRecord, SweepRunner, point_key
from repro.serve.client import ServeClient
from repro.serve.journal import Journal
from repro.serve.store import ResultStore
from repro.system import paper_topology, sweep
from repro.system.spec import SweepPoint
from repro.traffic import single_master_workload

#: Transactions per campaign grid: heavy enough that a SIGKILL lands
#: mid-batch (each point runs for tens of milliseconds), light enough
#: that 25 campaigns stay a coffee-break job.
DEFAULT_TRANSACTIONS = (1500, 3500)

#: Sweep depths drawn from per campaign.
DEPTH_POOL = (1, 2, 4, 8, 16)

#: The poison recipe: the RTL engine cannot drain anything in 3 cycles
#: and raises ``SimulationError`` — deterministically, every attempt.
POISON_MAX_CYCLES = 3


@dataclass
class ChaosFailure:
    """One campaign that violated a guarantee."""

    seed: int
    message: str
    moves: List[str] = field(default_factory=list)

    def describe(self) -> str:
        script = " -> ".join(self.moves) or "(no moves)"
        return f"seed {self.seed}: {self.message}\n    moves: {script}"


@dataclass
class ChaosReport:
    """A chaos run's verdict across every campaign."""

    campaigns: int = 0
    kills: int = 0
    corruptions: int = 0
    drops: int = 0
    poisons: int = 0
    drains: int = 0
    recovered_points: int = 0
    failures: List[ChaosFailure] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = (
            "all guarantees held"
            if self.clean
            else f"{len(self.failures)} campaign(s) FAILED"
        )
        return (
            f"chaos: {self.campaigns} campaigns — {self.kills} kills, "
            f"{self.corruptions} torn tails, {self.drops} dropped "
            f"connections, {self.poisons} poisoned points, "
            f"{self.drains} drains; {self.recovered_points} points "
            f"recovered from the journal — {verdict}"
        )


class _Daemon:
    """One ``python -m repro.serve serve`` subprocess."""

    def __init__(
        self,
        store: Path,
        journal: Path,
        quarantine_threshold: int,
    ) -> None:
        src_root = Path(repro.serve.__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "serve",
                "--port",
                "0",
                "--store",
                str(store),
                "--journal",
                str(journal),
                "--max-inflight",
                "1",
                "--quarantine-threshold",
                str(quarantine_threshold),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            rest = self.proc.stdout.read()
            self.proc.kill()
            self._close()
            raise SimulationError(
                f"chaos daemon failed to start: {banner!r}{rest!r}"
            )
        endpoint = banner.split("listening on ")[1].split()[0]
        self.host, port = endpoint.rsplit(":", 1)
        self.port = int(port)

    def kill9(self) -> None:
        self.proc.kill()  # SIGKILL: no cleanup, no flush, no goodbye
        self._close()

    def reap(self, timeout: float = 30.0) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        self._close()

    def _close(self) -> None:
        """Wait for the process and close its output pipe."""
        self.proc.wait()
        self.proc.stdout.close()

    def alive(self) -> bool:
        return self.proc.poll() is None


class ChaosHarness:
    """Seeded chaos campaigns against real server processes.

    *transactions* bounds the per-campaign workload size, *points* the
    grid width; *quarantine_threshold* is handed to the daemons (kept
    low so poison campaigns converge quickly).
    """

    def __init__(
        self,
        transactions: Tuple[int, int] = DEFAULT_TRANSACTIONS,
        points: int = 3,
        quarantine_threshold: int = 3,
        startup_timeout: float = 60.0,
    ) -> None:
        # The threshold must exceed the kill rounds (2): interrupted
        # starts count as crashes — by design, a poison point that
        # kills the server must not crash-loop forever — so a lower
        # threshold would let the harness's own SIGKILLs park an
        # innocent point it happened to kill twice mid-attempt.
        self.transactions = transactions
        self.points = points
        self.quarantine_threshold = quarantine_threshold
        self.startup_timeout = startup_timeout

    # -- campaign pieces -------------------------------------------------------

    def _grid(self, rng: Random) -> List[SweepPoint]:
        txns = rng.randint(*self.transactions)
        spec = paper_topology(workload=single_master_workload(txns))
        depths = sorted(rng.sample(DEPTH_POOL, self.points))
        return list(sweep(spec, axis="write_buffer_depth", values=depths))

    @staticmethod
    def _poison_grid() -> List[SweepPoint]:
        spec = paper_topology(workload=single_master_workload(12))
        return list(sweep(spec, axis="engine", values=("rtl",)))

    @staticmethod
    def _baseline(grid: Sequence[SweepPoint]) -> Dict[str, RunRecord]:
        """The uninterrupted ground truth, keyed like the store."""
        records = SweepRunner(backend="serial").run(list(grid))
        return {
            point_key(point.spec, engine=point.engine, max_cycles=None): rec
            for point, rec in zip(grid, records)
        }

    def _client(self, daemon: _Daemon, retries: int = 0) -> ServeClient:
        return ServeClient(
            daemon.host,
            daemon.port,
            timeout=self.startup_timeout,
            retries=retries,
            backoff_base=0.02,
            backoff_max=0.2,
        )

    def _submit_and_kill(
        self, daemon: _Daemon, grid: Sequence[SweepPoint], kill_after: int
    ) -> None:
        """SIGKILL the daemon once *kill_after* results have streamed."""
        armed = threading.Event()
        finished = threading.Event()
        seen = [0]

        def observe(event: Dict[str, object]) -> None:
            if event.get("event") == "result":
                seen[0] += 1
                if seen[0] >= kill_after:
                    armed.set()

        def submitter() -> None:
            client = self._client(daemon)
            try:
                client.submit(list(grid), on_event=observe)
            except SimulationError:
                pass  # the server died under us — that is the point
            finally:
                finished.set()
                armed.set()

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        armed.wait(self.startup_timeout)
        daemon.kill9()
        finished.wait(self.startup_timeout)
        thread.join(self.startup_timeout)

    @staticmethod
    def _tear_tail(path: Path) -> None:
        """Append a torn (newline-less) fragment, like a crash mid-append."""
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"op": "acc')

    @staticmethod
    def _drop_connection(daemon: _Daemon, style: str) -> None:
        """Open a raw socket, misbehave, slam it shut."""
        sock = socket.create_connection((daemon.host, daemon.port), timeout=10)
        try:
            if style == "half-line":
                sock.sendall(b'{"op": "submit", "points": [{"lab')
            elif style == "garbage":
                sock.sendall(b"this is not json\n")
                time.sleep(0.05)  # let the error event come (and be dropped)
            # style "instant": connect and close without a byte
        finally:
            sock.close()

    def _await_recovery(self, daemon: _Daemon) -> int:
        """Poll until journaled work has drained; return re-run count."""
        client = self._client(daemon, retries=2)
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            status = client.status()
            stats = status["stats"] or {}
            journal = status["journal"] or {}
            # A quarantined point's accept entry stays pending by
            # design (clearing the journal is the retry path), so it
            # never drains — don't wait for it.
            parked = len(stats.get("quarantine") or [])
            if (
                int(journal.get("pending") or 0) <= parked
                and not stats.get("queue_depth")
                and not stats.get("in_flight")
            ):
                return int(stats.get("recovered_rerun", 0))
            time.sleep(0.05)
        raise SimulationError(
            f"recovery did not finish within {self.startup_timeout}s"
        )

    # -- the invariants --------------------------------------------------------

    @staticmethod
    def _check_dispatch_accounting(journal_path: Path) -> Optional[str]:
        """Guarantee 3: no ``start`` for a key after that key's ``done``."""
        done: set = set()
        with journal_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn line: guarantee 4's department
                op, key = entry.get("op"), entry.get("key")
                if op == "done":
                    done.add(key)
                elif op == "start" and key in done:
                    return (
                        f"point {key} was dispatched again after its done "
                        "mark — a finished simulation ran twice"
                    )
        return None

    @staticmethod
    def _check_store_file(
        store_path: Path, baseline: Dict[str, RunRecord]
    ) -> Optional[str]:
        """Guarantees 1, 2 and 4 against the raw store file."""
        per_key: Dict[str, int] = {}
        with store_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    key = json.loads(line)["key"]
                except (ValueError, KeyError, TypeError):
                    continue  # injected torn line
                per_key[key] = per_key.get(key, 0) + 1
        duplicates = {k: n for k, n in per_key.items() if n > 1}
        if duplicates:
            return f"store filed a key more than once: {duplicates}"
        store = ResultStore(store_path)
        for key, expected in baseline.items():
            got = store.get(key)
            if got is None:
                return f"accepted point {key} has no record — work was lost"
            mine, theirs = got.to_dict(), expected.to_dict()
            mine.pop("wall_seconds"), theirs.pop("wall_seconds")
            if mine != theirs:
                return (
                    f"recovered record for {key} differs from the "
                    f"uninterrupted run: {mine} != {theirs}"
                )
        return None

    def _check_files(
        self,
        store_path: Path,
        journal_path: Path,
        baseline: Dict[str, RunRecord],
        torn_injected: int,
        kills: int,
    ) -> Optional[str]:
        problem = self._check_dispatch_accounting(journal_path)
        if problem is None:
            problem = self._check_store_file(store_path, baseline)
        if problem is not None:
            return problem
        # Guarantee 4: both files reload; only the injected torn lines
        # plus at most one genuine torn tail per kill may be skipped.
        budget = torn_injected + kills
        journal = Journal(journal_path)
        if journal.skipped_lines > budget:
            return (
                f"journal corrupt beyond torn tails: "
                f"{journal.skipped_lines} skipped lines (budget {budget})"
            )
        store = ResultStore(store_path)
        if store.skipped_lines > budget:
            return (
                f"store corrupt beyond torn tails: "
                f"{store.skipped_lines} skipped lines (budget {budget})"
            )
        pending = [key for key, _w, _c in journal.pending()]
        stale = [key for key in pending if key in baseline]
        if stale:
            return f"grid points still pending after a clean pass: {stale}"
        return None

    # -- one campaign ----------------------------------------------------------

    def campaign(
        self,
        seed: int,
        report: ChaosReport,
        moves: Optional[List[str]] = None,
    ) -> Tuple[List[str], Optional[str]]:
        """Run one seeded campaign; returns ``(moves, problem-or-None)``.

        *moves* may be passed in so the move log survives an exception
        thrown mid-campaign (the caller keeps the alias).
        """
        rng = Random(seed)
        grid = self._grid(rng)
        baseline = self._baseline(grid)
        if moves is None:
            moves = []
        torn = 0
        kills = 0
        with tempfile.TemporaryDirectory(prefix="chaos") as tmp:
            store_path = Path(tmp) / "results.jsonl"
            journal_path = Path(tmp) / "journal.jsonl"

            def spawn() -> _Daemon:
                return _Daemon(
                    store_path, journal_path, self.quarantine_threshold
                )

            # Act 1: kill -9 mid-batch (one or two rounds).
            daemon = spawn()
            for _round in range(rng.choice((1, 2))):
                kill_after = rng.randint(1, max(1, len(grid) - 1))
                moves.append(f"kill9 after {kill_after} result(s)")
                self._submit_and_kill(daemon, grid, kill_after)
                kills += 1
                report.kills += 1
                if rng.random() < 0.5:
                    target = rng.choice((journal_path, store_path))
                    if target.exists():
                        moves.append(f"tear tail of {target.name}")
                        self._tear_tail(target)
                        torn += 1
                        report.corruptions += 1
                daemon = spawn()  # restart on the same store+journal
            report.recovered_points += self._await_recovery(daemon)

            # Act 2: harass the recovered server.
            if rng.random() < 0.7:
                style = rng.choice(("half-line", "garbage", "instant"))
                moves.append(f"drop connection ({style})")
                self._drop_connection(daemon, style)
                report.drops += 1
            if rng.random() < 0.5:
                moves.append("poison point until quarantined")
                poison = self._poison_grid()
                quarantined = 0
                client = self._client(daemon, retries=1)
                for _attempt in range(self.quarantine_threshold + 1):
                    result = client.submit(
                        poison, max_cycles=POISON_MAX_CYCLES
                    )
                    quarantined = result.quarantined
                report.poisons += 1
                if not quarantined:
                    daemon.kill9()
                    return moves, (
                        "a point that crashed "
                        f"{self.quarantine_threshold + 1} times was "
                        "never quarantined"
                    )
                quarantine = (
                    self._client(daemon, retries=1).status()["stats"]
                    or {}
                ).get("quarantine") or []
                if not quarantine:
                    daemon.kill9()
                    return moves, "quarantined point missing from status"
            if rng.random() < 0.4:
                moves.append("drain and restart")
                if self._client(daemon, retries=1).drain():
                    daemon.reap()
                    report.drains += 1
                    daemon = spawn()
                    self._await_recovery(daemon)

            # Act 3: the full grid must now complete, loss-free.
            client = self._client(daemon, retries=2)
            final = client.submit(list(grid))
            failed = [
                record.label
                for record in final.records
                if record.failed
            ]
            if failed:
                daemon.kill9()
                return moves, f"final pass returned failure rows: {failed}"
            if not client.shutdown():
                daemon.kill9()
                return moves, "live server did not acknowledge shutdown"
            daemon.reap()

            problem = self._check_files(
                store_path, journal_path, baseline, torn, kills
            )
            return moves, problem

    # -- the campaign loop -----------------------------------------------------

    def run(
        self,
        seeds: Sequence[int],
        max_failures: Optional[int] = None,
        progress: bool = False,
    ) -> ChaosReport:
        report = ChaosReport()
        for seed in seeds:
            report.campaigns += 1
            moves: List[str] = []
            try:
                _moves, problem = self.campaign(seed, report, moves)
            except Exception as exc:  # harness plumbing failure: also a fail
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                report.failures.append(
                    ChaosFailure(seed=seed, message=problem, moves=moves)
                )
                if (
                    max_failures is not None
                    and len(report.failures) >= max_failures
                ):
                    break
            if progress:
                verdict = "FAIL" if problem else "ok"
                print(f"  seed {seed}: {verdict} ({' -> '.join(moves)})")
        return report


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz.chaos",
        description="Kill, corrupt and choke the sweep server; verify "
        "the crash-recovery guarantees hold.",
    )
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--count", type=int, default=25)
    parser.add_argument(
        "--transactions",
        type=int,
        nargs=2,
        default=DEFAULT_TRANSACTIONS,
        metavar=("LO", "HI"),
    )
    parser.add_argument("--points", type=int, default=3)
    parser.add_argument("--max-failures", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    harness = ChaosHarness(
        transactions=tuple(args.transactions), points=args.points
    )
    report = harness.run(
        range(args.start, args.start + args.count),
        max_failures=args.max_failures,
        progress=not args.quiet,
    )
    print(report.summary())
    for failure in report.failures:
        print("  " + failure.describe())
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
