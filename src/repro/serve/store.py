"""Content-addressed result store: point key → persisted ``RunRecord``.

The store is the serving layer's memory: every completed simulation is
filed under its :func:`~repro.exec.records.point_key` — the canonical
hash of *what was simulated* — so any later submission of the same
spec/workload/seed/engine/ceiling replays the stored record instead of
re-running.  Simulations are deterministic, so a hit is free **and
provably correct**: the replayed record equals what a fresh run would
produce (record equality excludes wall time; the test suite pins this).

Persistence is JSON-lines on disk (one ``{"key": ..., "record": ...}``
object per line, appended on every insert) with a plain in-memory
index, so a restarted server re-opens its cache by replaying the file.
Corrupt trailing lines (a crash mid-append) are tolerated and dropped.

**First write wins — in memory and on disk.**  :meth:`ResultStore.put`
refuses a key already indexed, and the loader keeps the *first*
occurrence of a key when replaying the file, so the contract holds
even when two server processes append to the same path concurrently:
whichever writer files a key first is authoritative, later duplicates
are inert lines (determinism makes them equal anyway — nothing is
lost, the file merely carries a redundant record).  A writer that
crashes mid-append leaves a torn line *without* a trailing newline;
before each append every store (and the write-ahead journal, which
reads and appends through the same :func:`read_json_lines` and
:func:`append_json_line`) terminates such a tail so a concurrent or
later writer's next record starts on a fresh line instead of merging
into — and corrupting — the torn one.  Only the torn fragment itself
is ever lost.

**Failure rows are never authoritative.**  A record whose
:attr:`~repro.exec.records.RunRecord.failed` flag is set — a crash or
timeout row from ``SweepRunner(on_error="record")`` — describes what
happened to one attempt, not what the simulation computes; caching it
would turn a transient failure into a permanent one.  :meth:`put`
refuses such rows (counted in :attr:`rejected_failures`), so a retry
after a crash re-runs the point.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.exec.records import RunRecord


def heal_torn_tail(path: Path) -> bool:
    """Terminate a torn trailing line left by a crash mid-append.

    A JSON-lines writer killed between ``write`` and the trailing
    newline leaves a partial last line; appending straight after it
    would merge the next (valid) entry into the torn fragment and lose
    *both*.  This stamps the missing newline so the fragment stays an
    isolated corrupt line — skipped on load — and every later append
    starts clean.  Returns whether a heal was needed.
    """
    if not path.exists() or path.stat().st_size == 0:
        return False
    with path.open("r+b") as handle:
        handle.seek(-1, 2)
        if handle.read(1) == b"\n":
            return False
        handle.write(b"\n")
    return True


def read_json_lines(
    path: Path, parse: Callable[[Any], Any]
) -> Tuple[List[Any], int]:
    """Every line of the JSON-lines file at *path* through *parse*, and
    the number of lines skipped.

    A line that is not JSON, or that *parse* rejects with
    ``ValueError``, ``KeyError``, ``TypeError`` or
    :class:`~repro.errors.ConfigError`, is skipped: a crash mid-append
    leaves at most one such line, and dropping it loses that one entry.
    """
    entries: List[Any] = []
    skipped = 0
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(parse(json.loads(line)))
            except (ValueError, KeyError, TypeError, ConfigError):
                skipped += 1
    return entries, skipped


def append_json_line(path: Path, entry: Dict[str, object]) -> None:
    """Append *entry* to the JSON-lines file at *path* and flush it.

    Another holder of *path* may have crashed mid-append at any point;
    its torn line is closed first (:func:`heal_torn_tail`).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    heal_torn_tail(path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
        handle.flush()


def _parse_entry(entry: Dict[str, Any]) -> Tuple[str, RunRecord]:
    return str(entry["key"]), RunRecord.from_dict(entry["record"])


class ResultStore:
    """Thread-safe content-addressed ``RunRecord`` cache.

    *path* is the JSON-lines backing file; ``None`` keeps the store
    purely in-memory (hermetic tests, throwaway servers).  An existing
    file is loaded eagerly — the in-memory index always mirrors disk.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._path = None if path is None else Path(path)
        self._lock = threading.Lock()
        self._index: Dict[str, RunRecord] = {}
        self.rejected_failures = 0
        #: Lines skipped while loading (corrupt/truncated appends).
        self.skipped_lines = 0
        if self._path is not None and self._path.exists():
            self._load()

    # -- persistence -----------------------------------------------------------

    def _load(self) -> None:
        assert self._path is not None
        entries, self.skipped_lines = read_json_lines(self._path, _parse_entry)
        for key, record in entries:
            if record.failed:  # defence against hand-edited stores
                self.rejected_failures += 1
                continue
            # First write wins: a concurrent second writer may have
            # appended a duplicate key; the earliest line is the
            # authoritative one.
            self._index.setdefault(key, record)

    # -- the cache interface ---------------------------------------------------

    def get(self, key: str) -> Optional[RunRecord]:
        """The record filed under *key*, or ``None``."""
        with self._lock:
            return self._index.get(key)

    def put(self, key: str, record: RunRecord) -> bool:
        """File *record* under *key*; returns whether it was stored.

        Refused (``False``) for failure rows — crash/timeout records
        must not shadow a future successful run — and for keys already
        present (first write wins; determinism makes any duplicate
        equal anyway, so nothing is lost).
        """
        if record.failed:
            with self._lock:
                self.rejected_failures += 1
            return False
        with self._lock:
            if key in self._index:
                return False
            self._index[key] = record
            if self._path is not None:
                append_json_line(
                    self._path, {"key": key, "record": record.to_dict()}
                )
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[Tuple[str, RunRecord]]:
        """Snapshot of the ``(key, record)`` pairs (stable to iterate)."""
        with self._lock:
            return iter(list(self._index.items()))

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def stats(self) -> Dict[str, object]:
        """One JSON-ready summary block (served by ``status``)."""
        with self._lock:
            return {
                "entries": len(self._index),
                "path": None if self._path is None else str(self._path),
                "rejected_failures": self.rejected_failures,
                "skipped_lines": self.skipped_lines,
            }
