"""Write-ahead journal: accepted work survives a server crash.

The :class:`~repro.serve.store.ResultStore` remembers *finished* work;
this module remembers **accepted** work.  Every submission point the
server admits is appended here *before* it is queued, and marked off as
its result lands, so a server killed mid-batch can be restarted on the
same store+journal and re-run exactly the unfinished remainder —
finished points replay from the store, nothing runs twice, nothing is
lost.

The journal is an append-only JSON-lines file of four entry kinds::

    {"op": "accept", "key": K, "point": WIRE_POINT, "max_cycles": N|null}
    {"op": "start",  "key": K}            # an attempt began executing
    {"op": "done",   "key": K}            # result landed in the store
    {"op": "fail",   "key": K, "error": ...}  # attempt crashed cleanly

Replaying the file reconstructs three facts per key:

* **pending** — accepted with no terminal mark: the work a restart
  must re-run (or replay from the store when the result landed but the
  ``done`` mark did not);
* **crash count** — consecutive failed attempts, counting both clean
  ``fail`` rows and *interrupted starts* (a ``start`` with no matching
  ``done``/``fail`` means the whole server died mid-attempt); a
  ``done`` resets the count;
* **dispatch accounting** — the chaos harness asserts that no key is
  ever ``start``-ed again after its ``done`` (zero duplicate
  simulations) by reading this same log.

A crash mid-append leaves at most one torn trailing line; loading
tolerates and counts it, and the next append heals the missing
newline first so later entries never merge into the torn one (the
store file's reader and appender,
:func:`~repro.serve.store.read_json_lines` and
:func:`~repro.serve.store.append_json_line`, serve both files).
Entries are flushed per append: ``kill -9`` cannot lose an
acknowledged accept (only machine power loss could, which is out of
scope for the chaos guarantees).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.serve.store import append_json_line, read_json_lines

#: Journal entry kinds.
JOURNAL_OPS = ("accept", "start", "done", "fail")


def _parse_entry(entry: Dict[str, Any]) -> Tuple[str, str, Dict[str, Any]]:
    """``(op, key, entry)`` of one journal line; ``ValueError`` on an
    unknown op."""
    op = entry["op"]
    if op not in JOURNAL_OPS:
        raise ValueError(f"unknown journal op {op!r}")
    return str(op), str(entry["key"]), entry


class Journal:
    """Thread-safe write-ahead log of accepted submission points.

    *path* is the JSON-lines backing file; ``None`` keeps the journal
    purely in-memory (hermetic tests — the recovery *logic* still works
    across two server objects sharing one instance, only durability is
    lost).  An existing file is replayed eagerly on construction.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._path = None if path is None else Path(path)
        self._lock = threading.Lock()
        #: key -> (wire point dict, max_cycles) for accepted-unfinished work.
        self._pending: Dict[str, Tuple[Dict[str, object], Optional[int]]] = {}
        #: key -> consecutive crash count (fails + interrupted starts).
        self._crashes: Dict[str, int] = {}
        #: key -> starts not yet matched by done/fail (live attempts).
        self._open_starts: Dict[str, int] = {}
        #: Keys whose ``done`` mark has been written (duplicate guard).
        self._done: set = set()
        #: Lines skipped while loading (corrupt/truncated appends).
        self.skipped_lines = 0
        if self._path is not None and self._path.exists():
            self._replay()

    # -- persistence -----------------------------------------------------------

    def _replay(self) -> None:
        assert self._path is not None
        entries, self.skipped_lines = read_json_lines(self._path, _parse_entry)
        for op, key, entry in entries:
            if op == "accept":
                self._pending[key] = (
                    entry.get("point") or {},
                    entry.get("max_cycles"),
                )
            elif op == "start":
                self._open_starts[key] = self._open_starts.get(key, 0) + 1
            elif op == "done":
                self._apply_done(key)
            else:  # fail
                self._apply_fail(key)
        # A start with no terminal mark means the server died mid-attempt:
        # that interrupted attempt counts toward the key's crash score.
        for key, open_count in self._open_starts.items():
            if open_count > 0:
                self._crashes[key] = self._crashes.get(key, 0) + open_count
        self._open_starts = {}

    def _apply_done(self, key: str) -> None:
        self._pending.pop(key, None)
        self._crashes.pop(key, None)  # success resets the crash streak
        self._done.add(key)
        if self._open_starts.get(key):
            self._open_starts[key] -= 1

    def _apply_fail(self, key: str) -> None:
        self._pending.pop(key, None)
        self._crashes[key] = self._crashes.get(key, 0) + 1
        if self._open_starts.get(key):
            self._open_starts[key] -= 1

    def _append(self, entry: Dict[str, object]) -> None:
        if self._path is not None:
            append_json_line(self._path, entry)

    # -- the WAL interface -----------------------------------------------------

    def record_accept(
        self,
        key: str,
        point_wire: Dict[str, object],
        max_cycles: Optional[int] = None,
    ) -> None:
        """Log one admitted point **before** it is queued anywhere."""
        with self._lock:
            self._pending[key] = (point_wire, max_cycles)
            self._append(
                {
                    "op": "accept",
                    "key": key,
                    "point": point_wire,
                    "max_cycles": max_cycles,
                }
            )

    def record_start(self, key: str) -> None:
        """Log that an execution attempt for *key* is beginning."""
        with self._lock:
            self._open_starts[key] = self._open_starts.get(key, 0) + 1
            self._append({"op": "start", "key": key})

    def record_done(self, key: str) -> None:
        """Mark *key* finished (its record landed in the result store)."""
        with self._lock:
            if key in self._done:
                return  # idempotent: recovery may re-mark a store hit
            self._apply_done(key)
            self._append({"op": "done", "key": key})

    def record_fail(self, key: str, error: str) -> None:
        """Mark one attempt of *key* crashed (answered with an error row)."""
        with self._lock:
            self._apply_fail(key)
            self._append({"op": "fail", "key": key, "error": error})

    # -- introspection ---------------------------------------------------------

    def pending(self) -> List[Tuple[str, Dict[str, object], Optional[int]]]:
        """Accepted-but-unfinished work: ``(key, wire point, max_cycles)``."""
        with self._lock:
            return [
                (key, point, max_cycles)
                for key, (point, max_cycles) in self._pending.items()
            ]

    def crash_count(self, key: str) -> int:
        """Consecutive crashed attempts recorded for *key*."""
        with self._lock:
            return self._crashes.get(key, 0)

    def quarantined(self, threshold: int) -> List[str]:
        """Keys whose crash streak has reached *threshold*."""
        with self._lock:
            return sorted(
                key
                for key, count in self._crashes.items()
                if count >= threshold
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def stats(self) -> Dict[str, object]:
        """One JSON-ready summary block (served by ``status``)."""
        with self._lock:
            return {
                "pending": len(self._pending),
                "completed": len(self._done),
                "crashing_keys": len(self._crashes),
                "path": None if self._path is None else str(self._path),
                "skipped_lines": self.skipped_lines,
            }
