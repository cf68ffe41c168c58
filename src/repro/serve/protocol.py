"""The ``repro.serve`` wire protocol: line-delimited JSON over a socket.

One request object per line from the client, a stream of event objects
per line back from the server.  Everything is plain JSON — the same
``to_dict``/``from_dict`` shapes the rest of the repo persists — so any
language (or ``nc`` plus an eyeball) can speak it.

Requests::

    {"op": "submit", "points": [WIRE_POINT, ...], "max_cycles": N|null}
    {"op": "status"}
    {"op": "ping"}
    {"op": "drain"}
    {"op": "shutdown"}

where ``WIRE_POINT`` is ``{"label", "axis", "value", "spec", "engine"}``
(``spec`` a :meth:`SystemSpec.to_dict` mapping, ``value`` the swept
value's ``repr`` — identity bookkeeping only; the cache key is content:
spec + engine + max_cycles).

Responses (one per line; a ``submit`` streams them as points finish,
in grid order)::

    {"event": "accepted", "job": N, "points": K, "protocol": ...}
    {"event": "result", "job": N, "index": I, "key": ...,
     "cached": true|false,
     "source": "store"|"inflight"|"run"|"quarantined",
     "record": RECORD_DICT}
    {"event": "done", "job": N, "hits": H, "misses": M}
    {"event": "status", "stats": {...}, "store": {...}, "journal": {...}}
    {"event": "pong", "protocol": ...}
    {"event": "overloaded", "retry_after": SECONDS, "queue_depth": N,
     "message": ...}
    {"event": "draining", "message": ...}
    {"event": "bye"}
    {"event": "error", "message": ...}

``source`` distinguishes the hit kinds: ``"store"`` replayed a
persisted record, ``"inflight"`` attached to a point some other client
was already running (both count as cache hits — no simulation ran for
this submission); ``"quarantined"`` is an immediate error row for a
point parked after repeated crashes (nothing ran, nothing was cached).

``overloaded`` and ``draining`` are *backpressure* responses to
``submit``: the server refused the whole submission — nothing was
accepted or journaled — and the client should retry after
``retry_after`` seconds (``overloaded``) or against the restarted
server (``draining``).  Both are safe to retry blindly: submissions
are idempotent by content key.  ``drain`` asks a supervised server to
stop gracefully — finish in-flight work, keep the queued remainder
journaled for the next start, refuse new submissions — and is
acknowledged with a ``draining`` event.
"""

from __future__ import annotations

import json
from typing import Dict, IO, Iterable, List, Optional

from repro.canonical import register_content_schema
from repro.errors import ConfigError, ReproError
from repro.system.spec import LEVELS, SweepPoint, SystemSpec

#: Protocol identifier sent in ``accepted``/``pong`` events.  v2 added
#: the supervision surface: ``drain``, ``overloaded``/``draining``
#: backpressure events, the ``"quarantined"`` result source and the
#: ``journal`` status block (a v1 client still understands every v2
#: happy-path event).
PROTOCOL = register_content_schema(
    "ahbplus-serve-v2", "repro.serve.protocol"
)

#: Requests a server understands.
OPS = ("submit", "status", "ping", "drain", "shutdown")


class _WireValue:
    """A swept value reconstructed from its ``repr`` text.

    The wire carries ``repr(point.value)`` (arbitrary objects do not
    survive JSON); rebuilding the point around a ``_WireValue`` whose
    ``repr`` *is* that text makes :meth:`RunRecord.from_run` emit the
    exact identity string the submitting client used.  Picklable, so
    wire points ride the process backend unchanged.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _WireValue) and other.text == self.text

    def __hash__(self) -> int:
        return hash(self.text)


def point_to_wire(point: SweepPoint) -> Dict[str, object]:
    """Serialise one grid point for a ``submit`` request."""
    return {
        "label": point.label,
        "axis": point.axis,
        "value": repr(point.value),
        "spec": point.spec.to_dict(),
        "engine": point.engine,
    }


def point_from_wire(data: Dict[str, object]) -> SweepPoint:
    """Rebuild a grid point from its wire form (re-validating the spec).

    Any spec that does not decode — a missing or unknown field, a value
    of the wrong type, a validation failure at any layer — raises
    :class:`ConfigError` naming the point, which the server answers
    with an ``error`` event.
    """
    missing = {"label", "axis", "value", "spec", "engine"} - set(data)
    if missing:
        raise ConfigError(f"wire point needs fields {sorted(missing)}")
    label = str(data["label"])
    engine = str(data["engine"])
    if engine not in LEVELS:
        raise ConfigError(
            f"point {label!r}: unknown engine {engine!r}; choose from {LEVELS}"
        )
    try:
        spec = SystemSpec.from_dict(data["spec"])  # type: ignore[arg-type]
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"point {label!r}: bad spec: {exc}") from None
    return SweepPoint(
        label=label,
        axis=str(data["axis"]),
        value=_WireValue(str(data["value"])),
        spec=spec,
        engine=engine,
    )


def grid_to_wire(grid: Iterable[SweepPoint]) -> List[Dict[str, object]]:
    return [point_to_wire(point) for point in grid]


# -- line framing ---------------------------------------------------------------


def write_message(stream: IO[str], message: Dict[str, object]) -> None:
    """Send one protocol object (a single line; flushed immediately)."""
    stream.write(json.dumps(message) + "\n")
    stream.flush()


def read_message(stream: IO[str]) -> Optional[Dict[str, object]]:
    """Read one protocol object; ``None`` on a closed stream.

    Malformed lines raise :class:`ConfigError` — both sides treat that
    as a protocol violation (the server answers with an ``error`` event
    and drops the connection).
    """
    line = stream.readline()
    if not line:
        return None
    line = line.strip()
    if not line:
        return {}
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ConfigError(f"malformed protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ConfigError(
            f"protocol messages are JSON objects, got {type(message).__name__}"
        )
    return message
