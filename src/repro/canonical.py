"""Canonical JSON hashing: one stable content address per value.

The serving layer (:mod:`repro.serve`) keys its result cache on a hash
of *what was simulated* — spec, workload, seed, engine, cycle ceiling —
and the whole scheme only works if that hash is insensitive to every
representation detail that does not change the simulation:

* **dict ordering** — ``to_dict()`` output hashed directly must equal
  the same mapping with its keys inserted in any other order, so
  :func:`canonical_json` sorts keys recursively;
* **JSON round-trips** — tuples lower to lists on the wire, so both
  serialise identically here; and
* **process boundaries** — the digest is computed from the canonical
  *text*, never from ``hash()`` (which is salted per interpreter).

Only JSON-expressible values are accepted: hashing an object whose
identity silently fell back to ``repr`` would make equal-looking keys
diverge across processes, so anything else raises :class:`ConfigError`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Sequence

from repro.errors import ConfigError

#: Digest length (hex chars) of :func:`stable_hash`.  128 bits of a
#: sha256 is far beyond collision concerns for cache-sized key spaces
#: while keeping keys readable in logs and JSON-lines stores.
KEY_HEX_CHARS = 32


#: Exact scalar types that pass through :func:`canonical_value` as-is.
_PLAIN_SCALARS = frozenset((str, int, float, bool, type(None)))


def canonical_value(value: object) -> object:
    """*value* reduced to plain JSON types with deterministic ordering.

    Mappings become dicts sorted by key (keys must be strings — JSON
    would silently coerce anything else and ``sort_keys`` would compare
    mixed types), sequences become lists, and scalars pass through.

    Plain ``dict``/``list``/``tuple`` values and exact scalar types —
    what ``to_dict()`` payloads are made of — take exact-type checks
    first; everything else (mapping proxies, enums, custom containers,
    a plain dict with a non-string key) goes through the ABC checks.
    Both paths give the same result and raise the same errors.
    """
    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return value
    if kind is dict:
        if all(type(key) is str for key in value):
            return {key: canonical_value(value[key]) for key in sorted(value)}
    elif kind is list or kind is tuple:
        return [canonical_value(item) for item in value]
    if isinstance(value, Mapping):
        for key in value:
            if not isinstance(key, str):
                raise ConfigError(
                    f"canonical hashing needs string keys, got {key!r}"
                )
        return {
            key: canonical_value(item)
            for key, item in sorted(value.items())
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return [canonical_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(
        f"value {value!r} of type {type(value).__name__} is not "
        f"JSON-expressible; canonical hashing would not be stable"
    )


def canonical_json(value: object) -> str:
    """The one canonical text form of *value* (sorted keys, no spaces)."""
    return json.dumps(
        canonical_value(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def stable_hash(value: object, schema: str) -> str:
    """Content address of *value*: hex sha256 over its canonical JSON.

    *schema* names the payload layout (e.g. ``"ahbplus-point-v2"``) and
    is mixed into the digest, so two different key kinds can never
    collide even when their payloads happen to serialise identically —
    and bumping a schema version invalidates every old key at once
    (the cache's invalidation-by-hash story).
    """
    text = f"{schema}\n{canonical_json(value)}"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest[:KEY_HEX_CHARS]


#: Every schema tag ever passed to :func:`register_content_schema`,
#: mapped to the dotted name that owns it.  One tag, one owner: two
#: modules claiming the same tag would silently share a key namespace
#: and cache hits could cross payload kinds.
_SCHEMA_REGISTRY: Dict[str, str] = {}


def register_content_schema(tag: str, owner: str) -> str:
    """Claim *tag* (an ``ahbplus-*`` schema name) for *owner*.

    Returns the tag so registration doubles as the constant definition::

        POINT_KEY_SCHEMA = register_content_schema(
            "ahbplus-point-v2", "repro.exec.records.point_key"
        )

    Registering the same tag twice from the same owner is idempotent
    (module reloads); a second owner raises :class:`ConfigError` at
    import time.  The lint subsystem (rule ``DET-SCHEMA``) additionally
    checks statically that every ``ahbplus-*`` literal in ``src/`` goes
    through this function.
    """
    if not tag.startswith("ahbplus-"):
        raise ConfigError(
            f"content schema tag {tag!r} must carry the ahbplus- prefix"
        )
    existing = _SCHEMA_REGISTRY.get(tag)
    if existing is not None and existing != owner:
        raise ConfigError(
            f"content schema tag {tag!r} already registered by "
            f"{existing}; {owner} cannot reuse it"
        )
    _SCHEMA_REGISTRY[tag] = owner
    return tag
