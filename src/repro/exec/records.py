"""The mergeable result row every experiment emits.

A :class:`RunRecord` is one ``(sweep point, engine) → counters`` row:
plain frozen data, picklable (process-backend workers ship them back
over the pool) and JSON round-trippable (experiment tables persist
them).  Equality deliberately ignores ``wall_seconds`` — two backends
that simulate the same point must produce *equal* records even though
their wall clocks differ, which is exactly the property the
serial-vs-process determinism tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.canonical import register_content_schema, stable_hash
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec → exec)
    from repro.system.spec import SystemSpec
    from repro.traffic.workloads import Workload

#: Extra per-point metrics: sorted ``(name, value)`` pairs so the record
#: stays hashable and order-independent.
MetricItems = Tuple[Tuple[str, object], ...]


def _freeze_value(value: object) -> object:
    """Recursively turn lists/tuples into tuples and dicts into sorted
    item tuples.

    JSON serialisation lowers tuples to lists; freezing on the way in
    makes ``from_dict(json.loads(json.dumps(r.to_dict())))`` compare
    equal to the original record and keeps records hashable whatever
    nested shape a collector returned.
    """
    if isinstance(value, Mapping):
        return tuple(
            (key, _freeze_value(item)) for key, item in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item) for item in value)
    return value


def _freeze_metrics(metrics: Optional[Mapping[str, object]]) -> MetricItems:
    if not metrics:
        return ()
    return tuple(
        (key, _freeze_value(value)) for key, value in sorted(metrics.items())
    )


_MISSING = object()

#: Schema tags mixed into the content hashes (bumping one invalidates
#: every key of that kind at once — the cache invalidation story).
POINT_KEY_SCHEMA = register_content_schema(
    "ahbplus-point-v2", "repro.exec.records.point_key"
)
#: Digest of the records a fixed set of points produces at every level
#: under ``POINT_KEY_SCHEMA`` (``tests/test_record_fingerprint.py``).
#: A change that moves a cycle at any level must bump that tag and
#: re-record this digest, so stores keyed under the old tag go cold.
POINT_KEY_FINGERPRINT = "6e11394130550bc9"
RECORD_KEY_SCHEMA = register_content_schema(
    "ahbplus-record-v1", "repro.exec.records.RunRecord"
)


def point_key(
    spec: "SystemSpec",
    workload: Optional["Workload"] = None,
    seed: Optional[int] = None,
    engine: str = "tlm",
    max_cycles: Optional[int] = None,
) -> str:
    """Canonical content address of one simulation request.

    The key covers everything that determines a run's counters — the
    full :class:`~repro.system.spec.SystemSpec` (which embeds the
    workload and its seed), the engine level and the cycle ceiling —
    and nothing else: sweep bookkeeping (labels, axis names) does not
    participate, so two grids that request the same simulation under
    different labels share one key.  Simulations are deterministic, so
    a key hit in a result store is provably the same record a fresh
    run would produce.

    *workload* and *seed* rebind the spec before hashing (the sweep
    axes that replace the workload rather than the config), so callers
    can key a variant without constructing the replacement spec first.
    Stability is pinned by tests: the same key falls out across dict
    key ordering, ``to_dict`` → JSON → ``from_dict`` round-trips and
    serial- vs process-backend execution.
    """
    from repro.system.spec import LEVELS

    if engine not in LEVELS:
        raise ConfigError(f"unknown engine {engine!r}; choose from {LEVELS}")
    if max_cycles is not None and int(max_cycles) <= 0:
        raise ConfigError(f"max_cycles must be positive, got {max_cycles}")
    if workload is not None:
        spec = spec.with_workload(workload)
    if seed is not None:
        spec = spec.with_seed(int(seed))
    payload = {
        "spec": spec.to_dict(),
        "engine": engine,
        "max_cycles": None if max_cycles is None else int(max_cycles),
    }
    return stable_hash(payload, POINT_KEY_SCHEMA)


@dataclass(frozen=True)
class RunRecord:
    """One experiment row: identity, counters, optional extra metrics."""

    # -- identity: which grid point produced this row -------------------------
    label: str
    axis: str
    value: str  #: ``repr()`` of the swept value (JSON-safe, stable)
    engine: str
    system: str  #: the spec's name
    workload: str
    seed: int
    # -- counters (shared across all engines) ---------------------------------
    cycles: int
    transactions: int
    bytes_transferred: int
    busy_cycles: int
    # -- AHB+-specific counters ------------------------------------------------
    absorbed_writes: int = 0
    drained_writes: int = 0
    rt_deadline_hits: int = 0
    rt_deadline_misses: int = 0
    #: Fault-injection outcomes: transactions aborted with ERROR (or an
    #: exhausted RETRY budget) and RETRY responses taken.
    error_responses: int = 0
    retry_responses: int = 0
    #: Collector output (see ``SweepRunner.run(collect=...)``).
    metrics: MetricItems = ()
    #: Non-empty when the point crashed or timed out instead of running
    #: to completion (``SweepRunner(on_error="record")``); every counter
    #: is zero on such rows.
    error: str = ""
    #: Wall time of the (best) run — excluded from equality.
    wall_seconds: float = field(compare=False, default=0.0)

    @property
    def failed(self) -> bool:
        """True when this row records a crash/timeout, not a run."""
        return bool(self.error)

    @property
    def utilization(self) -> float:
        """Fraction of cycles the data bus carried a transfer."""
        if self.cycles == 0:
            return 0.0
        return self.busy_cycles / self.cycles

    def content_key(self) -> str:
        """Canonical content address of this record's *result*.

        Hashes every compared field — identity, counters, metrics and
        the error marker — but not ``wall_seconds`` (excluded from
        equality for the same reason: two runs of the same point are
        the same result however long they took).  Equal records always
        share a key, across dict ordering, JSON round-trips and
        execution backends, which is what lets the serving layer assert
        a cache replay is bit-identical to a fresh run.
        """
        payload = self.to_dict()
        del payload["wall_seconds"]
        return stable_hash(payload, RECORD_KEY_SCHEMA)

    def metric(self, name: str, default: object = _MISSING) -> object:
        """Look up one collector metric by name."""
        for key, value in self.metrics:
            if key == name:
                return value
        if default is not _MISSING:
            return default
        raise ConfigError(
            f"record {self.label!r} has no metric {name!r}; "
            f"available: {[key for key, _v in self.metrics]}"
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_run(
        cls,
        point,
        result,
        wall_seconds: float = 0.0,
        metrics: Optional[Mapping[str, object]] = None,
    ) -> "RunRecord":
        """Build a record from a sweep point and its run result.

        Every engine returns an
        :class:`~repro.core.bus.AhbPlusRunResult`, so the counters are
        read directly.
        """
        spec = point.spec
        return cls(
            label=point.label,
            axis=point.axis,
            value=repr(point.value),
            engine=point.engine,
            system=spec.name,
            workload=spec.workload.name,
            seed=spec.workload.seed,
            cycles=result.cycles,
            transactions=result.transactions,
            bytes_transferred=result.bytes_transferred,
            busy_cycles=result.busy_cycles,
            absorbed_writes=result.absorbed_writes,
            drained_writes=result.drained_writes,
            rt_deadline_hits=result.rt_deadline_hits,
            rt_deadline_misses=result.rt_deadline_misses,
            error_responses=result.error_responses,
            retry_responses=result.retry_responses,
            metrics=_freeze_metrics(metrics),
            wall_seconds=wall_seconds,
        )

    @classmethod
    def from_error(
        cls, point, error: str, wall_seconds: float = 0.0
    ) -> "RunRecord":
        """An error row: the point's identity plus what killed it.

        Crash-tolerant sweeps (``SweepRunner(on_error="record")``) emit
        these instead of losing the whole grid to one bad point; all
        counters are zero and :attr:`failed` is true.
        """
        spec = point.spec
        return cls(
            label=point.label,
            axis=point.axis,
            value=repr(point.value),
            engine=point.engine,
            system=spec.name,
            workload=spec.workload.name,
            seed=spec.workload.seed,
            cycles=0,
            transactions=0,
            bytes_transferred=0,
            busy_cycles=0,
            error=error,
            wall_seconds=wall_seconds,
        )

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (metrics become a plain dict)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["metrics"] = dict(self.metrics)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown RunRecord fields {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["metrics"] = _freeze_metrics(kwargs.get("metrics"))  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]
