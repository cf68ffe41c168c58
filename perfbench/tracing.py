"""Outside-in span tracing for the benchmark.

The benchmark never edits the simulator to trace it.  Instead a
:class:`Tracer` patches public methods of the simulator's classes (the
:class:`Hook` list from ``workloads.hooks()``) for the length of a
traced run and restores them afterwards.  Every patched call records one span: its
name, start, end, parent span and the operation id it belongs to (the
sweep point or the serve submission).  Spans stay in memory until the
run ends, then :func:`attribute` splits wall time across span names and
:meth:`Tracer.dump` writes the spans out.

Self time follows one rule everywhere: each instant of a timeline goes
to the most recently started span still open on it.  For spans nested
on one thread that is exactly "span time minus child spans".  For the
serve workload, whose server-side spans run on other threads than the
client that waits for them, the same rule splits a client's wait across
the server work done for it, so the per-layer self times plus the
``unattributed`` remainder always sum to the traced wall time.
"""

from __future__ import annotations

import heapq
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

perf = time.perf_counter

# A span is a mutable list so its end can be filled in when it closes:
# [name, start, end, parent span or None, op id, method, truthy result]
NAME, START, END, PARENT, OP, METHOD, TRUTHY = range(7)

#: Span names that belong to the benchmark itself, not to a layer; their
#: self time is the ``unattributed`` remainder.
BENCH_SPANS = ("bench.loop", "bench.op")


class Hook:
    """One method to patch: where it lives and what its spans are called.

    ``probe(obj)`` returns counters read before and after each call; their
    deltas accumulate under ``probe_keys``.  ``after(tracer, args, result)``
    sees each result.  ``before(tracer, args)`` runs ahead of
    the span (the serve workload uses it to tie server threads to the
    client waiting on them).  ``truthy`` records whether each call
    returned something, for yield and hit ratios.
    """

    def __init__(
        self,
        target: str,
        span: str,
        truthy: bool = False,
        probe: Optional[Callable[[object], Tuple[float, ...]]] = None,
        probe_keys: Sequence[str] = (),
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        self.target = target  # "package.module:Class.method" or "package.module:function"
        self.span = span
        self.truthy = truthy
        self.probe = probe
        self.probe_keys = tuple(probe_keys)
        self.after = after
        self.before = before


class Tracer:
    """Records spans from patched methods; one instance per traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: List[List[list]] = []
        self._restore: List[Tuple[object, str, object]] = []
        #: Targets named by a hook table that this tree does not have.
        self.missing: List[str] = []
        #: Deltas and totals from hook probes and result hooks.
        self.counters: Counter = Counter()
        #: op id -> the open span that waits on it (serve: client submits).
        self.op_spans: Dict[object, list] = {}
        #: Free-form per-run state for workload hooks.
        self.state: Dict[str, object] = {}

    # -- span storage ----------------------------------------------------------

    def _spans(self) -> List[list]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            local.hint = None
            with self._lock:
                self._thread_spans.append(spans)
        return spans

    def set_hint(self, op: object) -> None:
        """Make *op* the parent of this thread's next top-level span."""
        self._spans()
        self._local.hint = op

    def _orphan_parent(self) -> Tuple[Optional[list], object]:
        op = self._local.hint
        return self.op_spans.get(op), op

    def open(self, name: str, op: object = None, method: str = "") -> list:
        """Open a span on this thread (benchmark-owned spans use this)."""
        spans = self._spans()
        stack = self._local.stack
        if stack:
            parent = stack[-1]
            if op is None:
                op = parent[OP]
        else:
            parent, hint = self._orphan_parent()
            if op is None:
                op = hint
        span = [name, perf(), 0.0, parent, op, method or name, False]
        spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf()
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()
        else:
            self._local.stack = [open_ for open_ in stack if open_ is not span]

    def add(self, name: str, start: float, end: float, op: object) -> None:
        """Record a finished span whose bounds were measured elsewhere."""
        if end <= start:
            return
        spans = self._spans()
        spans.append([name, start, end, self.op_spans.get(op), op, name, False])

    def all_spans(self) -> List[list]:
        with self._lock:
            return [span for spans in self._thread_spans for span in spans]

    # -- patching --------------------------------------------------------------

    def install(self, hooks: Iterable[Hook]) -> None:
        for hook in hooks:
            self._install_one(hook)

    def _install_one(self, hook: Hook) -> None:
        module_name, _, attr_path = hook.target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(hook.target)
            return
        *owners, attr = attr_path.split(".")
        for name in owners:
            owner = getattr(owner, name, None)
            if owner is None:
                self.missing.append(hook.target)
                return
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(hook.target)
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        wrapped = self._wrap(func, hook, attr_path)
        replacement = kind(wrapped) if kind is not None else wrapped
        self._set(owner, attr, raw, replacement)
        if not isinstance(owner, type):
            # Modules that imported the function by name hold their own
            # reference; patch those too.
            for mod_name, module in list(sys.modules.items()):
                if (
                    module is not owner
                    and mod_name.startswith("repro")
                    and getattr(module, attr, None) is raw
                ):
                    self._set(module, attr, raw, replacement)

    def _set(self, owner: object, attr: str, original: object, value: object) -> None:
        setattr(owner, attr, value)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, func: Callable, hook: Hook, method: str) -> Callable:
        tracer = self
        name = hook.span
        truthy = hook.truthy
        probe, keys = hook.probe, hook.probe_keys
        after, before = hook.after, hook.before
        counters = self.counters

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            span = tracer.open(name, method=method)
            if probe is not None:
                was = probe(args[0])
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if truthy and result:
                span[TRUTHY] = True
            if probe is not None:
                now = probe(args[0])
                for key, old, new in zip(keys, was, now):
                    counters[key] += new - old
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write the spans as JSON lines; returns the span count.

        The first line names the fields; each further line is one span
        as ``[id, name, method, start, end, parent id, op]``.
        """
        spans = self.all_spans()
        ids = {id(span): index for index, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "name", "method", "start", "end", "parent", "op"]}) + "\n")
            for index, span in enumerate(spans):
                parent = span[PARENT]
                row = [
                    index,
                    span[NAME],
                    span[METHOD],
                    round(span[START], 7),
                    round(span[END], 7),
                    None if parent is None else ids.get(id(parent)),
                    None if span[OP] is None else str(span[OP]),
                ]
                handle.write(json.dumps(row) + "\n")
        return len(spans)


def attribute(spans: Sequence[list], roots: Sequence[list]) -> Tuple[Dict[str, float], float]:
    """Self time per span name over the timelines of *roots*.

    Each instant inside a root goes to the most recently started span
    that descends from that root and is still open; descendants are
    clipped to the root's interval.  Returns ``(self seconds by name,
    total wall)``, where the wall is the summed root durations and the
    self times sum to it exactly.
    """
    children: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append(span)
    self_time: Dict[str, float] = defaultdict(float)
    wall = 0.0
    for root in roots:
        lo, hi = root[START], root[END]
        wall += hi - lo
        order = [root]
        for span in order:  # breadth-first: parents precede children
            order.extend(children.get(id(span), ()))
        events = []
        for seq, span in enumerate(order):
            start, end = max(span[START], lo), min(span[END], hi)
            if end > start:
                events.append((start, 1, seq))
                events.append((end, 0, seq))
        events.sort()
        # Max-heap on (start, seq): the latest-started open span owns the
        # instant; on equal starts the deeper span (later seq) wins.
        heap: List[Tuple[float, int]] = []
        ended = set()
        previous = lo
        for moment, opening, seq in events:
            while heap and -heap[0][1] in ended:
                heapq.heappop(heap)
            if heap:
                self_time[order[-heap[0][1]][NAME]] += moment - previous
            previous = moment
            if opening:
                heapq.heappush(heap, (-moment, -seq))
            else:
                ended.add(seq)
    return dict(self_time), wall
