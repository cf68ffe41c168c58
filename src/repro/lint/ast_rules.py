"""The five DET-* determinism rules over the source tree.

These are plain AST rules (no elaboration): they scan ``src/repro`` and
flag constructs that would make a simulation, a sweep key, or a cached
result depend on something other than its inputs.

* **DET-RAND** — calls on the module-global :mod:`random` state
  (``random.randint(...)`` etc.) and unseeded ``random.Random()``.
  Every RNG in the simulator must be derived from an explicit seed or
  the same spec hashes to different behaviour.  ``repro/serve`` is
  exempt: its retry jitter is wall-clock-adjacent by design and
  injectable for tests.
* **DET-TIME** — wall-clock reads (``time.time``/``time_ns``,
  ``datetime.now``/``utcnow``/``today``).  ``perf_counter`` stays legal:
  it only ever feeds duration metrics that are excluded from content
  keys.
* **DET-MUTDEF** — mutable default arguments (the classic shared-state
  leak between calls).
* **DET-PICKLE** — ``collect=`` callables that cannot be pickled by
  reference (lambdas, functions nested inside another function): the
  process-pool sweep path would crash on them at dispatch time.
* **DET-SCHEMA** — content-key hygiene: every ``ahbplus-*`` schema tag
  must be claimed through
  :func:`repro.canonical.register_content_schema` (bare module-level
  string constants and literal tags passed to ``stable_hash`` are
  findings), and a class that defines ``content_key`` must carry the
  ``to_dict``/``from_dict`` pair its key round-trips through.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Union

from repro.lint.findings import LintFinding

#: Modules allowed to touch the shared :mod:`random` state, with the
#: documented reason (rendered when ``--list-rules`` explains scope).
RAND_EXEMPT = {
    "repro/serve": "retry/backoff jitter; injectable and outside sim state",
}

_TIME_CALLS = {"time", "time_ns"}
_DATETIME_CALLS = {"now", "utcnow", "today"}
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set)
_MUTABLE_CALLS = {"list", "dict", "set"}


def _rel(path: Path, root: Path) -> str:
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


def _exempt_reason(rel_path: str) -> Optional[str]:
    normalized = rel_path.replace("\\", "/")
    for prefix, reason in RAND_EXEMPT.items():
        if normalized.startswith(prefix + "/") or normalized == prefix:
            return reason
    return None


class _FileScan(ast.NodeVisitor):
    """All DET rules in one AST walk of a single file."""

    def __init__(self, rel_path: str, rand_exempt: Optional[str]) -> None:
        self.rel_path = rel_path
        self.rand_exempt = rand_exempt
        self.findings: List[LintFinding] = []
        #: Names bound to the stdlib random / time / datetime modules.
        self.random_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.datetime_aliases: Set[str] = set()
        #: Stack of function scopes; each holds its nested-def names.
        self.func_stack: List[Set[str]] = []

    # -- helpers -------------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        finding = LintFinding(
            rule=rule,
            location=f"{self.rel_path}:{line}",
            message=message,
        )
        if rule == "DET-RAND" and self.rand_exempt is not None:
            finding = finding.waive(self.rand_exempt)
        self.findings.append(finding)

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    self._emit(
                        "DET-RAND",
                        node,
                        f"from random import {alias.name} binds the "
                        "module-global RNG state; derive a seeded "
                        "random.Random instead",
                    )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_CALLS:
                    self._emit(
                        "DET-TIME",
                        node,
                        f"from time import {alias.name} is a wall-clock "
                        "read; use perf_counter for durations",
                    )
        elif node.module == "datetime":
            for alias in node.names:
                self.datetime_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------------

    def _attr_on(self, node: ast.expr, aliases: Set[str]) -> Optional[str]:
        """``alias.attr`` where alias names a tracked module -> attr."""
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                return node.attr
        return None

    def visit_Call(self, node: ast.Call) -> None:
        attr = self._attr_on(node.func, self.random_aliases)
        if attr is not None:
            if attr == "Random":
                if not node.args and not node.keywords:
                    self._emit(
                        "DET-RAND",
                        node,
                        "random.Random() without a seed draws entropy from "
                        "the OS; pass an explicit seed",
                    )
            elif attr != "SystemRandom":
                self._emit(
                    "DET-RAND",
                    node,
                    f"random.{attr}() uses the shared module-global RNG; "
                    "derive values from a seeded random.Random",
                )
        attr = self._attr_on(node.func, self.time_aliases)
        if attr in _TIME_CALLS:
            self._emit(
                "DET-TIME",
                node,
                f"time.{attr}() reads the wall clock; simulation state and "
                "content keys must not depend on it",
            )
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _DATETIME_CALLS:
                base = node.func.value
                base_name = None
                if isinstance(base, ast.Name):
                    base_name = base.id
                elif isinstance(base, ast.Attribute):
                    base_name = base.attr
                if base_name in ("datetime", "date") or (
                    isinstance(base, ast.Name)
                    and base.id in self.datetime_aliases
                ):
                    self._emit(
                        "DET-TIME",
                        node,
                        f"datetime {node.func.attr}() reads the wall clock",
                    )
        # stable_hash(value, "literal-tag")
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if func_name == "stable_hash":
            schema_arg: Optional[ast.expr] = None
            if len(node.args) >= 2:
                schema_arg = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg == "schema":
                        schema_arg = kw.value
            if isinstance(schema_arg, ast.Constant) and isinstance(
                schema_arg.value, str
            ):
                self._emit(
                    "DET-SCHEMA",
                    schema_arg,
                    f"stable_hash called with literal tag "
                    f"{schema_arg.value!r}; use a constant claimed via "
                    "register_content_schema so the tag is unique",
                )
        # collect=<non-picklable>
        for kw in node.keywords:
            if kw.arg != "collect":
                continue
            if isinstance(kw.value, ast.Lambda):
                self._emit(
                    "DET-PICKLE",
                    kw.value,
                    "collect=lambda cannot be pickled by reference; the "
                    "process-pool sweep path will fail to dispatch it — "
                    "use a module-level function",
                )
            elif isinstance(kw.value, ast.Name) and any(
                kw.value.id in scope for scope in self.func_stack
            ):
                self._emit(
                    "DET-PICKLE",
                    kw.value,
                    f"collect={kw.value.id} is a function nested inside "
                    "another function; it cannot be pickled by reference — "
                    "move it to module level",
                )
        self.generic_visit(node)

    # -- defs ----------------------------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            )
            if mutable:
                self._emit(
                    "DET-MUTDEF",
                    default,
                    f"function {node.name} has a mutable default argument; "
                    "it is shared across calls — default to None",
                )

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        if self.func_stack:
            self.func_stack[-1].add(node.name)
        self.func_stack.append(set())
        self.generic_visit(node)
        self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "content_key" in methods:
            missing = {"to_dict", "from_dict"} - methods
            if missing:
                self._emit(
                    "DET-SCHEMA",
                    node,
                    f"class {node.name} defines content_key but not "
                    f"{'/'.join(sorted(missing))}; content keys must "
                    "round-trip through to_dict/from_dict",
                )
        self.generic_visit(node)

    # -- module-level schema constants --------------------------------------

    def scan_module_assigns(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if (
                value is not None
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value.startswith("ahbplus-")
            ):
                names = ", ".join(
                    t.id for t in targets if isinstance(t, ast.Name)
                )
                self._emit(
                    "DET-SCHEMA",
                    stmt,
                    f"schema tag constant {names or '<target>'} = "
                    f"{value.value!r} is not claimed; wrap the literal in "
                    "register_content_schema(tag, owner)",
                )


def _iter_sources(root: Path) -> Iterable[Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        yield path


def run_source_rules(
    paths: Union[Path, str, Sequence[Union[Path, str]]],
    root: Optional[Path] = None,
) -> List[LintFinding]:
    """Run every DET-* rule over *paths* (a tree, file, or list).

    Locations are reported relative to *root* (default: the single
    path's parent tree), which is also what the ``repro/serve``
    exemption matches against.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    findings: List[LintFinding] = []
    for entry in paths:
        entry = Path(entry)
        base = root if root is not None else (
            entry if entry.is_dir() else entry.parent
        )
        for path in _iter_sources(entry):
            rel_path = _rel(path, base)
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError) as exc:
                findings.append(
                    LintFinding(
                        rule="DET-SCHEMA",
                        location=rel_path,
                        message=f"unparseable source: {exc}",
                    )
                )
                continue
            scan = _FileScan(rel_path, _exempt_reason(rel_path))
            scan.scan_module_assigns(tree)
            scan.visit(tree)
            findings.extend(scan.findings)
    return findings
