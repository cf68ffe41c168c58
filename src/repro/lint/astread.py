"""Static read/drive analysis of registered process closures.

The dynamic trace (:mod:`repro.lint.trace`) only sees the branches a
particular workload happens to execute.  This module closes the gap: it
parses the source of each registered process with :mod:`ast` and
resolves attribute chains against the *live elaborated objects* bound
into the closure (``self``, free variables, module globals), so a read
like ``self.bus.htrans.value`` is attributed to the concrete
:class:`~repro.kernel.signal.Signal` instance of the netlist under
analysis — without running a single cycle.

What the walk records:

* ``<signal>.value`` attribute loads and bare signals forced to bool
  (``if sig:``, ``bool(sig)``, ``not sig``) are **reads**;
* ``<signal>.drive(...)`` / ``.drive_next(...)`` / ``.drive_next_lazy(...)``
  calls are **drives** with their kind;
* each read carries the **guard set**: the signals whose values the
  enclosing ``if``/``while`` tests depend on, tracked transitively
  through local-variable taint (``busy = self.bus.ddr_busy.value`` …
  ``if not busy:`` guards the branch on ``ddr_busy``), and including
  *early-return guards* — after ``if cond: return``, the remainder of
  the block is guarded by the signals ``cond`` reads.  The NET-WAKE
  rule uses guard sets to accept reads that can only fire when a
  declared wake signal already holds the enabling value.

Calls into other methods of ``repro`` components are followed
interprocedurally (bounded depth, memoised per ``(instance, code,
args)``), so ``update()`` helpers like ``_accept_address_phase`` are
analysed in context.  Kernel classes and builtins are never entered.

Resolution is best-effort by design: an attribute that cannot be
resolved simply contributes nothing.  The rules treat static evidence
as a *lower bound* on reads, exactly like the dynamic trace.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.kernel.signal import Signal
from repro.lint.trace import suppressed_tracking

#: Most candidate objects a single expression may resolve to.  Dynamic
#: subscripts (``self.master_signals[owner]``) fan out to every element;
#: the cap keeps pathological containers from exploding the analysis.
MAX_CANDIDATES = 32

#: Interprocedural recursion bound.  The deepest shipped chain runs
#: through the shared arbitration round, six calls below the entry:
#: ``ArbiterRtl.update -> _idle_round -> ArbitrationRound.arbitrate ->
#: decide -> AhbPlusArbiter.choose -> narrow -> <filter>._narrow``.
#: Its signal reads sit shallower (``arbitrate -> collect ->
#: ArbiterRtl._requests``, depth 4); the bound still terminates on
#: accidental recursion.
MAX_DEPTH = 6

_DRIVE_KINDS = ("drive", "drive_next", "drive_next_lazy")

_EMPTY: Tuple[object, ...] = ()
_NO_TAINT: FrozenSet[Signal] = frozenset()


@dataclass
class StaticTrace:
    """Everything the static walk proved about one process."""

    #: ``(signal, guard-signals)`` pairs, one per read site.
    reads: List[Tuple[Signal, FrozenSet[Signal]]] = field(default_factory=list)
    #: ``(signal, kind)`` drive sites.
    drives: Set[Tuple[Signal, str]] = field(default_factory=set)

    @property
    def read_signals(self) -> Set[Signal]:
        return {sig for sig, _guards in self.reads}

    @property
    def driven_signals(self) -> Set[Signal]:
        return {sig for sig, _kind in self.drives}


@dataclass
class _Summary:
    """Per-callable analysis result, reusable across call sites."""

    reads: List[Tuple[Signal, FrozenSet[Signal]]] = field(default_factory=list)
    drives: Set[Tuple[Signal, str]] = field(default_factory=set)
    #: Signals the return value (may) depend on — callers fold this
    #: into the taint of the call expression.
    ret_taint: Set[Signal] = field(default_factory=set)


def _dedup(objs: Sequence[object]) -> Tuple[object, ...]:
    seen: List[object] = []
    ids: Set[int] = set()
    for obj in objs:
        if obj is None:
            continue
        key = id(obj)
        if key in ids:
            continue
        ids.add(key)
        seen.append(obj)
        if len(seen) >= MAX_CANDIDATES:
            break
    return tuple(seen)


def _flatten(objs: Sequence[object]) -> Tuple[object, ...]:
    """Expand containers into their elements (for iteration/subscripts)."""
    out: List[object] = []
    for obj in objs:
        if isinstance(obj, dict):
            out.extend(list(obj.values())[:MAX_CANDIDATES])
        elif isinstance(obj, (list, tuple, set, frozenset)):
            out.extend(list(obj)[:MAX_CANDIDATES])
        else:
            out.append(obj)
    return _dedup(out)


def _callable_module(fn: object) -> Optional[str]:
    """Defining module of a pure-python callable, else None."""
    if isinstance(fn, types.MethodType):
        if not isinstance(fn.__func__, types.FunctionType):
            return None
        return type(fn.__self__).__module__
    if isinstance(fn, types.FunctionType):
        return fn.__module__ or ""
    return None


def _should_enter(fn: object, extra_modules: Set[str]) -> bool:
    """Follow a call into *fn*?  Pure-python repro code outside the
    kernel (kernel semantics are the lint rules' own model), plus the
    modules the analysed process itself lives in (test fixtures)."""
    module = _callable_module(fn)
    if module is None:
        return False
    if module in extra_modules:
        return True
    return (
        module.startswith("repro.")
        and not module.startswith("repro.kernel")
        and not module.startswith("repro.lint")
    )


def _get_tree(fn) -> Optional[ast.FunctionDef]:
    func = fn.__func__ if isinstance(fn, types.MethodType) else fn
    try:
        source = textwrap.dedent(inspect.getsource(func))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node  # type: ignore[return-value]
    return None


class _Env:
    """Name bindings of one analysed callable: ``(candidates, taint)``."""

    __slots__ = ("names",)

    def __init__(self) -> None:
        self.names: Dict[str, Tuple[Tuple[object, ...], FrozenSet[Signal]]] = {}

    def bind(
        self,
        name: str,
        objs: Tuple[object, ...],
        taint: FrozenSet[Signal],
    ) -> None:
        self.names[name] = (objs, taint)

    def lookup(
        self, name: str
    ) -> Optional[Tuple[Tuple[object, ...], FrozenSet[Signal]]]:
        return self.names.get(name)


class _Analyzer:
    """One top-level analysis run (shared memo + recursion bookkeeping)."""

    def __init__(self) -> None:
        #: ``key -> _Summary`` where key pins the instance, the code
        #: object and the resolved argument candidates.  The instance
        #: reference is kept in the value to keep ``id()`` keys stable.
        self._memo: Dict[object, Tuple[object, _Summary]] = {}
        self._in_progress: Set[object] = set()
        #: Modules descent is additionally allowed into — seeded with
        #: the entry process's own module so fixtures analyse fully.
        self.extra_modules: Set[str] = set()

    # -- entry ---------------------------------------------------------------

    def analyze(self, fn) -> StaticTrace:
        module = _callable_module(fn)
        if module is not None:
            self.extra_modules.add(module)
        summary = self._analyze_callable(fn, _EMPTY, 0, entry=True)
        trace = StaticTrace()
        if summary is not None:
            trace.reads = list(summary.reads)
            trace.drives = set(summary.drives)
        return trace

    # -- per-callable --------------------------------------------------------

    def _memo_key(self, fn, argsets) -> Optional[object]:
        func = fn.__func__ if isinstance(fn, types.MethodType) else fn
        code = getattr(func, "__code__", None)
        if code is None:
            return None
        bound = fn.__self__ if isinstance(fn, types.MethodType) else None
        args_key = tuple(
            tuple(sorted(id(obj) for obj in objs)) for objs, _taint in argsets
        )
        return (id(bound), code, args_key)

    def _analyze_callable(
        self, fn, argsets, depth: int, entry: bool = False
    ) -> Optional[_Summary]:
        if depth > MAX_DEPTH:
            return None
        if entry:
            if _callable_module(fn) is None:
                return None
        elif not _should_enter(fn, self.extra_modules):
            return None
        key = self._memo_key(fn, argsets)
        if key is not None:
            cached = self._memo.get(key)
            if cached is not None:
                return cached[1]
            if key in self._in_progress:  # recursion — cut the cycle
                return None
            self._in_progress.add(key)
        try:
            summary = self._run_function(fn, argsets, depth)
        finally:
            if key is not None:
                self._in_progress.discard(key)
        if key is not None and summary is not None:
            anchor = fn.__self__ if isinstance(fn, types.MethodType) else fn
            self._memo[key] = (anchor, summary)
        return summary

    def _run_function(self, fn, argsets, depth: int) -> Optional[_Summary]:
        tree = _get_tree(fn)
        if tree is None:
            return None
        func = fn.__func__ if isinstance(fn, types.MethodType) else fn
        env = _Env()
        # Positional parameters: ``self`` first for bound methods.
        params = [a.arg for a in tree.args.args]
        bound_objs: List[Tuple[Tuple[object, ...], FrozenSet[Signal]]] = []
        if isinstance(fn, types.MethodType):
            bound_objs.append(((fn.__self__,), _NO_TAINT))
        bound_objs.extend(argsets)
        for name, binding in zip(params, bound_objs):
            env.bind(name, binding[0], binding[1])
        # Free variables resolved from the live closure cells.
        closure = getattr(func, "__closure__", None) or ()
        for name, cell in zip(func.__code__.co_freevars, closure):
            try:
                env.bind(name, _dedup((cell.cell_contents,)), _NO_TAINT)
            except ValueError:  # empty cell
                pass
        walker = _FunctionWalk(self, env, func.__globals__, depth)
        walker.exec_block(tree.body, _NO_TAINT)
        return walker.summary


class _FunctionWalk:
    """AST walk of one function body against a live environment."""

    def __init__(
        self,
        analyzer: _Analyzer,
        env: _Env,
        globals_: Dict[str, object],
        depth: int,
    ) -> None:
        self.analyzer = analyzer
        self.env = env
        self.globals = globals_
        self.depth = depth
        self.summary = _Summary()

    # -- recording -----------------------------------------------------------

    def _read(self, sig: Signal, guards: FrozenSet[Signal]) -> None:
        self.summary.reads.append((sig, guards))
        self.summary.ret_taint.add(sig)

    def _drive(self, sig: Signal, kind: str) -> None:
        self.summary.drives.add((sig, kind))

    # -- statements ----------------------------------------------------------

    def exec_block(self, stmts: List[ast.stmt], guards: FrozenSet[Signal]) -> bool:
        """Walk a statement list; returns True when every path through
        the block terminates (return/raise/break/continue)."""
        ambient: Set[Signal] = set()
        for stmt in stmts:
            here = guards | ambient if ambient else guards
            if self._exec_stmt(stmt, here, ambient):
                return True
        return False

    def _exec_stmt(
        self,
        stmt: ast.stmt,
        guards: FrozenSet[Signal],
        ambient: Set[Signal],
    ) -> bool:
        if isinstance(stmt, ast.If):
            test_taint = self._eval_bool(stmt.test, guards)
            inner = guards | test_taint
            body_term = self.exec_block(stmt.body, inner)
            else_term = (
                self.exec_block(stmt.orelse, inner) if stmt.orelse else False
            )
            if body_term and not stmt.orelse:
                # ``if cond: return`` — the rest of the enclosing block
                # only runs when cond is false, i.e. guarded by its reads.
                ambient.update(test_taint)
            return body_term and bool(stmt.orelse) and else_term
        if isinstance(stmt, (ast.Return, ast.Raise)):
            value = getattr(stmt, "value", None) or getattr(stmt, "exc", None)
            if value is not None:
                self._eval(value, guards)
            return True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, guards)
            return False
        if isinstance(stmt, ast.Assign):
            objs, taint = self._eval(stmt.value, guards)
            for target in stmt.targets:
                self._bind_target(target, objs, taint, guards)
            return False
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                objs, taint = self._eval(stmt.value, guards)
                self._bind_target(stmt.target, objs, taint, guards)
            return False
        if isinstance(stmt, ast.AugAssign):
            _objs, taint = self._eval(stmt.value, guards)
            if isinstance(stmt.target, ast.Name):
                prev = self.env.lookup(stmt.target.id)
                prev_taint = prev[1] if prev else _NO_TAINT
                self.env.bind(stmt.target.id, _EMPTY, taint | prev_taint)
            else:
                self._eval(stmt.target, guards)
            return False
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_objs, iter_taint = self._eval(stmt.iter, guards)
            self._bind_target(
                stmt.target, _flatten(iter_objs), iter_taint, guards
            )
            self.exec_block(stmt.body, guards)
            if stmt.orelse:
                self.exec_block(stmt.orelse, guards)
            return False
        if isinstance(stmt, ast.While):
            test_taint = self._eval_bool(stmt.test, guards)
            self.exec_block(stmt.body, guards | test_taint)
            if stmt.orelse:
                self.exec_block(stmt.orelse, guards)
            return False
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                objs, taint = self._eval(item.context_expr, guards)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, objs, taint, guards)
            return self.exec_block(stmt.body, guards)
        if isinstance(stmt, ast.Try):
            self.exec_block(stmt.body, guards)
            for handler in stmt.handlers:
                self.exec_block(handler.body, guards)
            if stmt.orelse:
                self.exec_block(stmt.orelse, guards)
            if stmt.finalbody:
                self.exec_block(stmt.finalbody, guards)
            return False
        if isinstance(stmt, ast.Assert):
            self._eval_bool(stmt.test, guards)
            return False
        # FunctionDef/ClassDef/Import/Pass/Delete/Global/Nonlocal: inert.
        return False

    def _bind_target(
        self,
        target: ast.expr,
        objs: Tuple[object, ...],
        taint: FrozenSet[Signal],
        guards: FrozenSet[Signal],
    ) -> None:
        if isinstance(target, ast.Name):
            self.env.bind(target.id, objs, taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            spread = _flatten(objs)
            for elt in target.elts:
                self._bind_target(elt, spread, taint, guards)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, objs, taint, guards)
        else:
            # Attribute/subscript targets: evaluate for reads, no binding.
            self._eval(target, guards)

    # -- expressions ---------------------------------------------------------

    def _eval(
        self, node: ast.expr, guards: FrozenSet[Signal]
    ) -> Tuple[Tuple[object, ...], FrozenSet[Signal]]:
        """Resolve *node* to candidate live objects + value taint."""
        if isinstance(node, ast.Name):
            binding = self.env.lookup(node.id)
            if binding is not None:
                return binding
            if node.id in self.globals:
                return _dedup((self.globals[node.id],)), _NO_TAINT
            return _EMPTY, _NO_TAINT
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, guards)
        if isinstance(node, ast.Subscript):
            base_objs, base_taint = self._eval(node.value, guards)
            _idx, idx_taint = self._eval(node.slice, guards)
            return _flatten(base_objs), base_taint | idx_taint
        if isinstance(node, ast.Call):
            return self._eval_call(node, guards)
        if isinstance(node, ast.BoolOp):
            taint: FrozenSet[Signal] = _NO_TAINT
            for value in node.values:
                taint = taint | self._eval_bool(value, guards)
            return _EMPTY, taint
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return _EMPTY, self._eval_bool(node.operand, guards)
            return _EMPTY, self._eval(node.operand, guards)[1]
        if isinstance(node, ast.Compare):
            taint = self._eval(node.left, guards)[1]
            for comp in node.comparators:
                taint = taint | self._eval(comp, guards)[1]
            return _EMPTY, taint
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, guards)[1]
            right = self._eval(node.right, guards)[1]
            return _EMPTY, left | right
        if isinstance(node, ast.IfExp):
            test_taint = self._eval_bool(node.test, guards)
            body_objs, body_taint = self._eval(node.body, guards | test_taint)
            else_objs, else_taint = self._eval(
                node.orelse, guards | test_taint
            )
            return (
                _dedup(body_objs + else_objs),
                test_taint | body_taint | else_taint,
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            objs: List[object] = []
            taint = _NO_TAINT
            for elt in node.elts:
                elt_objs, elt_taint = self._eval(elt, guards)
                objs.extend(elt_objs)
                taint = taint | elt_taint
            return _dedup(objs), taint
        if isinstance(node, ast.Dict):
            objs = []
            taint = _NO_TAINT
            for key_node, value_node in zip(node.keys, node.values):
                if key_node is not None:
                    taint = taint | self._eval(key_node, guards)[1]
                value_objs, value_taint = self._eval(value_node, guards)
                objs.extend(value_objs)
                taint = taint | value_taint
            return _dedup(objs), taint
        if isinstance(node, ast.Starred):
            return self._eval(node.value, guards)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(node, guards)
        if isinstance(node, ast.JoinedStr):
            taint = _NO_TAINT
            for value in node.values:
                taint = taint | self._eval(value, guards)[1]
            return _EMPTY, taint
        if isinstance(node, ast.FormattedValue):
            return _EMPTY, self._eval(node.value, guards)[1]
        if isinstance(node, ast.NamedExpr):
            objs, taint = self._eval(node.value, guards)
            self._bind_target(node.target, objs, taint, guards)
            return objs, taint
        # Constants, lambdas, yields, slices of unknown shape, ...
        return _EMPTY, _NO_TAINT

    def _eval_bool(
        self, node: ast.expr, guards: FrozenSet[Signal]
    ) -> FrozenSet[Signal]:
        """Evaluate *node* in boolean context: a bare Signal candidate is
        an implicit ``.value`` read.  Returns the test's signal taint."""
        objs, taint = self._eval(node, guards)
        extra: Set[Signal] = set()
        for obj in objs:
            if isinstance(obj, Signal):
                self._read(obj, guards)
                extra.add(obj)
        if extra:
            return taint | frozenset(extra)
        return taint

    def _eval_attribute(
        self, node: ast.Attribute, guards: FrozenSet[Signal]
    ) -> Tuple[Tuple[object, ...], FrozenSet[Signal]]:
        base_objs, taint = self._eval(node.value, guards)
        if node.attr == "value":
            sigs = [obj for obj in base_objs if isinstance(obj, Signal)]
            for sig in sigs:
                self._read(sig, guards)
            if sigs:
                return _EMPTY, taint | frozenset(sigs)
            # fall through: ``.value`` on non-signals resolves normally
        out: List[object] = []
        for obj in base_objs:
            if isinstance(obj, Signal) and node.attr == "value":
                continue
            try:
                out.append(getattr(obj, node.attr))
            except Exception:
                pass
        return _dedup(out), taint

    def _eval_call(
        self, node: ast.Call, guards: FrozenSet[Signal]
    ) -> Tuple[Tuple[object, ...], FrozenSet[Signal]]:
        taint: FrozenSet[Signal] = _NO_TAINT

        # ``sig.drive(...)`` family: record the drive, don't resolve.
        if isinstance(node.func, ast.Attribute) and node.func.attr in _DRIVE_KINDS:
            base_objs, base_taint = self._eval(node.func.value, guards)
            taint = base_taint
            for obj in base_objs:
                if isinstance(obj, Signal):
                    self._drive(obj, node.func.attr)
            for arg in node.args:
                taint = taint | self._eval(arg, guards)[1]
            for kw in node.keywords:
                taint = taint | self._eval(kw.value, guards)[1]
            return _EMPTY, taint

        # ``bool(sig)`` / ``int(sig)``: implicit value read.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("bool", "int")
            and len(node.args) == 1
            and not node.keywords
        ):
            return _EMPTY, self._eval_bool(node.args[0], guards)

        func_objs, func_taint = self._eval(node.func, guards)
        taint = func_taint
        argsets: List[Tuple[Tuple[object, ...], FrozenSet[Signal]]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                objs, arg_taint = self._eval(arg.value, guards)
                argsets.append((_flatten(objs), arg_taint))
            else:
                argsets.append(self._eval(arg, guards))
        for kw in node.keywords:
            taint = taint | self._eval(kw.value, guards)[1]
        for _objs, arg_taint in argsets:
            taint = taint | arg_taint

        entered = 0
        for fn in func_objs:
            if entered >= 4 or not _should_enter(
                fn, self.analyzer.extra_modules
            ):
                continue
            entered += 1
            summary = self.analyzer._analyze_callable(
                fn, tuple(argsets), self.depth + 1
            )
            if summary is None:
                continue
            for sig, callee_guards in summary.reads:
                self._read(sig, guards | callee_guards)
            self.summary.drives.update(summary.drives)
            if summary.ret_taint:
                taint = taint | frozenset(summary.ret_taint)
        return _EMPTY, taint

    def _eval_comprehension(
        self, node: ast.expr, guards: FrozenSet[Signal]
    ) -> Tuple[Tuple[object, ...], FrozenSet[Signal]]:
        taint: FrozenSet[Signal] = _NO_TAINT
        for gen in node.generators:  # type: ignore[attr-defined]
            iter_objs, iter_taint = self._eval(gen.iter, guards)
            taint = taint | iter_taint
            self._bind_target(gen.target, _flatten(iter_objs), iter_taint, guards)
            for cond in gen.ifs:
                taint = taint | self._eval_bool(cond, guards)
        if isinstance(node, ast.DictComp):
            taint = taint | self._eval(node.key, guards)[1]
            objs, value_taint = self._eval(node.value, guards)
            return objs, taint | value_taint
        objs, elt_taint = self._eval(node.elt, guards)  # type: ignore[attr-defined]
        return objs, taint | elt_taint


def analyze_process(fn) -> StaticTrace:
    """Statically analyse one registered process callable.

    Returns an empty trace when the source is unavailable (builtins,
    C-level callables, interactively defined functions).  Tracking is
    suppressed for the duration: resolving live attribute chains must
    not register as dynamic reads.
    """
    with suppressed_tracking():
        return _Analyzer().analyze(fn)
