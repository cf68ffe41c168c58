"""repro.lint: rule fixtures, the clean-run gate, and hook hygiene.

Four layers of coverage:

* every rule is demonstrated by a seeded fixture under
  ``tests/data/lint/`` firing with the exact rule ID and location —
  including the acceptance fixture: a scratch BusMux copy with one
  ``sensitive_to`` entry deleted, caught **purely statically** (zero
  cycles, no workload);
* the shipped tree is lint-clean (``make lint`` exit-0 guarantee), with
  only the documented waivers present;
* ``src/`` imports nothing it does not use, every module in it is
  imported from somewhere in it, and every public name in it has a
  user outside ``tests/`` (``ast`` walks); and
* the instrumentation hooks are invisible outside a lint elaboration
  (plain :class:`Signal` construction, no observer) — the structural
  half of the zero-hot-path-cost claim; ``make bench`` gates the timing
  half through the perfbench workloads.
"""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.kernel import cycle as cycle_mod
from repro.kernel import signal as signal_mod
from repro.kernel.signal import Signal, make_signal
from repro.lint import (
    RULES,
    lint_elaboration,
    run_lint,
    run_netlist_rules,
    run_source_rules,
)
from repro.lint.trace import TracedSignal

FIXTURES = Path(__file__).parent / "data" / "lint"
SRC = Path(__file__).resolve().parent.parent / "src"


def _load_fixture(name):
    spec = importlib.util.spec_from_file_location(
        f"lint_fixture_{name}", FIXTURES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _netlist_findings(name):
    module = _load_fixture(name)
    with lint_elaboration() as netlist:
        module.build()
    return run_netlist_rules(netlist, name)


# -- netlist rule fixtures ---------------------------------------------------


NETLIST_CASES = [
    ("missing_sensitivity", "NET-SENS", "Adder.evaluate", "fix.b"),
    ("seq_wake_gap", "NET-WAKE", "Counter.update", "fix.enable"),
    ("multi_driver", "NET-MULTI", "fix.shared", "fix.shared"),
    ("comb_loop", "NET-LOOP", "Feedback.forward", "Feedback.backward"),
    ("dead_signal", "NET-DEAD", "fix.debug_tap", "fix.debug_tap"),
]


@pytest.mark.parametrize(
    "fixture,rule,loc_part,msg_part",
    NETLIST_CASES,
    ids=[c[1] for c in NETLIST_CASES],
)
def test_netlist_fixture_fires(fixture, rule, loc_part, msg_part):
    findings = _netlist_findings(fixture)
    # Exactly the seeded violation, nothing else.
    assert [f.rule for f in findings] == [rule]
    finding = findings[0]
    assert finding.location == f"{fixture}:{loc_part}"
    assert msg_part in finding.message
    assert not finding.waived


def test_phase_fixture_fires_both_directions():
    findings = _netlist_findings("phase_misuse")
    assert sorted(f.rule for f in findings) == ["NET-PHASE", "NET-PHASE"]
    by_loc = {f.location: f for f in findings}
    comb = by_loc["phase_misuse:PhaseMixer.bad_comb"]
    assert "fix.reg_out.drive_next()" in comb.message
    seq = by_loc["phase_misuse:PhaseMixer.bad_seq"]
    assert "fix.comb_out.drive()" in seq.message


def test_deleted_sens_entry_caught_statically():
    """Acceptance bar: a scratch BusMux copy minus one sensitive_to
    entry is caught without running any workload or cycle."""
    findings = _netlist_findings("mux_missing_hfault")
    assert sorted(f.rule for f in findings) == ["NET-SENS", "NET-SENS"]
    signals = set()
    for finding in findings:
        assert finding.location == (
            "mux_missing_hfault:ScratchBusMux.evaluate_address"
        )
        signals.add(finding.message.split()[1])
    assert signals == {"m0.hfault", "m1.hfault"}


# -- source rule fixtures ----------------------------------------------------


SOURCE_CASES = [
    ("unseeded_random", "DET-RAND", [7, 11]),
    ("wall_clock", "DET-TIME", [8, 12]),
    ("mutable_default", "DET-MUTDEF", [4]),
    ("lambda_collector", "DET-PICKLE", [5, 12]),
    ("bad_schema", "DET-SCHEMA", [5, 9, 12]),
]


@pytest.mark.parametrize(
    "fixture,rule,lines", SOURCE_CASES, ids=[c[1] for c in SOURCE_CASES]
)
def test_source_fixture_fires(fixture, rule, lines):
    path = FIXTURES / f"{fixture}.py"
    findings = run_source_rules([path])
    assert [f.rule for f in findings] == [rule] * len(lines)
    assert [f.location for f in findings] == [
        f"{fixture}.py:{line}" for line in lines
    ]


# -- shipped-tree clean run --------------------------------------------------


def test_shipped_tree_is_clean():
    """The make-lint gate: full run over every registered scenario, the
    fuzz matrix, and src/ exits 0 — only documented waivers remain."""
    report = run_lint(fuzz_seeds=(0, 1))
    assert report.exit_code == 0, report.render_text()
    assert not report.errors
    # The documented waivers are present, not silently dropped: the DDRC
    # mid-burst hwdata read and the modelled BI status outputs.
    waived_rules = {f.rule for f in report.waived}
    assert waived_rules == {"NET-WAKE", "NET-DEAD", "DET-RAND"}
    assert all(f.waive_reason for f in report.waived)


def test_shipped_busmux_declares_every_read():
    """The real BusMux (unlike the scratch fixture) is NET-SENS clean."""
    from repro.system import PlatformBuilder, scenario

    spec = scenario("multi-slave-soc", transactions=2)
    with lint_elaboration() as netlist:
        PlatformBuilder(spec).build("rtl")
    findings = run_netlist_rules(netlist, "soc")
    mux_findings = [f for f in findings if "BusMux" in f.location]
    assert mux_findings == []


def test_static_reads_see_through_the_arbitration_round():
    """The RTL arbiter's request source lives behind the shared round:
    the static walk from ``ArbiterRtl.update`` must still find every
    master's and the drain engine's ``htrans`` read."""
    from repro.lint.astread import analyze_process
    from repro.system import PlatformBuilder, paper_topology

    arbiter = PlatformBuilder(paper_topology(transactions=1)).build("rtl").arbiter
    reads = analyze_process(arbiter.update).read_signals
    requesters = [*arbiter.masters, arbiter.buffer_master]
    assert len(requesters) == 5
    missing = [m.sig.htrans.name for m in requesters if m.sig.htrans not in reads]
    assert missing == []


def test_json_report_shape(capsys):
    from repro.lint.__main__ import main

    code = main(
        ["--scenario", "paper", "--fuzz-seeds", "0", "--no-src",
         "--cycles", "0", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["errors"] == 0
    assert payload["waived"] == len(
        [f for f in payload["findings"] if f.get("waived")]
    )
    for finding in payload["findings"]:
        assert finding["rule"] in RULES


def test_list_rules(capsys):
    from repro.lint.__main__ import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def _annotation_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # A string annotation ("Optional[Foo]") uses the names in it.
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # __future__ flags and side-effect imports marked noqa bind
            # nothing the module is meant to read.
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.FunctionDef) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(element.value for element in node.value.elts)
    return [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for name, line in sorted(imported.items())
        if name not in used
    ]


def test_src_has_no_unused_imports():
    unused = [
        finding
        for path in sorted(SRC.rglob("*.py"))
        for finding in _unused_imports(path)
    ]
    assert unused == []


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_src_has_no_orphan_modules():
    """Each module but a package's ``__init__`` and a ``__main__`` entry
    point is imported from somewhere in ``src/``, so deleting its last
    user cannot strand the file."""
    imported = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                # ``from package import module`` imports a module too.
                imported.add(node.module)
                imported.update(f"{node.module}.{a.name}" for a in node.names)
    orphans = [
        name
        for path in sorted(SRC.rglob("*.py"))
        if path.stem not in ("__init__", "__main__")
        and (name := _module_name(path)) not in imported
    ]
    assert orphans == []


#: Where a public name's users may live.  Tests are not users: a name
#: only tests call is an oracle, and belongs in ``tests/``.
USER_DIRS = ("src", "examples", "benchmarks", "perfbench")

#: Deliberate public API that no shipped code calls, with the reason.
PUBLIC_NAME_WAIVERS = {
    "load_repro": "reads a repro file that `make fuzz-long` archives; "
    "tests/test_repro_regressions.py replays the pinned ones through it",
    "replay_repro": "re-runs a loaded repro with its original engines "
    "and checks; the triage half of load_repro",
    "Platform": "the typing Protocol that documents what every "
    "elaborated platform exposes (run, attach)",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _referenced_names(path):
    """Every name *path* uses: AST names, attributes, import aliases,
    keywords, and identifiers inside string constants other than
    docstrings (perfbench names its hooks in strings)."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname)
        elif isinstance(node, ast.keyword):
            names.add(node.arg)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(_IDENTIFIER.findall(node.value))
    return names


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public(name):
    # Dunders are private by this test; visitors are called by name.
    return not name.startswith(("_", "visit_"))


def _public_defs(path):
    """``(qualified name, line)`` of each public top-level def and class,
    and each public def of a public class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, _DEFS) and _is_public(node.name):
            yield node.name, node.lineno
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, _DEFS) and _is_public(sub.name):
                    yield f"{node.name}.{sub.name}", sub.lineno


def unreferenced_public_names(root, waivers):
    """Public defs under ``root/src`` that no file in :data:`USER_DIRS`
    names, package ``__init__`` re-exports excluded."""
    used = set()
    for folder in USER_DIRS:
        for path in (root / folder).rglob("*.py"):
            if path.name != "__init__.py":
                used |= _referenced_names(path)
    return [
        f"{path.relative_to(root)}:{line}: {qualname}"
        for path in sorted((root / "src").rglob("*.py"))
        for qualname, line in _public_defs(path)
        if qualname not in waivers and qualname.rpartition(".")[2] not in used
    ]


def test_src_has_no_test_only_public_names():
    """Each public function, class and method in ``src/`` has a user
    outside ``tests/``; delete it, move it into ``tests/oracles.py``,
    or waive it here with a reason."""
    assert unreferenced_public_names(SRC.parent, PUBLIC_NAME_WAIVERS) == []
    assert len(PUBLIC_NAME_WAIVERS) <= 5


def test_public_name_fixture_fires():
    root = FIXTURES / "public_names"
    assert unreferenced_public_names(root, {"waived": "fixture"}) == [
        "src/pkg/mod.py:7: stray",
        "src/pkg/mod.py:11: reexported",
        "src/pkg/mod.py:36: Widget.spin",
    ]


# -- hook hygiene ------------------------------------------------------------


def test_hooks_only_live_inside_elaboration():
    assert signal_mod._signal_class is None
    assert cycle_mod._lint_observer is None
    plain = make_signal("outside", width=4)
    assert type(plain) is Signal
    with lint_elaboration() as netlist:
        traced = make_signal("inside", width=4)
        assert type(traced) is TracedSignal
        assert netlist.signals == [traced]
    assert signal_mod._signal_class is None
    assert cycle_mod._lint_observer is None
    assert type(make_signal("after", width=4)) is Signal


def test_hooks_restored_after_exception():
    with pytest.raises(RuntimeError):
        with lint_elaboration():
            raise RuntimeError("boom")
    assert signal_mod._signal_class is None
    assert cycle_mod._lint_observer is None


def test_elaborations_cannot_nest():
    from repro.errors import SimulationError

    with lint_elaboration():
        with pytest.raises(SimulationError):
            with lint_elaboration():
                pass
    assert signal_mod._signal_class is None


def test_traced_signal_semantics_match_plain():
    """The traced subclass must be a pure observer: drive/commit/lazy
    behaviour identical to Signal, reads attributed, suppression off."""
    with lint_elaboration() as netlist:
        sig = make_signal("t.s", width=8, reset=3)
        assert sig.value == 3  # external read (no process running)
        assert sig.drive(7) is True
        assert sig.drive(7) is False  # no-change compare intact
        sig.drive_next(9)
        assert sig.value == 7
        assert sig.commit() is True
        assert sig.value == 9
        sig.drive_next_lazy(9)  # equal + nothing pending: elided
        assert sig.commit() is False
    assert sig in netlist.external_reads
