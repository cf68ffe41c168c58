"""Orchestration: which netlists and sources one lint run covers.

A full run (``make lint`` / ``python -m repro.lint``) elaborates every
registered scenario at RTL under the instrumented mode, briefly drives
each platform for dynamic evidence, elaborates a handful of fuzz-matrix
scenarios the same way, and finishes with the DET-* source rules over
``src/repro``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.lint.ast_rules import run_source_rules
from repro.lint.findings import LintFinding, LintReport
from repro.lint.netlist_rules import run_netlist_rules
from repro.lint.trace import lint_elaboration

#: Scenarios a full netlist run elaborates.  Between them they cover
#: every RTL component: the paper system (arbiter/DDRC/write buffer),
#: the multi-slave fabrics (BusMux/ResponseMux routing), the bursty
#: MPEG traffic shapes, and the trace-replay capture path.
NETLIST_SCENARIOS = (
    "paper",
    "multi-slave-soc",
    "mpeg-bursty",
    "scratchpad-offload",
    "trace-replay",
)

#: Workload size used for lint elaborations.  The rules are static;
#: transactions only exist so a short dynamic run has traffic to chew.
LINT_TRANSACTIONS = 4

#: Default dynamic-evidence run length (cycles).  Zero is legal — all
#: contract rules work from the static analysis alone.
LINT_CYCLES = 128


def lint_netlist(
    spec,
    context: str,
    cycles: int = LINT_CYCLES,
) -> List[LintFinding]:
    """Elaborate *spec* at RTL under lint mode and run the NET rules."""
    from repro.errors import CombinationalLoopError, SimulationError
    from repro.system.platform import PlatformBuilder

    crash: List[LintFinding] = []
    with lint_elaboration() as netlist:
        platform = PlatformBuilder(spec).build("rtl")
        if cycles:
            try:
                platform.run(max_cycles=cycles)
            except CombinationalLoopError as exc:
                crash.append(
                    LintFinding(
                        rule="NET-LOOP",
                        location=context,
                        message=(
                            "settle loop diverged during the dynamic lint "
                            f"run: {exc}"
                        ),
                    )
                )
            except SimulationError as exc:
                # The workload outliving the cycle budget is the normal
                # outcome of a truncated evidence run; anything else is
                # a genuine crash worth surfacing.
                if "not satisfied" not in str(exc):
                    crash.append(
                        LintFinding(
                            rule="NET-LOOP",
                            location=context,
                            message=(
                                "dynamic lint run crashed after "
                                f"elaboration: {type(exc).__name__}: {exc}"
                            ),
                        )
                    )
    return crash + run_netlist_rules(netlist, context)


def lint_scenario(name: str, cycles: int = LINT_CYCLES) -> List[LintFinding]:
    """Lint one registered scenario by name."""
    from repro.system.scenarios import scenario

    spec = scenario(name, transactions=LINT_TRANSACTIONS)
    return lint_netlist(spec, name, cycles=cycles)


def lint_fuzz_matrix(
    seeds: Sequence[int], cycles: int = LINT_CYCLES
) -> List[LintFinding]:
    """Lint randomly generated fuzz scenarios (seeded, reproducible)."""
    from repro.fuzz.fuzzer import Fuzzer

    findings: List[LintFinding] = []
    fuzzer = Fuzzer()
    for seed in seeds:
        spec = fuzzer.scenario(seed)
        findings.extend(lint_netlist(spec, f"fuzz[{seed}]", cycles=cycles))
    return findings


def source_root() -> Path:
    """The ``src`` directory this installation runs from."""
    # .../src/repro/lint/runner.py -> .../src
    return Path(__file__).resolve().parents[2]


def lint_sources(root: Optional[Path] = None) -> List[LintFinding]:
    """Run the DET rules over ``src/repro``."""
    base = root if root is not None else source_root()
    return run_source_rules(base / "repro", root=base)


def run_lint(
    scenarios: Optional[Iterable[str]] = None,
    fuzz_seeds: Sequence[int] = (0, 1),
    include_sources: bool = True,
    cycles: int = LINT_CYCLES,
) -> LintReport:
    """One full lint run; the CLI and tier-1 both call this."""
    report = LintReport()
    names = NETLIST_SCENARIOS if scenarios is None else tuple(scenarios)
    for name in names:
        report.extend(lint_scenario(name, cycles=cycles))
    if fuzz_seeds:
        report.extend(lint_fuzz_matrix(fuzz_seeds, cycles=cycles))
    if include_sources:
        report.extend(lint_sources())
    return report
