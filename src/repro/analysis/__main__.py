"""Regenerate the paper's figures: ``python -m repro.analysis``.

Overwrites the committed ``paper_results.json`` in the current
directory with :func:`~repro.analysis.experiments.paper_results`
(sorted keys) and prints Table 1 and the ablation rows.  Run it from
the repository root (``make paper`` does); anywhere else, where no
``paper_results.json`` exists, it refuses and writes nothing, so a
re-record never lands beside the file the tier-1 gate reads.  Takes no
options: the scales are part of the committed figures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.accuracy import Table1Result, render_table1
from repro.analysis.experiments import paper_results
from repro.profiling.report import format_table

RESULTS = Path("paper_results.json")


def _cell(value: object) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def main() -> int:
    if not RESULTS.is_file():
        print(
            f"no {RESULTS} in {Path.cwd()}; run from the repository root "
            "(make paper)",
            file=sys.stderr,
        )
        return 1
    results = paper_results()
    RESULTS.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    table1 = results["table1"]
    print(f"Table 1 ({table1['transactions']} transactions per master):")
    print(render_table1(Table1Result.from_json(table1["points"])))
    for name, figure in results.items():
        if name == "table1":
            continue
        points = figure["points"]
        print(f"\n{name} ({figure['transactions']} transactions):")
        print(format_table(list(points[0]), [[_cell(v) for v in point.values()] for point in points]))
    print(f"\nwritten to {RESULTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
