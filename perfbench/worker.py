"""One measuring process of the benchmark (started by ``run.py``).

Prints one JSON line.  ``setup_done`` is the ``time.monotonic()`` stamp
taken just before the first timed operation; ``run.py`` subtracts the
moment it spawned this process, so set-up time covers interpreter start,
imports, grid and spec construction, server start and warm-up.
``setup_scale`` is the host scale (``reference.host_scale``) measured
right after set-up, outside any timed region.
With ``--setup-only`` the process stops at that point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from reference import host_scale, timed_pass

#: Reference passes run after set-up to scale the set-up time.
SETUP_PASSES = 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-path")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--rounds", type=int, default=0)
    args = parser.parse_args(argv)

    import workloads  # imports the simulator: part of set-up

    marks = []

    def setup_done() -> None:
        marks.append(time.monotonic())
        marks.append(host_scale([timed_pass() for _ in range(SETUP_PASSES)]))

    if args.setup_only:
        sizes = workloads.SIZES[args.workload]
        workload = workloads.make_workload(args.workload, args.seed, sizes, args.workdir)
        try:
            workload.setup()
            setup_done()
        finally:
            workload.close()
        print(json.dumps({"setup_done": marks[0], "setup_scale": marks[1]}))
        return 0

    result = workloads.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.workdir,
        sizes={"min_rounds": args.rounds, "trace_rounds": args.rounds} if args.rounds else None,
        on_setup_done=setup_done,
        trace_path=args.trace_path,
    )
    result["setup_done"], result["setup_scale"] = marks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
