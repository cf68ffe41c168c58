PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke lint bench bench-baseline bench-tables bench-trajectory profile perfbench perfbench-smoke sweep-demo trace-demo serve-demo fuzz fuzz-long chaos chaos-long

# Optional bench filter: `make bench MODELS=rtl` measures/gates only
# the named models (space-separated subset of tlm_method
# tlm_single_master rtl).
MODELS ?=

test:
	$(PYTHON) -m pytest -x -q

# Static contract analysis: NET-* netlist rules over every registered
# scenario + the fuzz matrix (sensitivity/wake/driver/phase/loop/dead),
# DET-* determinism rules over src/ (RNG, wall clock, mutable defaults,
# collector picklability, content-key schemas).  Exit 0 means clean
# modulo the documented LINT_WAIVERS.  JSON: `make lint LINT_FLAGS=--format=json`.
# The same run gates tier-1 via tests/test_lint.py.
LINT_FLAGS ?=
lint:
	$(PYTHON) -m repro.lint --scenario all $(LINT_FLAGS)

# Run every script under examples/ to completion (import-and-run guard).
# The same checks run inside the tier-1 flow via tests/test_examples_smoke.py.
smoke:
	$(PYTHON) -m pytest tests/test_examples_smoke.py -q

# Run the §4 speed suite and fail on >20% regression vs BENCH_speed.json
# (prints a per-model delta table; narrow with MODELS=rtl).
bench:
	$(PYTHON) -m benchmarks.bench_regression $(if $(MODELS),--models $(MODELS))

# Re-record BENCH_speed.json's `current` block (preserves the seed block
# and appends this revision to the speed-trajectory history).
bench-baseline:
	$(PYTHON) -m benchmarks.bench_regression --write-baseline

# Print the committed speed trajectory (seed -> milestones -> current).
bench-trajectory:
	$(PYTHON) -m benchmarks.bench_regression --trajectory

# cProfile one run of each bench model; top cumulative functions per
# model (narrow with MODELS=rtl, deepen with TOP=25).
TOP ?= 15
profile:
	$(PYTHON) -m benchmarks.profile_hotspots --top $(TOP) $(if $(MODELS),--models $(MODELS))

# The repository benchmark (BENCHMARK.json): every workload once,
# end-to-end metrics scaled to a reference host (see perfbench/run.py
# for --workload/--seed/--seconds/--trace/--repeat).
perfbench:
	python3 perfbench/run.py --workload all

# The benchmark's own smoke test (~20 s).
perfbench-smoke:
	python3 -m pytest perfbench/smoke.py -q

# The full paper-table benchmark suite (slow; pytest-benchmark output).
bench-tables:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

# Fixed-seed protocol fuzz (small budget, deterministic): cross-checks
# tlm/plain plus both RTL kernels (event-driven and the full-sweep
# reference) on adversarial scenarios, exits non-zero on any finding.
# The same budget runs inside tier-1 via tests/test_fuzz.py.
fuzz:
	$(PYTHON) -m repro.fuzz --start 0 --count 25

# Long fuzzing campaign: wider seed range, bigger scenarios, repros
# archived under fuzz-repros/ for triage (promote keepers into
# tests/data/repros/ so they become regression tests).
FUZZ_COUNT ?= 500
fuzz-long:
	$(PYTHON) -m repro.fuzz --start 0 --count $(FUZZ_COUNT) \
		--transactions 3 20 --out fuzz-repros

# Fixed-seed chaos campaigns against real sweep-server processes:
# kill -9 mid-batch, torn file tails, dropped connections, poisoned
# points — exits non-zero if any supervision guarantee (no accepted
# work lost, nothing simulated twice, bit-identical recovery, no
# corruption) is violated.  A short smoke of the same harness runs
# inside tier-1 via tests/test_chaos.py.
chaos:
	$(PYTHON) -m repro.fuzz.chaos --start 0 --count 25

# Longer chaos campaign: wider seed range, heavier grids.
CHAOS_COUNT ?= 100
chaos-long:
	$(PYTHON) -m repro.fuzz.chaos --start 0 --count $(CHAOS_COUNT) \
		--transactions 2000 6000 --points 4

# Small process-backend sweep (serial-vs-process determinism + speedup).
# Also exercised by the examples smoke test inside tier-1.
sweep-demo:
	$(PYTHON) examples/sweep_demo.py

# Trace-driven Table-1 playback: capture at TLM, replay at every engine,
# transform, and sweep the capture over a config grid (process backend).
# Also exercised by the examples smoke test inside tier-1.
trace-demo:
	$(PYTHON) examples/trace_replay.py

# Simulation-as-a-service: start a sweep daemon with a persistent
# content-addressed result store, submit a grid twice (second pass is
# 100% cache hits), run a mixed warm/cold grid, restart on the same
# store, and shut down cleanly.  Also in tier-1 via the examples smoke.
serve-demo:
	$(PYTHON) examples/serve_demo.py
