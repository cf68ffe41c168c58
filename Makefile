PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke lint bench bench-baseline bench-tables perfbench perfbench-smoke sweep-demo trace-demo serve-demo fuzz fuzz-long chaos chaos-long

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

# Run every BENCHMARK.json workload once at seed 1 through perfbench and
# fail if a run is incorrect (any failed operation counts) or an
# end-to-end metric is worse than its BENCH_speed.json median by more
# than its BENCHMARK.json bound.
bench:
	$(PYTHON) -m benchmarks.bench_regression

# Re-record BENCH_speed.json from three perfbench runs per workload
# (median and quartiles per end-to-end metric); the outgoing `current`
# block is appended to `history`.
bench-baseline:
	$(PYTHON) -m benchmarks.bench_regression --write-baseline

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
