# Convenience targets for the Skia reproduction.

PYTHON ?= python3
SCALE ?= quick
# Simulation worker processes for bench targets (0 = all CPUs).
JOBS ?= 1

.PHONY: install test bench bench-smoke bench-trajectory trace report \
	examples clean clean-cache clean-runs

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	REPRO_SCALE=$(SCALE) REPRO_JOBS=$(JOBS) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	REPRO_SCALE=smoke REPRO_JOBS=$(JOBS) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Record a benchmark-trajectory point (BENCH_<date>.json at repo root):
# every BENCHMARK.json workload through bench/run.py, untraced and
# traced.  bench/run.py refuses to run with any REPRO_* variable set.
# Check it against an earlier point with:
#   python -m repro bench compare BENCH_<before>.json BENCH_<after>.json
bench-trajectory:
	PYTHONPATH=src $(PYTHON) -m repro bench run

# Produce a Perfetto-loadable pipeline timeline + event trace for one
# smoke-scale Skia run (see docs/observability.md).
trace:
	PYTHONPATH=src $(PYTHON) -m repro --scale smoke stats run voter \
		--config skia --trace-out voter-events.jsonl \
		--timeline-out voter-timeline.json

report:
	$(PYTHON) -m repro report

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/shadow_decode_walkthrough.py
	$(PYTHON) examples/workload_report.py
	$(PYTHON) examples/custom_workload.py
	$(PYTHON) examples/btb_scaling_study.py

clean:
	# Run ledgers first (manifest/spans/profile JSONL under runs/),
	# then the rest of the cache; listed separately so `clean` keeps
	# sweeping ledgers even if the cache layout changes.
	rm -rf .repro_cache/runs
	rm -rf .pytest_cache benchmarks/bench_results .repro_cache
	rm -f BENCH_ci.json
	find . -name __pycache__ -type d -exec rm -rf {} +

# Drop only the persistent result store (force cold re-simulation).
clean-cache:
	rm -rf .repro_cache

# Drop only recorded run ledgers (`python -m repro runs list`), keeping
# the simulation result store warm.
clean-runs:
	rm -rf .repro_cache/runs
