# Convenience targets for the Quetzal reproduction.

.PHONY: install test lint bench profile-figures bench-record bench-figures smoke figures figures-paper-scale examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Style/bug lint (same invocation as CI; needs `pip install ruff`).
lint:
	ruff check src tests

# Engine perf-regression gate: times the paper-scale cases (including the
# quetzal decision-path cases) and fails if any is slower than the
# committed BENCH_engine.json baseline by more than BENCH_TOLERANCE
# (default 2x; generous so only real regressions trip).  Extra harness
# flags ride in BENCH_ARGS, e.g. `make bench BENCH_ARGS="--repeats 5"`.
bench:
	PYTHONPATH=src python benchmarks/bench_engine.py --check $(BENCH_ARGS)

# Per-figure cProfile dumps (one .pstats per figure; CI uploads these).
profile-figures:
	PYTHONPATH=src python -m repro.experiments --events 30 --seeds 1 \
		--profile --profile-dir profiles

# Append a new trajectory entry to BENCH_engine.json (run after perf work).
bench-record:
	PYTHONPATH=src python benchmarks/bench_engine.py --record --repeats 5 --label "$(LABEL)"

# Full pytest-benchmark suite (figure benches + engine micro-benches).
bench-figures:
	pytest benchmarks/ --benchmark-only

# End-to-end byte-identity gate: one 24-device fleet spec driven through
# the fleet CLI (kill/resume, --kernel vector, varied shards/jobs,
# --trace-store on both kernels, every observability surface on) and the
# fleet service (miss, cache hit, mutated miss); fails unless every leg's
# rollup is byte-identical to one scalar reference run and every emitted
# artifact validates.  Set SMOKE_DIR to keep the artifacts (CI uploads
# them).
smoke:
	PYTHONPATH=src python benchmarks/smoke.py

# Regenerate every table and figure at the default (fast) scale.
figures:
	python -m repro.experiments

# Paper-scale regeneration (1000 events; takes ~20 minutes).
figures-paper-scale:
	python -m repro.experiments --events 1000 --seeds 3 \
		--json results_paper_scale.json | tee results_paper_scale.txt

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
