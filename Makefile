# Convenience targets for the Quetzal reproduction.

.PHONY: install test lint bench profile-figures results smoke figures figures-paper-scale examples clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src python -m pytest -x -q

# Style/bug lint (same invocation as CI; needs `pip install ruff`).
lint:
	ruff check src tests

# Same-run ratio gates (benchmarks/bench_engine.py): vector kernel vs
# scalar engine, trace-store attach vs regenerate, jobs=4 vs jobs=1, each
# the median of interleaved pairs against a constant floor.  Every pair
# ratio lands in bench_results.json (CI uploads it).  End-to-end speed is
# perfbench's: `python3 perfbench/run.py --workload all`.
bench:
	PYTHONPATH=src python benchmarks/bench_engine.py --output bench_results.json

# Per-figure cProfile dumps (one .pstats per figure; CI uploads these).
profile-figures:
	PYTHONPATH=src python -m repro.experiments --events 30 --seeds 1 \
		--profile --profile-dir profiles

# Full reproduction run: regenerate every figure at the scale of
# EXPERIMENTS.md and diff it against the committed results_canonical.txt
# (the wall-time footer aside).
results:
	PYTHONPATH=src python -m repro.experiments --events 150 --seeds 3 \
		| grep -v '^\[regenerated ' > results_regenerated.txt
	grep -v '^\[regenerated ' results_canonical.txt | diff - results_regenerated.txt

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
	PYTHONPATH=src python -m repro.experiments

# Paper-scale regeneration (1000 events; takes ~20 minutes).
figures-paper-scale:
	PYTHONPATH=src python -m repro.experiments --events 1000 --seeds 3 \
		--json results_paper_scale.json | tee results_paper_scale.txt

# Run every example script; fails at the first one that fails.
examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
		bench_results.json results_regenerated.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
