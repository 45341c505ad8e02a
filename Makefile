PYTHON ?= python

.PHONY: install test test-faults test-obs test-analyze test-recovery test-progress test-realproc analyze-gate analyze-baseline lint bench-smoke smoke-determinism bench-perf bench-perf-compare census chaos figures report experiments experiments-check examples clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-faults:
	$(PYTHON) -m pytest tests/ -m faults

test-obs:
	$(PYTHON) -m pytest tests/ -m obs

test-analyze:
	$(PYTHON) -m pytest tests/ -m analyze

test-recovery:
	$(PYTHON) -m pytest tests/ -m recovery

analyze-gate:
	$(PYTHON) -m repro.analyze gate

analyze-baseline:
	$(PYTHON) -m repro.analyze gate --update-baseline

test-progress:
	$(PYTHON) -m pytest tests/ -m progress

test-realproc:
	$(PYTHON) -m pytest -q -m realproc tests/

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests examples; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

bench-smoke:
	$(PYTHON) -m repro.bench smoke

# the smoke suite twice: modelled numbers must be identical run to run,
# and equal to the committed BENCH_smoke.json
smoke-determinism:
	$(PYTHON) benchmarks/smoke_determinism.py 2

# the repo's benchmark (BENCHMARK.json): every workload, every metric
bench-perf:
	python3 benchmarks/perf/run.py --seed 1

# make bench-perf-compare A=base.json B=new.json
bench-perf-compare:
	python3 benchmarks/perf/run.py --compare $(A) $(B)

# every function of src/repro x the five things that run it -> docs/CENSUS.md (~20 min)
census:
	$(PYTHON) benchmarks/census.py

chaos:
	$(PYTHON) -m repro.bench chaos

figures:
	$(PYTHON) -m repro.bench all --csv out/

report:
	$(PYTHON) -m repro.bench report

experiments:
	$(PYTHON) -m repro.bench write-experiments

# every modelled figure, every claim and the claim summary, regenerated, must equal the committed file
experiments-check: experiments
	git diff --exit-code EXPERIMENTS.md

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf out/ .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
