# The local loop, matched to CI job-for-job (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test perf-gate engine-differential claims bench

## check: everything a push must survive -- lint + tier-1 tests + perf
## gate (cycle counts + paper claims)
check: lint test perf-gate

lint:
	ruff check .

test:
	$(PYTHON) -m pytest -x -q

## perf-gate: the blocking deterministic gates -- cycle counts and the
## paper claims
perf-gate:
	$(PYTHON) tools/bench_report.py cycles
	$(PYTHON) -m repro.perf claims

## engine-differential: corpus profiles byte-identical on the reference
## stepper and the fast path
engine-differential:
	$(PYTHON) -m repro.perf corpus --engine precise > /tmp/profiles-precise.jsonl
	$(PYTHON) -m repro.perf corpus --engine fast > /tmp/profiles-fast.jsonl
	cmp /tmp/profiles-precise.jsonl /tmp/profiles-fast.jsonl

claims:
	$(PYTHON) -m repro.perf claims

## bench: the noisy wall-clock backstop (nightly in CI)
bench:
	$(PYTHON) tools/bench_report.py compare
