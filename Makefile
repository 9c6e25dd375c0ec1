# The local loop, matched to CI job-for-job (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test perf-gate experiments-check engine-differential fuzz-smoke claims

## check: everything a push must survive -- lint + tier-1 tests + perf
## gate (cycle counts + paper claims) + byte-identical EXPERIMENTS.md
check: lint test perf-gate experiments-check

lint:
	ruff check .

test:
	$(PYTHON) -m pytest -x -q --durations=15

## perf-gate: the blocking deterministic gates -- cycle counts and the
## paper claims
perf-gate:
	$(PYTHON) -m repro.perf cycles
	$(PYTHON) -m repro.perf claims

## experiments-check: EXPERIMENTS.md regenerates byte-identical
experiments-check:
	$(PYTHON) tools/generate_experiments_md.py > EXPERIMENTS.md
	git diff --exit-code EXPERIMENTS.md

## engine-differential: corpus profiles byte-identical on the reference
## stepper and the fast path
engine-differential:
	$(PYTHON) -m repro.perf corpus --engine precise > /tmp/profiles-precise.jsonl
	$(PYTHON) -m repro.perf corpus --engine fast > /tmp/profiles-fast.jsonl
	cmp /tmp/profiles-precise.jsonl /tmp/profiles-fast.jsonl

## fuzz-smoke: the fixed-seed 500-case batch checks out clean and its
## stable records are byte-identical at --jobs 1 and 2 (prints the digest)
fuzz-smoke:
	$(PYTHON) -m repro.fuzz run --cases 500 --seed 1982 --fuzz-mode both \
		--jobs 1 --stable-results /tmp/fuzz-serial.jsonl
	$(PYTHON) -m repro.fuzz run --cases 500 --seed 1982 --fuzz-mode both \
		--jobs 2 --stable-results /tmp/fuzz-sharded.jsonl
	cmp /tmp/fuzz-serial.jsonl /tmp/fuzz-sharded.jsonl

claims:
	$(PYTHON) -m repro.perf claims
