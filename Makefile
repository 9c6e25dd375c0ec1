# The local loop, matched to CI job-for-job (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test perf-gate experiments-check engine-differential farm-smoke \
	chaos-smoke fuzz-smoke claims

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
## stepper and the fast path, then farm records, the MiniJava corpus at
## every level and the MiniJava examples (tools/engine_differential.py)
engine-differential:
	$(PYTHON) -m repro.perf corpus --engine precise > /tmp/profiles-precise.jsonl
	$(PYTHON) -m repro.perf corpus --engine fast > /tmp/profiles-fast.jsonl
	cmp /tmp/profiles-precise.jsonl /tmp/profiles-fast.jsonl
	$(PYTHON) tools/engine_differential.py

## farm-smoke: the experiments and the farm's stable records over the
## quick Pascal and MiniJava corpora are byte-identical at --jobs 1 and 2
FARM_STABLE_RECORDS = $(PYTHON) -c "import sys; from repro.cli import farm_main; \
	from repro.workloads import MINIJAVA_PROGRAMS, QUICK_PROGRAMS; \
	workloads = [a for n in QUICK_PROGRAMS + MINIJAVA_PROGRAMS for a in ('--workload', n)]; \
	sys.exit(farm_main(['run', '--stable-results', sys.argv[1], '--jobs', sys.argv[2], *workloads]))"

farm-smoke:
	$(PYTHON) -m repro.cli --jobs 1 > /tmp/experiments-serial.out
	$(PYTHON) -m repro.cli --jobs 2 > /tmp/experiments-sharded.out
	cmp /tmp/experiments-serial.out /tmp/experiments-sharded.out
	$(FARM_STABLE_RECORDS) /tmp/farm-serial.jsonl 1
	$(FARM_STABLE_RECORDS) /tmp/farm-sharded.jsonl 2
	cmp /tmp/farm-serial.jsonl /tmp/farm-sharded.jsonl

## chaos-smoke: every campaign passes on both engines and seed 7 reruns
## byte-identical; a second seed on the fast engine
chaos-smoke:
	$(PYTHON) -m repro.chaos run --seed 7 --results /tmp/chaos-a.jsonl
	$(PYTHON) -m repro.chaos run --seed 7 --results /tmp/chaos-b.jsonl
	cmp /tmp/chaos-a.jsonl /tmp/chaos-b.jsonl
	$(PYTHON) -m repro.chaos run --seed 42 --engine fast

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
