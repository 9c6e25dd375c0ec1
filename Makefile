# Every check, written once: CI's jobs run these targets (see
# .github/workflows/ci.yml), so a local run and a CI run take the same
# arguments and leave the same /tmp outputs.  Two CI steps have no target
# here: the wall-clock overhead-ratio tests benchmarks/test_perf_overhead.py
# (perf-gate job) and benchmarks/test_chaos_overhead.py (chaos-smoke job).
# They are noise-bound on a shared host, and ROADMAP item 6 plans to replace
# them with exact opcode-count tests; run them with
# `python -m pytest -q benchmarks/`.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test bench-selftest perf-gate experiments-check engine-differential \
	farm-smoke chaos-smoke fuzz-smoke claims

## check: everything a push must survive -- lint + tier-1 tests + the
## benchmark's self-test + perf gate (cycle counts + paper claims) +
## byte-identical EXPERIMENTS.md
check: lint test bench-selftest perf-gate experiments-check

lint:
	ruff check .

test:
	$(PYTHON) -m pytest -x -q --durations=15

## bench-selftest: the outside-in benchmark's own tests at its --quick
## sizes (~40 s), as CI's tests job runs them
bench-selftest:
	$(PYTHON) -m pytest -q bench/

## perf-gate: the blocking deterministic gates -- cycle counts and the
## paper claims
perf-gate:
	$(PYTHON) -m repro.perf cycles --jobs 2
	$(PYTHON) -m repro.perf claims --jobs 2

## experiments-check: EXPERIMENTS.md regenerates byte-identical
experiments-check:
	$(PYTHON) tools/generate_experiments_md.py > EXPERIMENTS.md
	git diff --exit-code EXPERIMENTS.md

## engine-differential: corpus profiles byte-identical on the reference
## stepper and the fast path, then farm records, the MiniJava corpus at
## every level and the MiniJava examples (tools/engine_differential.py)
engine-differential:
	$(PYTHON) -m repro.perf corpus --jobs 2 --engine precise > /tmp/profiles-precise.jsonl
	$(PYTHON) -m repro.perf corpus --jobs 2 --engine fast > /tmp/profiles-fast.jsonl
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
## stable records are byte-identical at --jobs 1 and 2 (prints the digest);
## an instruction-stream sweep at a second seed; the 120-case MiniJava
## batch checks out clean and is byte-identical at --jobs 1 and 2
fuzz-smoke:
	$(PYTHON) -m repro.fuzz run --cases 500 --seed 1982 --fuzz-mode both \
		--jobs 1 --stable-results /tmp/fuzz-serial.jsonl
	$(PYTHON) -m repro.fuzz run --cases 500 --seed 1982 --fuzz-mode both \
		--jobs 2 --stable-results /tmp/fuzz-sharded.jsonl
	cmp /tmp/fuzz-serial.jsonl /tmp/fuzz-sharded.jsonl
	$(PYTHON) -m repro.fuzz run --cases 300 --seed 42 --fuzz-mode words --jobs 2
	$(PYTHON) -m repro.fuzz run --cases 120 --seed 2026 --fuzz-mode minijava \
		--jobs 1 --stable-results /tmp/fuzz-mj-serial.jsonl
	$(PYTHON) -m repro.fuzz run --cases 120 --seed 2026 --fuzz-mode minijava \
		--jobs 2 --stable-results /tmp/fuzz-mj-sharded.jsonl
	cmp /tmp/fuzz-mj-serial.jsonl /tmp/fuzz-mj-sharded.jsonl

claims:
	$(PYTHON) -m repro.perf claims
