# Every check, written once: CI's jobs run these targets (see
# .github/workflows/ci.yml), so a local run and a CI run take the same
# arguments and leave the same /tmp outputs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test bench-selftest perf-gate experiments-check engine-differential \
	farm-smoke chaos-smoke fuzz-smoke claims bench-pairs

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

## chaos-smoke: every campaign passes on both engines, seed 7 prints its
## known aggregate digest and reruns byte-identical; a second seed on the
## fast engine.  A change that moves the digest updates the literal.
chaos-smoke:
	$(PYTHON) -m repro.chaos run --seed 7 --results /tmp/chaos-a.jsonl > /tmp/chaos-a.out
	cat /tmp/chaos-a.out; grep -qx 'aggregate digest: 0325df2ecdcc7a113961d1e0d431b1d4039082d4d320215f88fc4ea8689a9597' /tmp/chaos-a.out
	$(PYTHON) -m repro.chaos run --seed 7 --results /tmp/chaos-b.jsonl
	cmp /tmp/chaos-a.jsonl /tmp/chaos-b.jsonl
	$(PYTHON) -m repro.chaos run --seed 42 --engine fast

## fuzz-smoke: the fixed-seed 500-case batch checks out clean and its
## stable records are byte-identical at --jobs 1 and 2; an
## instruction-stream sweep at a second seed; the 120-case MiniJava batch
## checks out clean and is byte-identical at --jobs 1 and 2.  Each batch
## must print its known digest; a change that moves one updates the literal.
fuzz-smoke:
	$(PYTHON) -m repro.fuzz run --cases 500 --seed 1982 --fuzz-mode both \
		--jobs 1 --stable-results /tmp/fuzz-serial.jsonl > /tmp/fuzz-serial.out
	cat /tmp/fuzz-serial.out; grep -q ' digest 222cda1f06d31ed9$$' /tmp/fuzz-serial.out
	$(PYTHON) -m repro.fuzz run --cases 500 --seed 1982 --fuzz-mode both \
		--jobs 2 --stable-results /tmp/fuzz-sharded.jsonl
	cmp /tmp/fuzz-serial.jsonl /tmp/fuzz-sharded.jsonl
	$(PYTHON) -m repro.fuzz run --cases 300 --seed 42 --fuzz-mode words --jobs 2 > /tmp/fuzz-words.out
	cat /tmp/fuzz-words.out; grep -q ' digest da3fe8b88cd665b1$$' /tmp/fuzz-words.out
	$(PYTHON) -m repro.fuzz run --cases 120 --seed 2026 --fuzz-mode minijava \
		--jobs 1 --stable-results /tmp/fuzz-mj-serial.jsonl > /tmp/fuzz-mj-serial.out
	cat /tmp/fuzz-mj-serial.out; grep -q ' digest 532eab722bb88713$$' /tmp/fuzz-mj-serial.out
	$(PYTHON) -m repro.fuzz run --cases 120 --seed 2026 --fuzz-mode minijava \
		--jobs 2 --stable-results /tmp/fuzz-mj-sharded.jsonl
	cmp /tmp/fuzz-mj-serial.jsonl /tmp/fuzz-mj-sharded.jsonl

claims:
	$(PYTHON) -m repro.perf claims

## bench-pairs: a speed claim's alternating recipe in one line --
##   make bench-pairs WORKLOAD=fuzz-oracle PARENT=<clean checkout of the parent>
## removes both trees' earlier bench/out/result-$(WORKLOAD)-* files, runs
## bench/run.py for each seed in SEEDS in both trees (the change first on
## odd seeds, no bytecode written), then bench/compare.py on the two sets;
## the recipe fails as compare.py does (1 on a regression), and with 2 and
## a usage line when WORKLOAD is unset or PARENT has no bench/run.py
SEEDS ?= 101 102 103 104 105 106 107 108 109 110

bench-pairs:
	@if [ -z "$(WORKLOAD)" ] || [ ! -f "$(PARENT)/bench/run.py" ]; then \
		echo 'usage: make bench-pairs WORKLOAD=<workload> PARENT=<checkout of the parent> [SEEDS="101 ... 110"]' >&2; \
		exit 2; \
	fi
	rm -f bench/out/result-$(WORKLOAD)-* "$(PARENT)"/bench/out/result-$(WORKLOAD)-*
	@for seed in $(SEEDS); do \
		if [ $$((seed % 2)) = 1 ]; then order='. $(PARENT)'; else order='$(PARENT) .'; fi; \
		for side in $$order; do \
			echo "== seed $$seed: $$side"; \
			(cd "$$side" && PYTHONDONTWRITEBYTECODE=1 $(PYTHON) bench/run.py \
				--workload $(WORKLOAD) --seed $$seed) || exit 1; \
		done; \
	done
	$(PYTHON) bench/compare.py "$(PARENT)"/bench/out/result-$(WORKLOAD)-* \
		bench/out/result-$(WORKLOAD)-*
