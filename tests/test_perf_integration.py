"""Observability end-to-end: farm export, CLI, chaos differential, tracing.

The chaos differential test closes the loop on the layer's central
claim: if two executions are architecturally equivalent (equal
``state_fingerprint``), an attached profiler must have observed
byte-identical counter groups -- even when the run took faults from
injected chaos along the way.
"""

import json

from repro.asm import assemble
from repro.chaos import injection, make_plan, run_plan
from repro.chaos.campaigns import _counting_source
from repro.cli import prof_main
from repro.compiler import compile_source
from repro.farm import ResultStore, Scheduler, aggregate
from repro.farm.job import profile_jobs
from repro.perf import Profiler, collect, stable_groups
from repro.sim import Machine, state_fingerprint
from repro.sim.tracing import trace
from repro.system.kernel import Kernel
from repro.workloads import CORPUS


class TestFarmProfileExport:
    NAMES = ("sort", "calc", "strings")

    def _records(self, jobs):
        return Scheduler(jobs=jobs).run(profile_jobs(self.NAMES, top=10))

    def test_records_carry_profiles(self):
        for record in self._records(jobs=1):
            assert record["status"] == "ok"
            profile = record["extra"]["profile"]
            assert profile["name"] == record["name"]
            assert len(profile["hot"]) <= 10
            assert profile["counters"]["pipeline"]["cycles"] == record["cycles"]
            assert "engine" not in profile["counters"]

    def test_profiles_identical_across_sharding(self):
        serial = {r["name"]: r["extra"]["profile"] for r in self._records(jobs=1)}
        sharded = {r["name"]: r["extra"]["profile"] for r in self._records(jobs=2)}
        assert serial == sharded

    def test_profiles_flow_through_result_store(self, tmp_path):
        path = str(tmp_path / "profiles.jsonl")
        store = ResultStore(path)
        try:
            Scheduler(jobs=2, store=store).run(profile_jobs(self.NAMES, top=5))
        finally:
            store.close()
        records = ResultStore.load(path)
        assert sorted(r["name"] for r in records) == sorted(self.NAMES)
        for record in records:
            assert record["extra"]["profile"]["hot"]
        # profile jobs aggregate like any other job (stable digest)
        assert aggregate(records)["digest"]

    def test_profile_jobs_keyed_separately_from_plain_runs(self):
        from repro.farm.job import workload_jobs

        plain = workload_jobs(["sort"])[0]
        profiled = profile_jobs(["sort"])[0]
        assert plain.key != profiled.key


class TestCli:
    def test_run_json_deterministic_across_engines(self, capsys):
        outputs = []
        for engine in ("fast", "precise"):
            assert prof_main(["run", "sort", "--format", "json", "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        profile = json.loads(outputs[0])
        assert profile["name"] == "sort" and profile["hot"]

    def test_run_collapsed_format(self, capsys):
        assert prof_main(["run", "sort", "--format", "collapsed", "--top", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(";" in line and line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_run_rejects_unknown_target(self, capsys):
        assert prof_main(["run", "no-such-workload"]) == 2

    def test_claims_pass_on_shipped_corpus(self, capsys):
        assert prof_main(["claims"]) == 0
        assert "all paper claims hold" in capsys.readouterr().out


class TestChaosDifferential:
    """fingerprint equality implies counter-group equality under chaos."""

    PLAN = [
        injection(40, "spurious-int"),
        injection(120, "refault"),
        injection(300, "spurious-int"),
    ]

    def _run_engine(self, fast):
        kernel = Kernel(quantum=200)
        kernel.add_process(assemble(_counting_source(100, 25)))
        kernel.boot()
        profiler = Profiler().attach(kernel.cpu)
        plan = make_plan(11, "perf-differential", self.PLAN)
        run = run_plan(kernel, plan, fast=fast)
        return kernel, profiler, run

    def test_fingerprint_equality_implies_counter_equality(self):
        (k_fast, p_fast, run_fast) = self._run_engine(True)
        (k_ref, p_ref, run_ref) = self._run_engine(False)
        # both engines survived the same injections the same way...
        assert run_fast.records == run_ref.records
        assert state_fingerprint(k_fast.cpu) == state_fingerprint(k_ref.cpu)
        # ...therefore the observability layer must agree byte-for-byte
        assert p_fast.counts == p_ref.counts
        assert p_fast.events == p_ref.events
        assert stable_groups(collect(k_fast.cpu)) == stable_groups(collect(k_ref.cpu))

    def test_injected_faults_reach_the_event_ring(self):
        _, profiler, _ = self._run_engine(True)
        kinds = {event["kind"] for event in profiler.events}
        assert "fault" in kinds


class TestSystemGroups:
    def test_machine_counter_groups_accessor(self):
        machine = Machine(assemble("start: mov #1, r1\n trap #0"))
        Profiler().attach(machine.cpu)
        machine.run(100)
        groups = machine.counter_groups()
        assert groups["pipeline"]["words"] == 2
        assert groups["mix"] == {"mov": 1, "trap": 1}
        # a bare machine has no mapping or DMA traffic
        assert all(v == 0 for v in groups["system"].values())

    def test_kernel_groups_report_pagemap_traffic(self):
        kernel = Kernel(quantum=200)
        kernel.add_process(assemble(_counting_source(100, 10)))
        kernel.boot()
        kernel.run(200_000)
        groups = kernel.counter_groups()
        assert groups["system"]["pagemap_translations"] > 0

    def test_kernel_groups_are_engine_identical(self):
        """Each process's virtual PCs collide with the others' and with
        the kernel's physical PCs, so a kernel leaves the per-PC-derived
        groups empty; what remains, the per-PC counts and the event ring
        agree across engines on a profiled four-process run."""
        runs = []
        for fast in (True, False):
            kernel = Kernel(quantum=300, max_frames=8, inputs=[5, 6])
            for name in ("fib_iterative", "calc", "strings", "scanner"):
                kernel.add_process(compile_source(CORPUS[name]).program)
            kernel.boot()
            profiler = Profiler().attach(kernel.cpu)
            kernel.run(fast=fast)
            groups = stable_groups(kernel.counter_groups())
            runs.append((groups, profiler.counts, profiler.events))
        assert runs[0] == runs[1]
        groups, counts, _events = runs[0]
        assert counts and groups["mix"] == {} and groups["immediates"]["total"] == 0
        assert groups["control"]["compares_executed"] == 0
        assert groups["control"]["branches"] > 0

    def test_dma_traffic_lands_in_system_group(self):
        from repro.system.dma import FreeCycleDma, run_with_dma

        source = """
start:  mov #0, r8
        movi #200, r9
loop:   add r8, #1, r8
        blo r8, r9, loop
        nop
        trap #0
"""
        machine = Machine(assemble(source))
        dma = FreeCycleDma(machine.cpu.memory)
        dma.enqueue(source=0, dest=2000, length=50)
        run_with_dma(machine, dma)
        groups = collect(machine.cpu, dma=dma)
        assert groups["system"]["dma_cycles_offered"] > 0
        assert groups["system"]["dma_words_moved"] == dma.words_moved > 0


class TestTracingFetchFault:
    def test_fetch_fault_is_marked_not_mislabeled(self):
        """A faulting fetch yields fetch_faulted=True, not a fake NOP.

        With a kernel handler installed the step itself *succeeds* (it
        vectors to the bus-error handler), which is exactly the case the
        old code mislabeled as an executed NOP at the faulting pc.
        """
        kernel = Kernel(quantum=200)
        kernel.add_process(assemble(_counting_source(100, 25)))
        kernel.boot()
        kernel.run_steps(50, fast=False)
        kernel.cpu.pc = 1 << 22           # way beyond physical memory
        records = list(trace(kernel.cpu, max_steps=2))
        assert records[0].fetch_faulted
        assert "<fetch fault>" in repr(records[0])
        # the very next traced word is the handler's, cleanly fetched
        assert not records[1].fetch_faulted

    def test_clean_steps_are_not_marked(self):
        machine = Machine(assemble("start: mov #1, r1\n trap #0"))
        records = list(trace(machine.cpu, max_steps=5))
        assert records and all(not r.fetch_faulted for r in records)
        assert "mov" in repr(records[0])


class TestTracingObservesWithoutTouching:
    """A traced run fetches, translates and counts exactly what an
    untraced reference run does: each record's word is the one its step
    fetched, not a second fetch."""

    def test_bare_machine(self):
        program = compile_source(CORPUS["fib_iterative"]).program
        traced, untraced = Machine(program), Machine(program)
        records = list(trace(traced.cpu, max_steps=100_000))
        untraced.run(fast=False)
        assert traced.output == untraced.output
        assert traced.cpu.stats == untraced.cpu.stats
        assert traced.memory.stats == untraced.memory.stats
        assert [r.word for r in records] == [
            program.instructions[r.pc] for r in records
        ]

    def test_kernel(self):
        programs = [compile_source(CORPUS[name]).program for name in ("fib_iterative", "sieve")]
        kernels = []
        for _ in range(2):
            kernel = Kernel(quantum=0, max_frames=4)
            for program in programs:
                kernel.add_process(program)
            kernels.append(kernel)
        traced, untraced = kernels
        traced.boot()
        records = list(trace(traced.cpu, max_steps=1_000_000))
        untraced.run(fast=False)
        assert untraced.halted and len(records) < 1_000_000
        assert traced.output(1) == untraced.output(1)
        assert state_fingerprint(traced.cpu) == state_fingerprint(untraced.cpu)
        assert traced.cpu.stats == untraced.cpu.stats
        assert traced.physical.stats == untraced.physical.stats
        assert traced.pagemap.stats == untraced.pagemap.stats
        # the page faults on user fetches are the records marked as such
        assert any(r.fetch_faulted for r in records)
        assert all(r.word.is_nop for r in records if r.fetch_faulted)
