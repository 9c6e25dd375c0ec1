"""The systems layer: paging, devices, the kernel, context switching, DMA."""

import pytest

from repro.asm import assemble
from repro.compiler import compile_source
from repro.sim import HazardMode, PageFault, PhysicalMemory, trace
from repro.system import (
    ENTRY_VALID,
    Kernel,
    MappedMemory,
    PAGE_WORDS,
    PageMap,
    build_kernel_program,
)
from repro.system.kernel import USER_STACK_TOP
from repro.workloads import CORPUS, EXPECTED_OUTPUT


class TestPageMap:
    def test_translate_mapped_page(self):
        pm = PageMap()
        pm.map_page(3, 17)
        assert pm.translate(3 * PAGE_WORDS + 5) == 17 * PAGE_WORDS + 5

    def test_miss_raises_and_records(self):
        pm = PageMap()
        with pytest.raises(PageFault):
            pm.translate(1234)
        assert pm.take_pending_fault() == 1234
        assert pm.take_pending_fault() == 0xFFFFFFFF  # cleared on read

    def test_entry_register_view(self):
        pm = PageMap()
        assert pm.entry_value(9) == 0
        pm.set_entry_value(9, 42 | ENTRY_VALID)
        assert pm.entry_value(9) == 42 | ENTRY_VALID
        assert pm.translate(9 * PAGE_WORDS) == 42 * PAGE_WORDS
        pm.set_entry_value(9, 0)  # clearing the valid bit unmaps
        with pytest.raises(PageFault):
            pm.translate(9 * PAGE_WORDS)

    def test_referenced_and_dirty_bits(self):
        pm = PageMap()
        pm.map_page(1, 2)
        pm.translate(PAGE_WORDS, is_write=False)
        assert pm.referenced[1] and not pm.dirty[1]
        pm.translate(PAGE_WORDS, is_write=True)
        assert pm.dirty[1]


class TestMappedMemory:
    def test_unmapped_passes_through(self):
        memory = MappedMemory(PhysicalMemory(1 << 16))
        memory.write(100, 7)
        assert memory.read(100) == 7

    def test_mapped_translates(self):
        memory = MappedMemory(PhysicalMemory(1 << 16))
        memory.pagemap.map_page(0, 3)
        memory.write(5, 99, mapped=True)
        assert memory.physical.peek(3 * PAGE_WORDS + 5) == 99
        assert memory.read(5, mapped=True) == 99


class TestKernelBoot:
    def test_rom_fits_its_region(self):
        program = build_kernel_program()
        assert program.code_size < 0x300

    def test_single_process(self):
        kernel = Kernel(hazard_mode=HazardMode.CHECKED)
        kernel.add_process(compile_source(CORPUS["fib_iterative"]).program)
        kernel.run()
        assert kernel.output(0) == EXPECTED_OUTPUT["fib_iterative"]
        assert kernel.process_state(0) == 2  # exited

    def test_trace_stops_at_the_kernel_halt(self):
        """The kernel halts the machine as a bare machine does, with
        ``Halted``, so a trace of it stops there instead of raising."""
        kernel = Kernel()
        kernel.add_process(assemble("start: mov #7, r1\n trap #1\n trap #0"))
        kernel.boot()
        records = list(trace(kernel.cpu, max_steps=100_000))
        assert kernel.output(0) == [7]
        assert 0 < len(records) < 100_000

    def test_demand_paging_counts(self):
        kernel = Kernel()
        kernel.add_process(compile_source(CORPUS["sieve"]).program)
        kernel.run()
        assert kernel.output(0) == EXPECTED_OUTPUT["sieve"]
        # at least code, globals, and stack pages were demand-loaded
        assert kernel.pagemap.stats.faults >= 3
        assert kernel.disk.copies == kernel.pagemap.stats.faults

    def test_two_processes_round_robin(self):
        kernel = Kernel(quantum=1500, hazard_mode=HazardMode.CHECKED)
        kernel.add_process(compile_source(CORPUS["sort"]).program)
        kernel.add_process(compile_source(CORPUS["scanner"]).program)
        kernel.run()
        assert kernel.output(0) == EXPECTED_OUTPUT["sort"]
        assert kernel.output(1) == EXPECTED_OUTPUT["scanner"]
        # preemption happened: more exceptions than the traps alone
        assert kernel.cpu.stats.exceptions > 10

    def test_processes_share_page_map_disjointly(self):
        kernel = Kernel(quantum=2000)
        kernel.add_process(compile_source(CORPUS["fib_iterative"]).program)
        kernel.add_process(compile_source(CORPUS["fib_iterative"]).program)
        kernel.run()
        assert kernel.output(0) == kernel.output(1) == EXPECTED_OUTPUT["fib_iterative"]
        # the PID insertion keeps their pages apart: every mapped page
        # belongs to exactly one frame
        frames = list(kernel.pagemap.entries.values())
        assert len(frames) == len(set(frames))

    def test_inputs_reach_processes(self):
        source = """
        program echo;
        var x: integer;
        begin read(x); writeln(x * 2) end.
        """
        kernel = Kernel(inputs=[21])
        kernel.add_process(compile_source(source).program)
        kernel.run()
        assert kernel.output(0) == [42]

    def test_process_isolation_via_segmentation(self):
        # a wild pointer (between the two regions) kills the process
        source = """
        program wild;
        var x: integer;
        begin
          writeln(1);
          x := 1073741824;  { 2^30: the dead middle of the space }
          read(x)           { unreachable: replaced below }
        end.
        """
        # craft: store THROUGH the wild address via the compiled store
        wild = """
        program wild;
        var a: array [0..1] of integer;
            i: integer;
        begin
          writeln(1);
          i := 536870912;
          a[i] := 5;
          writeln(2)
        end.
        """
        kernel = Kernel()
        kernel.add_process(compile_source(wild).program)
        kernel.run()
        assert kernel.output(0) == [1]  # killed before the second writeln
        assert kernel.process_state(0) == 2

    def test_user_cannot_reach_devices(self):
        # devices live in the supervisor physical window; a user store
        # aimed at the device address cannot even form a valid process
        # address (the segmented space tops out far below it), so the
        # process dies and the console device is never touched
        from repro.system.devices import DEV_BASE

        source = f"""
        program poke;
        var a: array [0..1] of integer;
            i: integer;
        begin
          writeln(1);
          i := {DEV_BASE};
          a[i - 8194] := 7;
          writeln(2)
        end.
        """
        kernel = Kernel()
        kernel.add_process(compile_source(source).program)
        kernel.run()
        assert kernel.output(0) == [1]  # killed at the wild store
        assert kernel.process_state(0) == 2

    def test_overflow_kills_process(self):
        source = """
        program boom;
        var x, i: integer;
        begin
          writeln(1);
          x := 1;
          for i := 1 to 40 do x := x + x;
          writeln(x)
        end.
        """
        kernel = Kernel()
        kernel.add_process(compile_source(source).program)
        kernel.run()
        assert kernel.output(0) == [1]
        assert kernel.process_state(0) == 2


class TestImageLoader:
    """The loader places each image word through its process's segment."""

    def test_high_region_word_is_loaded(self):
        # sp starts at USER_STACK_TOP, in the top region
        source = f"""
        start:  ld 0(sp), r1
                nop
                trap #1
                trap #0
                .org {USER_STACK_TOP}
                .word 99
        """
        kernel = Kernel(quantum=0)
        kernel.add_process(assemble(source))
        kernel.run()
        assert kernel.output(0) == [99]

    def test_word_in_the_hole_is_refused(self):
        # pid 0's low region ends at 2**19: 2**20 + 100 is in its hole,
        # and is where pid 1's word 100 lives in system space
        kernel = Kernel(quantum=0)
        kernel.add_process(assemble("start: trap #0\n.org 1048676\n.word 77"))
        kernel.add_process(assemble("start: ld @100, r1\nnop\ntrap #1\ntrap #0"))
        with pytest.raises(ValueError, match="0x100064"):
            kernel.run()


class TestPageReplacement:
    SWEEP = """
    program bigsweep;
    const n = 2000;
    var a: array [0..1999] of integer;
        i, pass, checksum: integer;
    begin
      for pass := 1 to 3 do
        for i := 0 to n - 1 do
          a[i] := a[i] + pass * (i mod 7);
      checksum := 0;
      for i := 0 to n - 1 do checksum := checksum + a[i];
      writeln(checksum)
    end.
    """
    EXPECTED = sum(sum(p * (i % 7) for p in (1, 2, 3)) for i in range(2000))

    def test_working_set_larger_than_memory(self):
        """Demand paging with clock replacement: a 10-page working set
        completes correctly in 5 frames, with dirty pages written back."""
        kernel = Kernel(max_frames=5, hazard_mode=HazardMode.CHECKED)
        kernel.add_process(compile_source(self.SWEEP).program)
        kernel.run(200_000_000)
        assert kernel.output(0) == [self.EXPECTED]
        assert kernel.pagemap.stats.victims_suggested > 0
        assert kernel.disk.writebacks > 0

    def test_no_replacement_with_ample_memory(self):
        kernel = Kernel(hazard_mode=HazardMode.CHECKED)
        kernel.add_process(compile_source(self.SWEEP).program)
        kernel.run(200_000_000)
        assert kernel.output(0) == [self.EXPECTED]
        assert kernel.pagemap.stats.victims_suggested == 0
        assert kernel.disk.writebacks == 0

    def test_fault_rate_falls_with_more_frames(self):
        faults = {}
        for frames in (5, 12):
            kernel = Kernel(max_frames=frames)
            kernel.add_process(compile_source(self.SWEEP).program)
            kernel.run(200_000_000)
            assert kernel.output(0) == [self.EXPECTED]
            faults[frames] = kernel.pagemap.stats.faults
        assert faults[12] <= faults[5]

    #: a 6-page array swept twice, for the fault curve.  Not SWEEP:
    #: clock replacement is not a stack algorithm, and SWEEP takes 36
    #: faults in 5 frames but 38 in 6
    CURVE_SWEEP = """
    program sweep;
    const n = 1500;
    var a: array [0..1499] of integer;
        i, pass, checksum: integer;
    begin
      for pass := 1 to 2 do
        for i := 0 to n - 1 do
          a[i] := a[i] + pass + i;
      checksum := 0;
      for i := 0 to n - 1 do checksum := checksum + a[i];
      writeln(checksum)
    end.
    """
    CURVE_EXPECTED = sum(2 * (1 + i) + 1 for i in range(1500))

    def test_fault_curve_under_memory_pressure(self):
        """Section 3.1/3.3: restartable page faults make demand paging
        possible.  Execution stays correct at every frame-pool size,
        faults fall as frames grow, replacement runs only under
        pressure, and under pressure dirty pages are written back."""
        program = compile_source(self.CURVE_SWEEP).program
        kernels = {}
        for frames in (4, 6, 10, 32):
            kernel = Kernel(max_frames=frames)
            kernel.add_process(program)
            kernel.run(300_000_000)
            assert kernel.output(0) == [self.CURVE_EXPECTED], frames
            kernels[frames] = kernel
        faults = [kernel.pagemap.stats.faults for kernel in kernels.values()]
        assert faults == sorted(faults, reverse=True), faults
        assert kernels[4].pagemap.stats.victims_suggested > 0
        assert kernels[32].pagemap.stats.victims_suggested == 0
        assert kernels[4].disk.writebacks > 0

    def test_clock_prefers_unreferenced_pages(self):
        from repro.system import PageMap

        pm = PageMap()
        for page in (1, 2, 3):
            pm.map_page(page, page + 10)
        pm.translate(2 << 8)  # reference page 2
        victim = pm.suggest_victim()
        assert victim & 0xFFFF != 2  # the referenced page survives

    def test_dirty_flag_in_victim_register(self):
        from repro.system import PageMap
        from repro.system.mapping import VICTIM_DIRTY

        pm = PageMap()
        pm.map_page(7, 3)
        pm.translate(7 << 8, is_write=True)
        pm.referenced[7] = False
        victim = pm.suggest_victim()
        assert victim & VICTIM_DIRTY
        assert victim & ~VICTIM_DIRTY == 7


class TestYield:
    def test_cooperative_switching_without_timer(self):
        # two processes; no quantum: they only switch on exit
        kernel = Kernel(quantum=0)
        kernel.add_process(compile_source(CORPUS["fib_iterative"]).program)
        kernel.add_process(compile_source(CORPUS["strings"]).program)
        kernel.run()
        assert kernel.output(0) == EXPECTED_OUTPUT["fib_iterative"]
        assert kernel.output(1) == EXPECTED_OUTPUT["strings"]


class TestFreeCycleDma:
    def test_transfer_completes_from_free_cycles(self):
        from repro.sim import Machine
        from repro.system import FreeCycleDma, run_with_dma

        compiled = compile_source(CORPUS["sieve"])
        machine = Machine(compiled.program)
        dma = FreeCycleDma(machine.memory)
        machine.memory.poke(0x100000, 0xDEAD)
        machine.memory.poke(0x100001, 0xBEEF)
        transfer = dma.enqueue(0x100000, 0x140000, 2)
        words, moved = run_with_dma(machine, dma)
        assert transfer.done and moved == 2
        assert machine.memory.peek(0x140000) == 0xDEAD
        assert machine.memory.peek(0x140001) == 0xBEEF
        assert machine.output  # the program still ran correctly

    def test_dma_only_uses_free_cycles(self):
        from repro.sim import Machine
        from repro.system import FreeCycleDma, run_with_dma

        compiled = compile_source(CORPUS["fib_iterative"])
        machine = Machine(compiled.program)
        dma = FreeCycleDma(machine.memory)
        dma.enqueue(0x100000, 0x140000, 1 << 20)  # more than available
        words, moved = run_with_dma(machine, dma)
        assert moved <= machine.stats.free_memory_cycles
        assert dma.cycles_used == moved
