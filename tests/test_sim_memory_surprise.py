"""Physical memory, the surprise register, and the bare-metal machine."""

import pytest

from repro.sim import BusError, ExceptionCause, PhysicalMemory, SurpriseRegister
from repro.sim.machine import run_source


class TestPhysicalMemory:
    def test_read_write(self):
        memory = PhysicalMemory(1024)
        memory.write(5, 0xDEADBEEF)
        assert memory.read(5) == 0xDEADBEEF

    def test_uninitialized_reads_zero(self):
        assert PhysicalMemory(16).read(3) == 0

    def test_values_wrap_to_32_bits(self):
        memory = PhysicalMemory(16)
        memory.write(0, 1 << 40)
        assert memory.read(0) == 0

    def test_bounds(self):
        memory = PhysicalMemory(16)
        with pytest.raises(BusError):
            memory.read(16)
        with pytest.raises(BusError):
            memory.write(-1, 0)

    def test_fetch_counted_separately(self):
        memory = PhysicalMemory(16)
        memory.read(0, fetch=True)
        memory.read(0)
        assert memory.stats.fetches == 1
        assert memory.stats.reads == 1
        assert memory.stats.data_total == 1

    def test_peek_poke_do_not_count(self):
        memory = PhysicalMemory(16)
        memory.poke(1, 9)
        assert memory.peek(1) == 9
        assert memory.stats.data_total == 0

    def test_load_image(self):
        memory = PhysicalMemory(64)
        memory.load_image({0: 1, 5: 2}, base=10)
        assert memory.peek(10) == 1 and memory.peek(15) == 2

    def test_block_access_matches_per_word_access(self):
        values = [0, 1, 0xFFFFFFFF, 1 << 32, -1, (1 << 40) | 5, 0x80000000, 7]
        block, single = PhysicalMemory(64), PhysicalMemory(64)
        block.poke_block(30, values)
        for i, value in enumerate(values):
            single.poke(30 + i, value)
        assert block.peek_block(0, 64) == [single.peek(addr) for addr in range(64)]
        assert block.peek_block(29, 10) == [0, 0, 1, 0xFFFFFFFF, 0, 0xFFFFFFFF, 5, 0x80000000, 7, 0]
        assert block.peek_block(63, 1) == [0] and block.peek_block(5, 0) == []
        assert block.stats.data_total == 0

    @pytest.mark.parametrize("base,count", [(12, 5), (-1, 3), (16, 1), (-4, 24)])
    def test_out_of_range_block_raises_and_writes_nothing(self, base, count):
        memory = PhysicalMemory(16)
        seen = []
        memory.watch_hook = seen.append
        with pytest.raises(BusError):
            memory.poke_block(base, [7] * count)
        with pytest.raises(BusError):
            memory.peek_block(base, count)
        assert memory.peek_block(0, 16) == [0] * 16
        assert seen == []

    def test_block_write_tells_the_watch_hook_every_address_once(self):
        memory = PhysicalMemory(64)
        seen = []
        memory.watch_hook = seen.append
        memory.poke_block(20, list(range(9)))
        assert seen == list(range(20, 29))


class TestSurpriseRegister:
    def test_reset_state_is_supervisor(self):
        sr = SurpriseRegister()
        assert sr.supervisor
        assert not sr.interrupts_enabled

    def test_flag_accessors(self):
        sr = SurpriseRegister()
        sr.interrupts_enabled = True
        sr.overflow_traps_enabled = True
        sr.mapping_enabled = True
        assert sr.interrupts_enabled and sr.overflow_traps_enabled and sr.mapping_enabled
        sr.mapping_enabled = False
        assert not sr.mapping_enabled

    def test_enter_exception_saves_previous(self):
        sr = SurpriseRegister()
        sr.supervisor = False
        sr.interrupts_enabled = True
        sr.mapping_enabled = True
        sr.overflow_traps_enabled = True
        sr.enter_exception(ExceptionCause.TRAP, 42)
        assert sr.supervisor and not sr.interrupts_enabled and not sr.mapping_enabled
        assert not sr.overflow_traps_enabled
        assert sr.major_cause is ExceptionCause.TRAP
        assert sr.minor_cause == 42
        assert not sr.previous_supervisor
        assert sr.previous_interrupts and sr.previous_mapping and sr.previous_overflow

    def test_restore_previous_round_trips(self):
        sr = SurpriseRegister()
        sr.supervisor = False
        sr.interrupts_enabled = True
        sr.mapping_enabled = True
        sr.enter_exception(ExceptionCause.INTERRUPT)
        sr.restore_previous()
        assert not sr.supervisor
        assert sr.interrupts_enabled and sr.mapping_enabled

    def test_cause_fields_do_not_clobber_flags(self):
        sr = SurpriseRegister()
        sr.enter_exception(ExceptionCause.PAGE_FAULT, 0xFFF)
        assert sr.minor_cause == 0xFFF
        assert sr.supervisor

    def test_nested_exception_clobbers_previous_fields(self):
        """Hardware keeps exactly one level of previous-state: a second
        ``enter_exception`` overwrites the user state saved by the
        first.  This is the paper's case for software save/restore."""
        sr = SurpriseRegister()
        sr.supervisor = False
        sr.interrupts_enabled = True
        sr.enter_exception(ExceptionCause.PAGE_FAULT, 7)
        assert not sr.previous_supervisor  # user state held, one level deep
        sr.enter_exception(ExceptionCause.INTERRUPT)
        assert sr.previous_supervisor  # now holds handler state; user state gone

    def test_software_save_restores_across_nesting(self):
        """The kernel's dispatch prologue stores the raw register value
        and its epilogue writes it back; that round-trip must survive a
        nested fault between save and restore."""
        sr = SurpriseRegister()
        sr.supervisor = False
        sr.interrupts_enabled = True
        sr.mapping_enabled = True
        sr.overflow_traps_enabled = True
        sr.enter_exception(ExceptionCause.TRAP, 1)
        saved = sr.value  # st surprise, @SAVE_SR
        sr.enter_exception(ExceptionCause.INTERRUPT)  # nested fault in the handler
        sr.restore_previous()  # inner handler returns
        sr.value = saved  # wrspec @SAVE_SR, surprise
        sr.restore_previous()  # outer rfs back to the user
        assert not sr.supervisor
        assert sr.interrupts_enabled and sr.mapping_enabled and sr.overflow_traps_enabled


class TestMachineHarness:
    def test_io_traps(self):
        machine = run_source(
            """
            start:  trap #3
                    add r1, #1, r1
                    trap #1
                    movi #65, r1
                    trap #2
                    trap #0
            """,
            inputs=[9],
        )
        assert machine.output == [10]
        assert machine.output_text == "A"

    def test_timeout_on_runaway(self):
        with pytest.raises(TimeoutError):
            run_source("start: jmp start\nnop", max_steps=1000)

    def test_word_at(self):
        machine = run_source(
            """
            start:  movi #77, r2
                    st r2, @cell
                    trap #0
            cell:   .word 0
            """
        )
        assert machine.word_at("cell") == 77


class TestTracing:
    def test_trace_records_writes_and_branches(self):
        from repro.asm import assemble
        from repro.sim import Machine, trace

        machine = Machine(
            assemble(
                """
        start:  mov #5, r2
                add r2, #1, r2
                jmp out
                nop
        out:    trap #0
        """
            )
        )
        records = list(trace(machine.cpu, max_steps=100))
        assert records[0].writes == {2: 5}
        assert records[1].writes == {2: 6}
        assert records[2].branched
        # mov, add, jmp, delay-slot nop; the halting trap itself is
        # swallowed, so the slot is the last yielded record
        assert len(records) == 4
        assert records[-1].word.is_nop

    def test_trace_propagates_faults(self):
        import pytest
        from repro.asm import assemble
        from repro.sim import Machine, PrivilegeViolation, trace

        machine = Machine(assemble("start: rdspec surprise, r1\ntrap #0"))
        machine.cpu.surprise.supervisor = False
        with pytest.raises(PrivilegeViolation):
            list(trace(machine.cpu))
