"""The CPU core: pipeline semantics, exceptions, privilege.

Segmentation is specified in ``tests/test_isa_addressing.py``.
"""

import pytest

from repro.asm import assemble
from repro.sim import (
    HazardMode,
    HazardViolation,
    Machine,
    OverflowTrap,
    PrivilegeViolation,
    TrapInstruction,
    run_source,
)


def run(source, **kwargs):
    return run_source(source, **kwargs)


class TestDelayedBranches:
    def test_taken_branch_executes_slot(self):
        machine = run(
            """
            start:  mov #1, r1
                    jmp skip
                    mov #2, r1      ; delay slot: executes
                    mov #3, r1      ; skipped
            skip:   trap #1
                    trap #0
            """
        )
        assert machine.output == [2]

    def test_not_taken_branch_continues(self):
        machine = run(
            """
            start:  mov #1, r1
                    beq r1, #0, nowhere
                    mov #4, r1
                    trap #1
                    trap #0
            nowhere: mov #9, r1
                    trap #1
                    trap #0
            """
        )
        assert machine.output == [4]

    def test_indirect_jump_two_slots(self):
        machine = run(
            """
            start:  lim target, r2
                    jmpr r2
                    mov #1, r1      ; slot 1
                    add r1, #1, r1  ; slot 2
                    mov #9, r1      ; skipped
            target: trap #1
                    trap #0
            """
        )
        assert machine.output == [2]

    def test_branch_in_delay_slot_of_branch(self):
        # a jump in a jump's delay slot: the second jump's own slot is
        # the FIRST jump's target (the next instruction fetched), so the
        # executed stream is: jmp a, jmp b, nop(at a), trap(at b) -- the
        # mov at address 2 is dead code and r1 stays 0
        machine = run(
            """
            start:  jmp a
                    jmp b
                    mov #7, r1      ; never reached
            a:      nop
            b:      trap #1
                    trap #0
            """
        )
        assert machine.output == [0]

    def test_jal_links_past_delay_slot(self):
        machine = run(
            """
            start:  jal sub
                    nop
                    trap #1         ; return lands here
                    trap #0
            sub:    mov #5, r1
                    jmpr ra
                    nop
                    nop
            """
        )
        assert machine.output == [5]


class TestLoadDelay:
    SOURCE = """
            start:  mov #7, r1
                    ld @val, r1
                    mov r1, r2      ; delay slot: stale in bare mode
                    mov r1, r3
                    mov r2, r1
                    trap #1
                    mov r3, r1
                    trap #1
                    trap #0
            val:    .word 42
    """

    def test_bare_mode_reads_stale_value(self):
        machine = run(self.SOURCE, hazard_mode=HazardMode.BARE)
        assert machine.output == [7, 42]

    def test_checked_mode_raises(self):
        with pytest.raises(HazardViolation):
            run(self.SOURCE, hazard_mode=HazardMode.CHECKED)

    def test_interlocked_mode_stalls_and_forwards(self):
        machine = run(self.SOURCE, hazard_mode=HazardMode.INTERLOCKED)
        assert machine.output == [42, 42]
        assert machine.stats.load_stalls == 1
        assert machine.stats.cycles == machine.stats.words + 1

    def test_write_after_load_not_clobbered(self):
        machine = run(
            """
            start:  ld @val, r1
                    mov #9, r1      ; writes r1 after the load lands
                    mov r1, r1
                    trap #1
                    trap #0
            val:    .word 42
            """
        )
        assert machine.output == [9]

    def test_load_then_store_of_same_register(self):
        # the store in the delay slot reads the OLD value (bare mode)
        machine = run(
            """
            start:  mov #7, r1
                    ld @val, r1
                    st r1, @out     ; stale 7
                    ld @out, r1
                    nop
                    trap #1
                    trap #0
            val:    .word 42
            out:    .word 0
            """
        )
        assert machine.output == [7]


class TestInterlockedBranches:
    def test_taken_branch_annuls_slot(self):
        machine = run(
            """
            start:  mov #1, r1
                    jmp skip
                    mov #2, r1      ; annulled by interlock hardware
            skip:   trap #1
                    trap #0
            """,
            hazard_mode=HazardMode.INTERLOCKED,
        )
        assert machine.output == [1]
        assert machine.stats.branch_flush_cycles == 1


class TestArithmeticTraps:
    def test_overflow_raises_when_enabled(self):
        source = """
        start:  lim #1048575, r1
                sll r1, #11, r1
                add r1, r1, r2
                trap #0
        """
        machine = Machine(assemble(source))
        machine.cpu.surprise.overflow_traps_enabled = True
        with pytest.raises(OverflowTrap):
            machine.run()

    def test_overflow_silent_when_disabled(self):
        machine = run(
            """
            start:  lim #1048575, r1
                    sll r1, #11, r1
                    add r1, r1, r2
                    trap #0
            """
        )
        assert machine.halted


class TestPrivilege:
    def test_user_cannot_touch_surprise(self):
        source = "start: rdspec surprise, r1\ntrap #0"
        machine = Machine(assemble(source))
        machine.cpu.surprise.supervisor = False
        with pytest.raises(PrivilegeViolation):
            machine.run()

    def test_user_can_write_lo(self):
        source = """
        start:  mov #2, r1
                mov r1, lo
                movi #171, r2
                ic r2, r3
                mov r3, r1
                trap #1
                trap #0
        """
        machine = Machine(assemble(source))
        machine.cpu.surprise.supervisor = False
        machine.run()
        assert machine.output == [0xAB << 16]


class TestSurpriseSequence:
    def test_trap_vectors_to_zero(self):
        source = """
        start:  .org 100
                trap #7
        """
        machine = Machine(assemble("  .org 100\nstart: trap #7\nnop"))
        cpu = machine.cpu
        cpu.vectored_exceptions = True
        cpu.surprise.supervisor = False
        cpu.step()
        assert cpu.pc == 0
        assert cpu.surprise.supervisor
        assert not cpu.surprise.interrupts_enabled
        assert cpu.surprise.minor_cause == 7
        assert cpu.xra[0] == 101  # resume after the trap

    def test_return_addresses_capture_branch_stream(self):
        source = """
        start:  lim target, r2
                jmpr r2
                nop
                trap #9
                nop
        target: nop
                nop
        """
        machine = Machine(assemble(source))
        cpu = machine.cpu
        cpu.vectored_exceptions = True
        cpu.step()  # lim
        cpu.step()  # jmpr (2 delay slots)
        cpu.step()  # slot 1 (nop)
        cpu.step()  # slot 2: trap -> surprise
        target = machine.program.symbol("target")
        # resume: after the trap comes the jump target
        assert cpu.xra == [target, target + 1, target + 2]

    def test_rfs_resumes_interrupted_stream(self):
        source = """
        start:  mov #1, r1
                add r1, #1, r1
                add r1, #1, r1
                trap #1
                trap #0
        """
        machine = Machine(assemble(source))
        cpu = machine.cpu
        cpu.step()
        # fake an interrupt arriving before the second add
        cpu.vectored_exceptions = True
        from repro.sim.faults import InterruptRequest

        cpu._take_fault(InterruptRequest())
        assert cpu.pc == 0
        # kernel-style return
        cpu.surprise.restore_previous  # (the rfs path does this itself)
        from repro.isa.pieces import Rfs
        from repro.isa.words import InstructionWord
        from repro.isa.encoding import encode

        machine.memory.poke(0, encode(InstructionWord.single(Rfs()), 0))
        cpu.step()  # rfs
        cpu.vectored_exceptions = False
        machine.run()
        assert machine.output == [3]


class TestStats:
    def test_free_cycles_counted(self):
        machine = run(
            """
            start:  mov #1, r1
                    ld @val, r2
                    nop
                    trap #0
            val:    .word 9
            """
        )
        stats = machine.stats
        # words: mov, ld, nop, trap -> one uses memory
        assert stats.memory_cycles_used == 1
        assert stats.free_memory_cycles == stats.words - 1

    def test_piece_and_noop_counts(self):
        machine = run("start: nop\nmov #1, r1\ntrap #0")
        assert machine.stats.noops == 1
