"""The compiler's runtime support library, written in MIPS assembly.

The machine has no multiply or divide instructions (the paper envisions
a numeric coprocessor for intensive arithmetic; occasional use is
synthesized in software).  The compiler calls these routines:

``__mul``
    ``r1 := r2 * r3`` (32-bit wrapping, sign-agnostic shift-and-add).
    Clobbers ``r4``.
``__divmod``
    ``r1 := r2 div r3`` (truncating toward zero, Pascal semantics) and
    ``r4 := r2 mod r3`` (sign follows the dividend).  Clobbers
    ``r5``-``r7``.  Division by zero raises ``trap #5``.
``__alloc``
    ``r1 := base of a fresh r2-word block`` -- the MiniJava front end's
    bump allocator (objects, vtv-pointed records, int arrays).  The
    next-free pointer lives at word ``HEAP_POINTER_ADDR`` and is lazily
    initialized on first use; physical memory starts zeroed and blocks
    are never reused, so every allocation is implicitly zero-filled.
    Exhausting the arena raises ``trap #6`` (a structured machine
    fault, like division's ``trap #5``).  Clobbers ``r3``-``r5``.

Calling convention: arguments in ``r2``/``r3``, ``jal`` links through
``ra``; the routines use no stack.  The sources below are *piece
streams* with sequential semantics -- the postpass reorganizer
schedules them around the pipeline constraints like any other code.
"""

from __future__ import annotations

from typing import List

from ..asm.assembler import assemble_pieces
from ..reorg.blocks import LabeledPiece

MUL_SOURCE = """
__mul:      mov #0, r1
__mul_1:    beq r3, #0, __mul_3
            and r3, #1, r4
            beq r4, #0, __mul_2
            add r1, r2, r1
__mul_2:    sll r2, #1, r2
            srl r3, #1, r3
            jmp __mul_1
__mul_3:    jmpr ra
"""

DIVMOD_SOURCE = """
__divmod:   bne r3, #0, __dm_0
            trap #5
__dm_0:     mov #0, r7
            bge r2, #0, __dm_1
            rsub r2, #0, r2
            xor r7, #3, r7
__dm_1:     bge r3, #0, __dm_2
            rsub r3, #0, r3
            xor r7, #1, r7
__dm_2:     mov #0, r4
            mov #0, r1
            movi #32, r6
__dm_3:     beq r6, #0, __dm_6
            sll r4, #1, r4
            srl r2, #15, r5
            srl r5, #15, r5
            srl r5, #1, r5
            or r4, r5, r4
            sll r2, #1, r2
            sll r1, #1, r1
            blo r4, r3, __dm_5
            sub r4, r3, r4
            or r1, #1, r1
__dm_5:     sub r6, #1, r6
            jmp __dm_3
__dm_6:     and r7, #1, r5
            beq r5, #0, __dm_7
            rsub r1, #0, r1
__dm_7:     and r7, #2, r5
            beq r5, #0, __dm_8
            rsub r4, #0, r4
__dm_8:     jmpr ra
"""

# Heap layout for the bump allocator.  The compiler places globals from
# word 8192 up; the arena sits above them and well below the default
# stack top ((1 << 20) - 1, growing down).  The pointer word holds the
# next free word address, 0 until the first allocation (fresh physical
# memory is zeroed), so no startup code is needed to initialize it.
HEAP_POINTER_ADDR = 16384
HEAP_BASE = HEAP_POINTER_ADDR + 1
HEAP_LIMIT = 1 << 19

#: trap code raised when the arena is exhausted (no handler: the
#: machine surfaces it as a TrapInstruction fault on every engine)
TRAP_HEAP_EXHAUSTED = 6

ALLOC_SOURCE = f"""
__alloc:    ld @{HEAP_POINTER_ADDR}, r3
            bne r3, #0, __al_0
            lim #{HEAP_BASE}, r3
__al_0:     add r3, r2, r4
            lim #{HEAP_LIMIT}, r5
            bgt r4, r5, __al_1
            st r4, @{HEAP_POINTER_ADDR}
            mov r3, r1
            jmpr ra
__al_1:     trap #{TRAP_HEAP_EXHAUSTED}
"""

# Multiprecision arithmetic without carry bits (paper section 2.3.3):
# "multiprecision arithmetic can be synthesized with 31-bit words."
# Numbers are limb vectors, each limb holding 31 value bits; the carry
# out of a limb addition is simply bit 31 of the 32-bit sum -- no
# condition-code carry flag needed.
#
# ``__mpadd``: r1:r2 := (r2:r3) + (r4:r5), 62-bit quantities as
# (high limb : low limb) pairs; returns high in r1, low in r2.
# ``__mpsub``: same operands, difference; a borrow propagates as the
# sign bit of the 32-bit limb difference.
MPADD_SOURCE = """
__mpadd:    add r3, r5, r6
            srl r6, #15, r7
            srl r7, #15, r7
            srl r7, #1, r7
            sll r6, #1, r6
            srl r6, #1, r6
            add r2, r4, r1
            add r1, r7, r1
            mov r6, r2
            jmpr ra
"""

MPSUB_SOURCE = """
__mpsub:    sub r3, r5, r6
            srl r6, #15, r7
            srl r7, #15, r7
            srl r7, #1, r7
            sll r6, #1, r6
            srl r6, #1, r6
            sub r2, r4, r1
            sub r1, r7, r1
            mov r6, r2
            jmpr ra
"""

#: registers clobbered by each runtime routine (beyond the result regs)
CLOBBERS = {
    "__mul": {1, 2, 3, 4},
    "__divmod": {1, 2, 3, 4, 5, 6, 7},
    "__alloc": {1, 2, 3, 4, 5},
    "__mpadd": {1, 2, 6, 7},
    "__mpsub": {1, 2, 6, 7},
}


def runtime_stream(
    need_mul: bool, need_div: bool, need_alloc: bool = False
) -> List[LabeledPiece]:
    """The piece stream of the required runtime routines."""
    source = ""
    if need_mul:
        source += MUL_SOURCE
    if need_div:
        source += DIVMOD_SOURCE
    if need_alloc:
        source += ALLOC_SOURCE
    if not source:
        return []
    return assemble_pieces(source)
