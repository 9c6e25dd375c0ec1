"""Address modes and the on-chip segment check (paper sections 2.2, 3.1).

Both engines and the kernel loader read the one definition in
:mod:`repro.isa.addressing`, so comparing them with each other cannot
catch a wrong entry.  These plain definitions can: modular arithmetic
for the address modes, and for the segment the paper's wording -- mask
the top bits, insert the PID, two valid regions with a faulting hole.
"""

import typing

import pytest

from repro.isa.addressing import (
    ADDRESS_EXPRESSIONS,
    ADDRESS_FUNCTIONS,
    segment_translator,
    segment_window,
)
from repro.isa.bits import u32
from repro.isa.pieces import Absolute, Address, BaseIndex, BaseShifted, Displacement
from repro.isa.registers import Reg, SpecialReg
from repro.sim.cpu import Cpu
from repro.sim.faults import PageFault
from repro.sim.memory import PhysicalMemory

#: register contents at the edges of unsigned and signed 32-bit arithmetic
EDGES = (0, 1, 15, 16, 255, 2**16 - 1, 2**16, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1)
DISPLACEMENTS = (0, 1, -1, 65535, -65536)
SHIFTS = (1, 2, 3, 4)
ABSOLUTES = (0, 1, 2**16, 2**20, 2**21 - 1)
BASE, INDEX = Reg(3), Reg(5)


def _regs(base, index=0):
    regs = [0] * 16
    regs[BASE.number] = base
    regs[INDEX.number] = index
    return regs


def _address(mode, regs):
    return ADDRESS_FUNCTIONS[type(mode)](regs, mode)


def _paper_segment(a, pid, mask):
    """Section 3.1 read plainly: a process owns ``2**(24 - mask)`` words.
    The address's bits from its offset's top bit upward must be all clear
    (the region at the bottom of the 32-bit space) or all set (the one at
    the top); anything else is the hole.  The system address is the PID's
    low ``mask`` bits above the address's low ``24 - mask`` bits."""
    offset_bits = 24 - mask
    above = a >> (offset_bits - 1)
    if above not in (0, 2 ** (33 - offset_bits) - 1):
        return None
    return ((pid % 2**mask) << offset_bits) | (a % 2**offset_bits)


class TestAddressModes:
    def test_every_mode_has_one_entry(self):
        assert set(ADDRESS_EXPRESSIONS) == set(ADDRESS_FUNCTIONS) == set(typing.get_args(Address))

    def test_absolute(self):
        for addr in ABSOLUTES:
            assert _address(Absolute(addr), _regs(2**32 - 1, 2**32 - 1)) == addr

    def test_displacement_wraps_modulo_2_32(self):
        for base in EDGES:
            for disp in DISPLACEMENTS:
                mode = Displacement(BASE, disp)
                assert _address(mode, _regs(base)) == (base + disp) % 2**32, (base, disp)

    def test_base_index_wraps_modulo_2_32(self):
        for base in EDGES:
            for index in EDGES:
                mode = BaseIndex(BASE, INDEX)
                assert _address(mode, _regs(base, index)) == (base + index) % 2**32, (base, index)

    def test_base_index_with_one_register_twice(self):
        for base in EDGES:
            assert _address(BaseIndex(BASE, BASE), _regs(base)) == (2 * base) % 2**32

    def test_base_shifted_divides(self):
        for base in EDGES:
            for shift in SHIFTS:
                mode = BaseShifted(BASE, shift)
                assert _address(mode, _regs(base)) == base // 2**shift, (base, shift)


#: every mask the surprise register accepts, each with its lowest and
#: highest PID and a PID wider than the mask
WINDOWS = [(mask, pid) for mask in range(9) for pid in sorted({0, 2**mask - 1, 255})]


def _region_edges(mask):
    """Every edge of both regions, the hole's middle and the space's ends."""
    half = 2 ** (23 - mask)
    edges = {0, 1, half - 2, half - 1, half, half + 1, 2**31 - 1, 2**31}
    edges |= {2**32 - half + d for d in (-2, -1, 0, 1)} | {2**32 - 2, 2**32 - 1}
    return sorted(edges)


class TestSegment:
    @pytest.mark.parametrize("mask, pid", WINDOWS)
    def test_translator_is_the_paper_rule(self, mask, pid):
        translate = segment_translator(pid, mask)
        for a in _region_edges(mask):
            assert translate(a) == _paper_segment(a, pid, mask), hex(a)

    @pytest.mark.parametrize("mask, pid", WINDOWS)
    def test_window_tiles_the_segment_inside_system_space(self, mask, pid):
        """The bottom region maps to the segment's first half and the top
        region right after it, ending inside the 16M-word system space."""
        half, top, low, high = segment_window(pid, mask)
        space = 2 ** (24 - mask)
        assert (half, top, low) == (space // 2, 2**32 - space // 2, (pid % 2**mask) * space)
        assert (top - high, 2**32 - 1 - high) == (low + half, low + space - 1)
        assert low + space <= 2**24

    def test_translator_is_cached(self):
        assert segment_translator(3, 4) is segment_translator(3, 4)


class TestCpuTranslate:
    """``Cpu.translate`` runs the segment check for ``seg_pid`` and
    ``seg_mask``; the hole is a :class:`PageFault`."""

    def make_cpu(self, seg_mask=4, pid=3):
        cpu = Cpu(PhysicalMemory(1 << 22))
        cpu.seg_mask = seg_mask
        cpu.seg_pid = pid
        return cpu

    def test_low_region_translates(self):
        cpu = self.make_cpu()
        assert cpu.translate(0) == 3 * 2**20
        assert cpu.translate(100) == 3 * 2**20 + 100

    def test_high_region_translates_to_top_of_window(self):
        cpu = self.make_cpu()
        assert cpu.translate(u32(-1)) == 4 * 2**20 - 1

    def test_between_regions_faults(self):
        cpu = self.make_cpu()
        with pytest.raises(PageFault):
            cpu.translate(2**19)  # just past the low region
        with pytest.raises(PageFault):
            cpu.translate(1 << 30)  # the dead middle

    def test_space_sizes(self):
        cpu = self.make_cpu(seg_mask=0)  # the full 16M words: no PID bits
        assert cpu.translate(2**23 - 1) == 2**23 - 1
        assert cpu.translate(u32(-(2**23))) == 2**23
        cpu.seg_mask = 8  # the 65K minimum
        assert cpu.translate(u32(-(2**15))) == 3 * 2**16 + 2**15
        with pytest.raises(PageFault):
            cpu.translate(2**15)

    def test_translate_masks_the_address_to_32_bits(self):
        cpu = self.make_cpu()
        assert cpu.translate(2**32 + 7) == cpu.translate(7)
        assert cpu.translate(-1) == cpu.translate(2**32 - 1)

    def test_pid_written_under_a_wider_mask_inserts_its_low_bits(self):
        """A PID written under mask 8 and kept under mask 4 inserts its
        low 4 bits: the segment stays inside the 16M-word system space."""
        cpu = Cpu(PhysicalMemory())
        cpu._write_special(SpecialReg.SEG_MASK, 8)
        cpu._write_special(SpecialReg.SEG_PID, 255)
        cpu._write_special(SpecialReg.SEG_MASK, 4)
        assert cpu.translate(0) == 15 * 2**20
        assert cpu.translate(u32(-1)) == 16 * 2**20 - 1
        assert cpu._read_special(SpecialReg.SEG_PID) == 255
