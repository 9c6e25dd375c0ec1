"""The off-chip page map (paper section 3.1).

"In the MIPS architecture we attempt to achieve a good compromise by
combining an optional page-level mapping unit off-chip with a simple
yet elegant address space segmentation mechanism on-chip."

The on-chip half (masking + PID insertion, the two-region check) lives
in :meth:`repro.sim.cpu.Cpu.translate`; this module is the off-chip
half: a page table over the 16M-word *system* virtual space, shared by
all processes (the PID was already folded into the address, so the map
needs no per-process tags).

The map is programmed through memory-mapped device registers (see
:mod:`repro.system.devices`): the kernel selects a page with
``PM_INDEX`` and reads/writes its entry through ``PM_ENTRY``.  A miss
records the faulting address (readable at ``PM_FAULT``) and raises
:class:`~repro.sim.faults.PageFault`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim.faults import PageFault
from ..sim.memory import PhysicalMemory

#: words per page (2**8 = 256)
PAGE_SHIFT = 8
PAGE_WORDS = 1 << PAGE_SHIFT

#: the valid bit in a page-map entry (the rest is the frame number)
ENTRY_VALID = 1 << 19
_FRAME_MASK = ENTRY_VALID - 1

#: set in the PM_VICTIM register value when the suggested page is dirty
#: (bit 19 is free: system pages number at most 2**16)
VICTIM_DIRTY = 1 << 19


@dataclass
class PageMapStats:
    translations: int = 0
    faults: int = 0
    victims_suggested: int = 0


class PageMap:
    """System-virtual-page -> physical-frame map with valid bits."""

    def __init__(self) -> None:
        self.entries: Dict[int, int] = {}  # page -> frame
        self.referenced: Dict[int, bool] = {}
        self.dirty: Dict[int, bool] = {}
        self.stats = PageMapStats()
        #: last faulting system virtual address; None when nothing pending
        self.pending_fault: Optional[int] = None
        #: clock hand for victim suggestion (a page number)
        self._clock_hand: int = -1

    def map_page(self, page: int, frame: int) -> None:
        self.entries[page] = frame
        self.referenced[page] = False
        self.dirty[page] = False

    def unmap_page(self, page: int) -> None:
        self.entries.pop(page, None)
        self.referenced.pop(page, None)
        self.dirty.pop(page, None)

    def entry_value(self, page: int) -> int:
        """The PM_ENTRY register view of a page's entry."""
        if page in self.entries:
            return self.entries[page] | ENTRY_VALID
        return 0

    def set_entry_value(self, page: int, value: int) -> None:
        if value & ENTRY_VALID:
            self.map_page(page, value & _FRAME_MASK)
        else:
            self.unmap_page(page)

    def translate(self, sysva: int, is_write: bool = False) -> int:
        """System virtual word address -> physical word address."""
        page, offset = sysva >> PAGE_SHIFT, sysva & (PAGE_WORDS - 1)
        frame = self.entries.get(page)
        if frame is None:
            self.stats.faults += 1
            self.pending_fault = sysva
            raise PageFault(sysva, is_write=is_write)
        self.stats.translations += 1
        self.referenced[page] = True
        if is_write:
            self.dirty[page] = True
        return (frame << PAGE_SHIFT) | offset

    def suggest_victim(self) -> int:
        """The PM_VICTIM register: a page to evict, clock-chosen.

        Second-chance over the mapped pages in page-number order:
        referenced pages get their bit cleared and are skipped once.
        The value is ``page | VICTIM_DIRTY`` when the page has been
        written since it was mapped (the kernel must write it back).
        All-ones when nothing is mapped.
        """
        pages = sorted(self.entries)
        if not pages:
            return 0xFFFFFFFF
        # start scanning after the hand, cyclically
        start = 0
        for i, page in enumerate(pages):
            if page > self._clock_hand:
                start = i
                break
        order = pages[start:] + pages[:start]
        for _sweep in range(2):
            for page in order:
                if self.referenced.get(page, False):
                    self.referenced[page] = False
                    continue
                self._clock_hand = page
                self.stats.victims_suggested += 1
                if self.dirty.get(page, False):
                    return page | VICTIM_DIRTY
                return page
        # everything referenced twice over (cannot happen after the
        # clearing sweep, but stay total): take the first
        page = order[0]
        self._clock_hand = page
        self.stats.victims_suggested += 1
        return page | (VICTIM_DIRTY if self.dirty.get(page, False) else 0)

    def take_pending_fault(self) -> int:
        """The PM_FAULT register: last fault address, cleared on read.

        Returns all-ones when no translation fault is pending -- which
        is how the kernel distinguishes a map miss (demand-page it) from
        an on-chip segmentation violation (kill the process).
        """
        if self.pending_fault is None:
            return 0xFFFFFFFF
        fault, self.pending_fault = self.pending_fault, None
        return fault


class MappedMemory:
    """The CPU's memory port: page map in front of physical memory.

    ``mapped`` accesses travel through the page map; physical
    (supervisor, mapping-off) accesses go straight through, with the
    device bus -- when attached -- claiming its address window.
    """

    def __init__(self, physical: PhysicalMemory, pagemap: Optional[PageMap] = None):
        self.physical = physical
        self.pagemap = pagemap if pagemap is not None else PageMap()
        #: optional device bus for memory-mapped I/O (physical accesses)
        self.devices = None  # type: Optional["DeviceBus"]  # noqa: F821

    def read(
        self, addr: int, *, supervisor: bool = True, fetch: bool = False, mapped: bool = False
    ) -> int:
        if mapped:
            addr = self.pagemap.translate(addr, is_write=False)
        elif self.devices is not None and self.devices.claims(addr):
            return self.devices.read(addr, supervisor=supervisor)
        return self.physical.read(addr, supervisor=supervisor, fetch=fetch)

    def write(
        self, addr: int, value: int, *, supervisor: bool = True, mapped: bool = False
    ) -> None:
        if mapped:
            addr = self.pagemap.translate(addr, is_write=True)
        elif self.devices is not None and self.devices.claims(addr):
            self.devices.write(addr, value, supervisor=supervisor)
            return
        self.physical.write(addr, value, supervisor=supervisor)
