"""Memory-mapped devices on the physical bus.

The paper keeps the processor's system interfaces minimal -- a single
interrupt line, a status pin for free memory cycles, and "the exterior
mapping unit and any peripherals on the virtual address bus must be
protected from user level processes" (section 3.2).  Here the
peripherals sit in a supervisor-only physical window:

=============  ====  ==============================================
register       off   behaviour
=============  ====  ==============================================
CONSOLE_INT    +0    store: write integer (tagged with OUT_PID)
CONSOLE_CHAR   +1    store: write character
CONSOLE_IN     +2    load: next queued input integer
INT_SOURCE     +3    load: pending interrupt source id; clears the line
PM_FAULT       +4    load: last page-map fault address (all-ones: none)
PM_INDEX       +5    store: select a page-map entry
PM_ENTRY       +6    load/store: the selected entry (frame | VALID)
DISK_PAGE      +7    store: select a backing-store page
DISK_FRAME     +8    store: copy the selected page into this frame
HALT           +9    store: stop the machine (raises ``Halted``)
OUT_PID        +10   store: tag subsequent console output
=============  ====  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.faults import BusError, Halted, PrivilegeViolation
from ..sim.memory import PhysicalMemory
from .mapping import PAGE_SHIFT, PAGE_WORDS, PageMap

# the device window must be reachable with a 21-bit absolute address
DEV_BASE = 0x1FF000
DEV_WORDS = 16

CONSOLE_INT = DEV_BASE + 0
CONSOLE_CHAR = DEV_BASE + 1
CONSOLE_IN = DEV_BASE + 2
INT_SOURCE = DEV_BASE + 3
PM_FAULT = DEV_BASE + 4
PM_INDEX = DEV_BASE + 5
PM_ENTRY = DEV_BASE + 6
DISK_PAGE = DEV_BASE + 7
DISK_FRAME = DEV_BASE + 8
HALT = DEV_BASE + 9
OUT_PID = DEV_BASE + 10
#: load: a clock-chosen eviction candidate (page | VICTIM_DIRTY)
PM_VICTIM = DEV_BASE + 11
#: store: write the frame's contents back to the selected backing page
DISK_STORE = DEV_BASE + 12

#: interrupt source ids
INT_NONE = 0
INT_TIMER = 1

#: what an unregistered backing page holds (demand-zero)
_ZERO_PAGE = (0,) * PAGE_WORDS


@dataclass
class Console:
    """Per-process console output plus a shared input queue."""

    outputs: Dict[int, List[int]] = field(default_factory=dict)
    char_outputs: Dict[int, List[str]] = field(default_factory=dict)
    inputs: List[int] = field(default_factory=list)
    current_pid: int = 0

    def write_int(self, value: int) -> None:
        signed = value - (1 << 32) if value & (1 << 31) else value
        self.outputs.setdefault(self.current_pid, []).append(signed)

    def write_char(self, value: int) -> None:
        self.char_outputs.setdefault(self.current_pid, []).append(chr(value & 0xFF))

    def read_int(self) -> int:
        return (self.inputs.pop(0) & 0xFFFFFFFF) if self.inputs else 0

    def text(self, pid: int) -> str:
        return "".join(self.char_outputs.get(pid, []))


class Disk:
    """The backing store: page images copied into frames by 'DMA'.

    Pages are keyed by *system* virtual page number (PID already folded
    in).  Unregistered pages read as zero -- demand-zero allocation.
    """

    def __init__(self, physical: PhysicalMemory):
        self.physical = physical
        self.pages: Dict[int, List[int]] = {}
        self.copies = 0
        self.writebacks = 0
        self._selected_page = 0

    def register_image(self, translate: Callable[[int], Optional[int]],
                       image: Dict[int, int]) -> None:
        """Scatter a program image (va -> word) into backing pages, each
        word where the process's segment ``translate`` places it; a word
        in the hole, or past 32 bits, raises :class:`ValueError`."""
        pages = self.pages
        for addr, value in image.items():
            sysva = None if addr >> 32 else translate(addr)
            if sysva is None:
                raise ValueError(f"image word at {addr:#x} is outside the process's segment")
            page = sysva >> PAGE_SHIFT
            content = pages.get(page)
            if content is None:
                content = pages[page] = [0] * PAGE_WORDS
            content[sysva & (PAGE_WORDS - 1)] = value

    def select(self, page: int) -> None:
        self._selected_page = page

    def copy_to_frame(self, frame: int) -> None:
        """Copy the selected backing page into a frame, one block write."""
        content = self.pages.get(self._selected_page, _ZERO_PAGE)
        self.physical.poke_block(frame << PAGE_SHIFT, content)
        self.copies += 1

    def store_from_frame(self, frame: int) -> None:
        """Write a frame back to the selected backing page (eviction)."""
        self.pages[self._selected_page] = self.physical.peek_block(
            frame << PAGE_SHIFT, PAGE_WORDS
        )
        self.writebacks += 1


class InterruptController:
    """The external prioritization logic the kernel queries (section 3.3)."""

    def __init__(self) -> None:
        self.pending: List[int] = []
        self._clear_line: Optional[Callable[[], None]] = None

    def attach(self, clear_line: Callable[[], None]) -> None:
        self._clear_line = clear_line

    def raise_source(self, source: int) -> None:
        if source not in self.pending:
            self.pending.append(source)

    def acknowledge(self) -> int:
        source = self.pending.pop(0) if self.pending else INT_NONE
        if not self.pending and self._clear_line is not None:
            self._clear_line()
        return source


class DeviceBus:
    """Routes physical accesses in the device window."""

    def __init__(self, console: Console, pagemap: PageMap, disk: Disk,
                 interrupts: InterruptController):
        self.console = console
        self.pagemap = pagemap
        self.disk = disk
        self.interrupts = interrupts
        self._pm_index = 0

    def claims(self, addr: int) -> bool:
        return DEV_BASE <= addr < DEV_BASE + DEV_WORDS

    def read(self, addr: int, *, supervisor: bool = True) -> int:
        if not supervisor:
            raise PrivilegeViolation("user access to device window")
        if addr == CONSOLE_IN:
            return self.console.read_int()
        if addr == INT_SOURCE:
            return self.interrupts.acknowledge()
        if addr == PM_FAULT:
            return self.pagemap.take_pending_fault()
        if addr == PM_ENTRY:
            return self.pagemap.entry_value(self._pm_index)
        if addr == PM_VICTIM:
            return self.pagemap.suggest_victim()
        raise BusError(addr)

    def write(self, addr: int, value: int, *, supervisor: bool = True) -> None:
        if not supervisor:
            raise PrivilegeViolation("user access to device window")
        if addr == CONSOLE_INT:
            self.console.write_int(value)
        elif addr == CONSOLE_CHAR:
            self.console.write_char(value)
        elif addr == OUT_PID:
            self.console.current_pid = value
        elif addr == PM_INDEX:
            self._pm_index = value
        elif addr == PM_ENTRY:
            self.pagemap.set_entry_value(self._pm_index, value)
        elif addr == DISK_PAGE:
            self.disk.select(value)
        elif addr == DISK_FRAME:
            self.disk.copy_to_frame(value)
        elif addr == DISK_STORE:
            self.disk.store_from_frame(value)
        elif addr == HALT:
            raise Halted()
        else:
            raise BusError(addr)
