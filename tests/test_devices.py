"""The memory-mapped device bus."""

import pytest

from repro.isa.addressing import segment_translator
from repro.sim import BusError, Halted, PhysicalMemory, PrivilegeViolation
from repro.system.devices import (
    CONSOLE_CHAR,
    CONSOLE_IN,
    CONSOLE_INT,
    DEV_BASE,
    DEV_WORDS,
    DISK_FRAME,
    DISK_PAGE,
    DISK_STORE,
    HALT,
    INT_SOURCE,
    INT_TIMER,
    OUT_PID,
    PM_ENTRY,
    PM_FAULT,
    PM_INDEX,
    PM_VICTIM,
    Console,
    DeviceBus,
    Disk,
    InterruptController,
)
from repro.system.mapping import ENTRY_VALID, PAGE_WORDS, PageMap


@pytest.fixture
def bus():
    physical = PhysicalMemory(1 << 16)
    console = Console()
    pagemap = PageMap()
    disk = Disk(physical)
    interrupts = InterruptController()
    bus = DeviceBus(console, pagemap, disk, interrupts)
    bus._physical = physical  # for test access
    return bus


class TestConsole:
    def test_tagged_output(self, bus):
        bus.write(OUT_PID, 3)
        bus.write(CONSOLE_INT, 42)
        bus.write(OUT_PID, 5)
        bus.write(CONSOLE_INT, 0xFFFFFFFF)
        assert bus.console.outputs[3] == [42]
        assert bus.console.outputs[5] == [-1]  # signed view

    def test_char_output(self, bus):
        bus.write(CONSOLE_CHAR, ord("h"))
        bus.write(CONSOLE_CHAR, ord("i"))
        assert bus.console.text(0) == "hi"

    def test_input_queue(self, bus):
        bus.console.inputs.extend([7, 8])
        assert bus.read(CONSOLE_IN) == 7
        assert bus.read(CONSOLE_IN) == 8
        assert bus.read(CONSOLE_IN) == 0  # exhausted


class TestInterruptController:
    def test_acknowledge_order_and_clear(self, bus):
        cleared = []
        bus.interrupts.attach(lambda: cleared.append(True))
        bus.interrupts.raise_source(INT_TIMER)
        bus.interrupts.raise_source(2)
        assert bus.read(INT_SOURCE) == INT_TIMER
        assert not cleared  # another source still pending
        assert bus.read(INT_SOURCE) == 2
        assert cleared  # line dropped when the queue drained

    def test_spurious_acknowledge(self, bus):
        assert bus.read(INT_SOURCE) == 0

    def test_duplicate_sources_coalesce(self, bus):
        bus.interrupts.raise_source(INT_TIMER)
        bus.interrupts.raise_source(INT_TIMER)
        bus.read(INT_SOURCE)
        assert bus.read(INT_SOURCE) == 0


class TestPageMapRegisters:
    def test_select_and_program_entry(self, bus):
        bus.write(PM_INDEX, 9)
        bus.write(PM_ENTRY, 3 | ENTRY_VALID)
        assert bus.read(PM_ENTRY) == 3 | ENTRY_VALID
        assert bus.pagemap.translate(9 * PAGE_WORDS) == 3 * PAGE_WORDS

    def test_fault_register_protocol(self, bus):
        from repro.sim import PageFault

        with pytest.raises(PageFault):
            bus.pagemap.translate(1234)
        assert bus.read(PM_FAULT) == 1234
        assert bus.read(PM_FAULT) == 0xFFFFFFFF

    def test_victim_register(self, bus):
        bus.pagemap.map_page(4, 7)
        bus.pagemap.referenced[4] = False
        assert bus.read(PM_VICTIM) & 0xFFFF == 4


class TestDisk:
    def test_page_in_and_write_back(self, bus):
        physical = bus.disk.physical
        bus.disk.register_image(segment_translator(0, 4), {3: 99})
        bus.write(DISK_PAGE, 0)
        bus.write(DISK_FRAME, 5)
        assert physical.peek(5 * PAGE_WORDS + 3) == 99
        # modify the frame and write it back
        physical.poke(5 * PAGE_WORDS + 3, 123)
        bus.write(DISK_STORE, 5)
        bus.write(DISK_FRAME, 6)  # page it in elsewhere
        assert physical.peek(6 * PAGE_WORDS + 3) == 123

    def test_demand_zero(self, bus):
        physical = bus.disk.physical
        physical.poke(8 * PAGE_WORDS, 0xBEEF)
        bus.write(DISK_PAGE, 400)  # never registered
        bus.write(DISK_FRAME, 8)
        assert physical.peek(8 * PAGE_WORDS) == 0


class TestProtectionAndDecoding:
    def test_user_access_rejected(self, bus):
        with pytest.raises(PrivilegeViolation):
            bus.read(CONSOLE_IN, supervisor=False)
        with pytest.raises(PrivilegeViolation):
            bus.write(CONSOLE_INT, 1, supervisor=False)

    def test_halt_register(self, bus):
        with pytest.raises(Halted):
            bus.write(HALT, 0)

    def test_unmapped_register_is_bus_error(self, bus):
        with pytest.raises(BusError):
            bus.read(CONSOLE_INT)  # write-only
        with pytest.raises(BusError):
            bus.write(DEV_BASE + DEV_WORDS - 1, 0)

    def test_claims_window(self, bus):
        assert bus.claims(DEV_BASE)
        assert bus.claims(DEV_BASE + DEV_WORDS - 1)
        assert not bus.claims(DEV_BASE - 1)
        assert not bus.claims(DEV_BASE + DEV_WORDS)
