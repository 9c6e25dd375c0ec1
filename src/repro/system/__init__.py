"""The systems layer: paging, devices, the kernel, free-cycle DMA."""

from ..sim.surprise import SurpriseRegister  # re-export: architecturally here
from .devices import (
    Console,
    DeviceBus,
    Disk,
    InterruptController,
    MachineHalt,
)
from .dma import DmaTransfer, FreeCycleDma, run_with_dma
from .kernel import (
    Kernel,
    MAX_PROCESSES,
    Process,
    SEG_MASK_BITS,
    SYS_EXIT,
    SYS_READ_INT,
    SYS_WRITE_CHAR,
    SYS_WRITE_INT,
    SYS_YIELD,
    build_kernel_program,
)
from .mapping import (
    ENTRY_VALID,
    MappedMemory,
    PAGE_SHIFT,
    PAGE_WORDS,
    PageMap,
    PageMapStats,
)

__all__ = [
    "Console",
    "DeviceBus",
    "Disk",
    "DmaTransfer",
    "ENTRY_VALID",
    "FreeCycleDma",
    "InterruptController",
    "Kernel",
    "MAX_PROCESSES",
    "MachineHalt",
    "MappedMemory",
    "PAGE_SHIFT",
    "PAGE_WORDS",
    "PageMap",
    "PageMapStats",
    "Process",
    "SEG_MASK_BITS",
    "SYS_EXIT",
    "SYS_READ_INT",
    "SYS_WRITE_CHAR",
    "SYS_WRITE_INT",
    "SYS_YIELD",
    "SurpriseRegister",
    "build_kernel_program",
    "run_with_dma",
]
