"""Word-addressed memory and the memory-system interface.

Memory names 32-bit *words*: "the issue of word-based versus byte-based
addressing" (paper section 4.1) is settled in favour of word addressing;
bytes exist only inside words, reached via the insert/extract
instructions.

Two layers:

- :class:`PhysicalMemory` -- the installed RAM/ROM, a bounds-checked
  word store with access statistics.  The machine has a dual
  instruction/data interface (section 3.2), so instruction fetches are
  counted separately from data traffic.
- the :class:`MemorySystem` protocol -- what the CPU talks to.  The bare
  physical memory satisfies it directly; the systems layer wraps it with
  the off-chip page map (:mod:`repro.system.mapping`), which may raise
  :class:`~repro.sim.faults.PageFault`.  The ``mapped`` flag tells the
  wrapper whether the CPU presented a system virtual address (to be
  translated) or a physical one (kernel mode, mapping off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence

from ..isa.bits import WORD_MASK, u32
from .faults import BusError


class MemorySystem(Protocol):
    """What the CPU requires of its memory port."""

    def read(
        self, addr: int, *, supervisor: bool = True, fetch: bool = False, mapped: bool = False
    ) -> int:
        """Read the word at ``addr``; may raise a fault."""
        ...

    def write(
        self, addr: int, value: int, *, supervisor: bool = True, mapped: bool = False
    ) -> None:
        """Write the word at ``addr``; may raise a fault."""
        ...


@dataclass
class MemoryStats:
    """Access counters kept by the physical memory (dual-port model)."""

    reads: int = 0
    writes: int = 0
    fetches: int = 0

    @property
    def data_total(self) -> int:
        """Data-port traffic (loads + stores)."""
        return self.reads + self.writes


class PhysicalMemory:
    """Sparse bounds-checked word memory.

    ``size`` bounds the physical address space; addresses outside it
    raise :class:`BusError`.  Unwritten words read as zero, as real
    memory arrays power up *somewhere* and our tests deserve
    determinism.
    """

    def __init__(self, size: int = 1 << 22):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self._words: Dict[int, int] = {}
        self.stats = MemoryStats()
        #: optional observer called with the address after any write or
        #: poke -- the fast-path engine uses it to invalidate compiled
        #: handlers when code is overwritten (DMA, loaders, stores)
        self.watch_hook = None

    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.size:
            raise BusError(addr)

    def read(
        self, addr: int, *, supervisor: bool = True, fetch: bool = False, mapped: bool = False
    ) -> int:
        self._check(addr)
        if fetch:
            self.stats.fetches += 1
        else:
            self.stats.reads += 1
        return self._words.get(addr, 0)

    def write(
        self, addr: int, value: int, *, supervisor: bool = True, mapped: bool = False
    ) -> None:
        self._check(addr)
        self.stats.writes += 1
        self._words[addr] = u32(value)
        if self.watch_hook is not None:
            self.watch_hook(addr)

    # -- debugging / loading conveniences (not architectural accesses) -----

    def peek(self, addr: int) -> int:
        """Read without counting as a memory cycle (for tests/loaders)."""
        self._check(addr)
        return self._words.get(addr, 0)

    def poke(self, addr: int, value: int) -> None:
        """Write without counting as a memory cycle (for tests/loaders)."""
        self._check(addr)
        self._words[addr] = u32(value)
        if self.watch_hook is not None:
            self.watch_hook(addr)

    def peek_block(self, base: int, count: int) -> List[int]:
        """``count`` consecutive words from ``base``, as that many peeks
        would read them; both ends are checked first."""
        if count > 0:
            self._check(base)
            self._check(base + count - 1)
        get = self._words.get
        return [get(addr, 0) for addr in range(base, base + count)]

    def poke_block(self, base: int, values: Sequence[int]) -> None:
        """Write ``values`` to consecutive words from ``base``, as that
        many pokes would (u32 images, the watch hook told of every
        address), but with both ends checked before any word is written
        -- the page DMA's one bus transfer."""
        count = len(values)
        if count > 0:
            self._check(base)
            self._check(base + count - 1)
        addresses = range(base, base + count)
        self._words.update(zip(addresses, [value & WORD_MASK for value in values]))
        hook = self.watch_hook
        if hook is not None:
            for addr in addresses:
                hook(addr)

    def load_image(self, image: Dict[int, int], base: int = 0) -> None:
        """Install a program image (address -> word) at ``base``."""
        for addr, value in image.items():
            self.poke(base + addr, value)

    def __len__(self) -> int:
        return self.size
