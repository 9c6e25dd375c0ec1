#!/usr/bin/env python3
"""The mini operating system: demand paging, preemption, monitor calls.

Boots the assembly kernel of :mod:`repro.system.kernel` -- the paper's
dispatch routine at physical address zero, the surprise register, the
on-chip segmentation plus off-chip page map -- and runs three user
processes under a preemptive round-robin scheduler.

    python examples/os_demand_paging.py
"""

from repro.compiler import compile_source
from repro.isa.addressing import segment_translator
from repro.system import Kernel, PAGE_WORDS, SEG_MASK_BITS, build_kernel_program
from repro.workloads import CORPUS, EXPECTED_OUTPUT


def main() -> None:
    rom = build_kernel_program()
    print(f"kernel ROM: {rom.code_size} instruction words at physical 0")
    print(f"page size: {PAGE_WORDS} words\n")

    kernel = Kernel(quantum=2500)
    names = ["fib_iterative", "sieve", "strings"]
    for name in names:
        process = kernel.add_process(compile_source(CORPUS[name]).program)
        base = segment_translator(process.pid, SEG_MASK_BITS)(0)
        print(f"  pid {process.pid}: {name} (segment at system VA {base:#x})")

    print("\nbooting...")
    kernel.run()

    print("\nper-process console output:")
    for pid, name in enumerate(names):
        output = kernel.output(pid)
        ok = "ok" if output == EXPECTED_OUTPUT[name] else "WRONG"
        print(f"  pid {pid} ({name:14s}): {output}  [{ok}]")

    print("\nsystem activity:")
    print(f"  page faults serviced:   {kernel.pagemap.stats.faults}")
    print(f"  disk page-ins:          {kernel.disk.copies}")
    print(f"  translations performed: {kernel.pagemap.stats.translations}")
    print(f"  exceptions taken:       {kernel.cpu.stats.exceptions}")
    print(f"  mapped pages now valid: {len(kernel.pagemap.entries)}")
    print(
        "\nnote: context switches never touched the page map -- the on-chip\n"
        "segmentation (PID insertion) keeps every process's entries live\n"
        "simultaneously, exactly as the paper argues (section 3.2)."
    )
    show_replacement()


def show_replacement() -> None:
    """The same machinery under memory pressure: clock replacement."""
    sweep = """
    program sweep;
    const n = 1500;
    var a: array [0..1499] of integer;
        i, checksum: integer;
    begin
      for i := 0 to n - 1 do a[i] := i;
      checksum := 0;
      for i := 0 to n - 1 do checksum := checksum + a[i];
      writeln(checksum)
    end.
    """
    print("\nmemory pressure (a 6-page array pushed through tiny frame pools):")
    for frames in (4, 8, 32):
        kernel = Kernel(max_frames=frames)
        kernel.add_process(compile_source(sweep).program)
        kernel.run(300_000_000)
        assert kernel.output(0) == [sum(range(1500))]
        stats = kernel.pagemap.stats
        print(
            f"  {frames:3d} frames: {stats.faults:4d} faults, "
            f"{stats.victims_suggested:4d} clock evictions, "
            f"{kernel.disk.writebacks:4d} dirty write-backs  "
            f"[output still correct]"
        )


if __name__ == "__main__":
    main()
