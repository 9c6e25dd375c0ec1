"""Command-line entry points.

========================  ===================================================
``mips-asm file.s``       assemble and list a program
``mips-sim file.s``       assemble and run (bare metal, trap I/O)
``mips-reorg file.s``     reorganize a piece stream at every level
``mipsc file.pas``        compile mini-Pascal and run it
``mips-experiments``      run the paper's tables and figures (``--jobs N``)
``mips-farm``             batch simulation service: ``run`` / ``status``
``mips-chaos``            fault-injection campaigns: ``run`` / ``list``
``mips-prof``             guest profiles and the deterministic gates
========================  ===================================================
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

#: exit code for an unusable invocation (e.g. an unknown --lang)
EXIT_USAGE = 2
#: exit code when a guest program exhausts its --max-steps budget
EXIT_STEP_BUDGET = 3
#: exit code for an unrecoverable guest fault or a double-fault panic
EXIT_PANIC = 4


def _check_lang(lang: str, supported) -> int:
    """Validate a ``--lang`` value: 0 if supported, else a structured
    stderr record and :data:`EXIT_USAGE` (never a traceback)."""
    if lang in supported:
        return 0
    record = {
        "error": "unknown-lang",
        "lang": lang,
        "supported": sorted(supported),
    }
    print(f"error: unknown --lang {lang!r}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return EXIT_USAGE


def _compile_for_lang(lang: str, source: str, options, opt_level=None):
    """Front-end dispatch shared by ``mipsc`` and ``mips-sim``."""
    if lang == "minijava":
        from .mjlang import compile_minijava

        if opt_level is None:
            return compile_minijava(source, options)
        return compile_minijava(source, options, opt_level)
    from .compiler import compile_source

    if opt_level is None:
        return compile_source(source, options)
    return compile_source(source, options, opt_level)


def _report_guest_failure(machine, exc) -> int:
    """Print a structured PANIC/FAULT record for a dead guest.

    A :class:`~repro.sim.faults.KernelPanic` (double fault) carries both
    surprise cause fields and the three saved return addresses; a plain
    machine fault reports its cause pair and the would-be return
    addresses.  Either way: one structured stderr record and a clean
    nonzero exit instead of a Python traceback.
    """
    from .sim import KernelPanic

    if isinstance(exc, KernelPanic):
        print(f"PANIC: {exc}", file=sys.stderr)
        print(json.dumps(exc.record(), sort_keys=True), file=sys.stderr)
        return EXIT_PANIC
    record = {
        "fault": type(exc).__name__,
        "cause": exc.cause.name,
        "minor": exc.minor,
        "pc": machine.cpu.pc,
        "xra": machine.cpu.upcoming_pcs(3),
    }
    print(f"FAULT: {exc} at pc={machine.cpu.pc}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return EXIT_PANIC


def asm_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="MIPS assembler")
    parser.add_argument("source", help="assembly source file")
    args = parser.parse_args(argv)
    from .asm import assemble

    with open(args.source) as handle:
        program = assemble(handle.read())
    print(program.disassemble())
    print(f"; {program.code_size} instruction words, entry {program.entry}")
    return 0


def sim_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="MIPS simulator (bare metal)")
    parser.add_argument("source", help="assembly source file")
    parser.add_argument("--mode", choices=["bare", "checked", "interlocked"], default="bare")
    parser.add_argument(
        "--max-steps",
        type=int,
        default=5_000_000,
        help="step budget: a program still running after this many steps "
        "is reported as runaway instead of hanging the process "
        "(default 5,000,000; the farm's per-job guard uses the same limit)",
    )
    parser.add_argument("--input", type=int, action="append", default=[])
    parser.add_argument(
        "--lang",
        default="asm",
        help="source language: asm (default), pascal, or minijava "
        "(high-level sources are compiled at branch-delay level first)",
    )
    args = parser.parse_args(argv)
    bad_lang = _check_lang(args.lang, ("asm", "pascal", "minijava"))
    if bad_lang:
        return bad_lang
    from .sim import HazardMode, KernelPanic, Machine, MachineFault

    with open(args.source) as handle:
        source = handle.read()
    if args.lang == "asm":
        from .asm import assemble

        program = assemble(source)
    else:
        from .compiler import CompileOptions

        program = _compile_for_lang(args.lang, source, CompileOptions()).program
    machine = Machine(
        program,
        hazard_mode=HazardMode(args.mode),
        inputs=args.input,
    )
    try:
        stats = machine.run(args.max_steps)
    except (MachineFault, KernelPanic) as exc:
        return _report_guest_failure(machine, exc)
    except TimeoutError:
        print(
            f"error: program did not halt within {args.max_steps} steps "
            f"(pc={machine.cpu.pc}, {machine.stats.cycles} cycles executed); "
            "raise --max-steps if this is expected",
            file=sys.stderr,
        )
        return EXIT_STEP_BUDGET
    for value in machine.output:
        print(value)
    if machine.output_text:
        print(machine.output_text, end="")
    print(
        f"; {stats.words} words, {stats.cycles} cycles, "
        f"{stats.free_cycle_fraction:.0%} free memory cycles",
        file=sys.stderr,
    )
    return 0


def reorg_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="postpass reorganizer")
    parser.add_argument("source", help="assembly source file (pieces + labels only)")
    parser.add_argument(
        "--level",
        choices=["none", "reorganize", "pack", "branch-delay"],
        default="branch-delay",
    )
    args = parser.parse_args(argv)
    from .asm import assemble_pieces
    from .reorg import ALL_LEVELS, reorganize

    with open(args.source) as handle:
        stream = assemble_pieces(handle.read())
    results = {level.value: reorganize(stream, level) for level in ALL_LEVELS}
    for value, result in results.items():
        marker = " *" if value == args.level else ""
        print(f"; {value}: {result.static_count} words{marker}")
    print(results[args.level].listing())
    return 0


def compile_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="mini-Pascal / MiniJava compiler + simulator"
    )
    parser.add_argument("source", help="source file (mini-Pascal or MiniJava)")
    parser.add_argument(
        "--lang",
        default="pascal",
        help="source language: pascal (default) or minijava",
    )
    parser.add_argument("--layout", choices=["word", "byte"], default="word")
    parser.add_argument("--no-run", action="store_true", help="only list the code")
    parser.add_argument(
        "--max-steps",
        type=int,
        default=30_000_000,
        help="step budget: a program still running after this many steps "
        "is reported as runaway instead of hanging the process "
        "(default 30,000,000; the farm's per-job guard uses the same limit)",
    )
    parser.add_argument("--input", type=int, action="append", default=[])
    args = parser.parse_args(argv)
    bad_lang = _check_lang(args.lang, ("pascal", "minijava"))
    if bad_lang:
        return bad_lang
    from .compiler import CompileOptions, LayoutStrategy
    from .sim import KernelPanic, Machine, MachineFault

    with open(args.source) as handle:
        compiled = _compile_for_lang(
            args.lang,
            handle.read(),
            CompileOptions(layout=LayoutStrategy(args.layout)),
        )
    if args.no_run:
        print(compiled.reorg.listing())
        return 0
    machine = Machine(compiled.program, inputs=args.input)
    try:
        stats = machine.run(args.max_steps)
    except (MachineFault, KernelPanic) as exc:
        return _report_guest_failure(machine, exc)
    except TimeoutError:
        print(
            f"error: program did not halt within {args.max_steps} steps "
            f"(pc={machine.cpu.pc}, {machine.stats.cycles} cycles executed); "
            "raise --max-steps if this is expected",
            file=sys.stderr,
        )
        return EXIT_STEP_BUDGET
    for value in machine.output:
        print(value)
    if machine.output_text:
        print(machine.output_text, end="")
    print(
        f"; static {compiled.static_count} words, ran {stats.words} words "
        f"in {stats.cycles} cycles",
        file=sys.stderr,
    )
    return 0


def experiments_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reproduce the paper's evaluation")
    parser.add_argument(
        "names",
        nargs="*",
        help="experiments to run (default: all); e.g. table11 figure1",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="farm worker processes (default 1: in-process serial execution; "
        "output is identical at any value)",
    )
    parser.add_argument(
        "--results",
        metavar="FILE",
        help="also stream per-experiment result records to a JSON-lines file",
    )
    args = parser.parse_args(argv)
    from .experiments import REGISTRY, run_named
    from .farm import ResultStore

    names = args.names or list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} (have: {', '.join(REGISTRY)})")
    store = ResultStore(args.results) if args.results else None
    try:
        results = run_named(names, jobs=args.jobs, store=store)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if store is not None:
            store.close()
    for result in results:
        print(result.render())
        print()
    return 0


def _add_batch_options(parser) -> None:
    """Job-selection flags for ``mips-farm run``."""
    from .farm.worker import ENGINES

    parser.add_argument(
        "--workload",
        action="append",
        default=[],
        metavar="NAME",
        help="corpus program to simulate (repeatable; default: the quick corpus)",
    )
    parser.add_argument(
        "--experiment",
        action="append",
        default=[],
        metavar="NAME",
        help="paper experiment to run as a job (repeatable)",
    )
    parser.add_argument(
        "--mode", choices=["bare", "checked", "interlocked"], default="bare"
    )
    parser.add_argument(
        "--opt",
        choices=["none", "reorganize", "pack", "branch-delay"],
        default="branch-delay",
        help="postpass optimization level for compiled workloads",
    )
    parser.add_argument(
        "--no-regalloc",
        action="store_true",
        help="compile without register allocation (era-compiler mode)",
    )
    parser.add_argument("--max-steps", type=int, default=30_000_000)
    parser.add_argument(
        "--sim-engine",
        choices=ENGINES,
        default="fast",
        dest="sim_engine",
        help="simulation engine for workload jobs (results are identical)",
    )


def _batch_jobs(args, parser):
    """The canonical job list for a batch-selection argument set."""
    from .experiments import REGISTRY
    from .farm.job import experiment_jobs, workload_jobs
    from .workloads import CORPUS, MINIJAVA_CORPUS, QUICK_PROGRAMS

    workloads = args.workload or (list(QUICK_PROGRAMS) if not args.experiment else [])
    bad = [n for n in workloads if n not in CORPUS and n not in MINIJAVA_CORPUS]
    bad += [n for n in args.experiment if n not in REGISTRY]
    if bad:
        parser.error(f"unknown workloads/experiments: {', '.join(bad)}")
    return list(
        workload_jobs(
            workloads,
            hazard_mode=args.mode,
            opt_level=args.opt,
            max_steps=args.max_steps,
            register_allocation=not args.no_regalloc,
            engine=args.sim_engine,
        )
    ) + list(experiment_jobs(args.experiment))


def _write_stable_results(path: str, records) -> None:
    """Stable-view JSONL in submission order -- deterministic at any --jobs.

    These are the bytes CI ``cmp``s between a serial and a sharded run.
    """
    from .farm.store import stable_view

    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(stable_view(record), sort_keys=True) + "\n")


def farm_main(argv=None) -> int:
    """``mips-farm``: batch workload execution over the simulation farm."""
    parser = argparse.ArgumentParser(
        description="sharded, fault-tolerant batch simulation service"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a batch of simulation jobs")
    _add_batch_options(run_p)
    run_p.add_argument("--jobs", type=int, default=1, metavar="N", help="worker processes")
    run_p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS", help="per-job wall budget"
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts after a transient failure (default 2)",
    )
    run_p.add_argument(
        "--results", metavar="FILE", help="stream result records to a JSON-lines file"
    )
    run_p.add_argument(
        "--stable-results",
        metavar="FILE",
        help="write stable-view JSONL in submission order (deterministic bytes "
        "at any --jobs)",
    )

    status_p = sub.add_parser("status", help="summarize a results file")
    status_p.add_argument("results", help="JSON-lines file written by `mips-farm run`")

    args = parser.parse_args(argv)
    from .farm import ResultStore, Scheduler, aggregate, render_summary

    if args.command == "status":
        records = ResultStore.load(args.results)
        summary = aggregate(records)
        print(render_summary(summary))
        return 0 if not summary["failures"] and not summary["duplicates"] else 1

    job_list = _batch_jobs(args, parser)

    kwargs = {}
    if args.timeout is not None:
        kwargs["timeout_s"] = args.timeout
    if args.retries is not None:
        kwargs["max_attempts"] = 1 + args.retries

    store = ResultStore(args.results) if args.results else None
    try:
        report = Scheduler(jobs=args.jobs, store=store, **kwargs).run_report(job_list)
    finally:
        if store is not None:
            store.close()
    if args.stable_results:
        _write_stable_results(args.stable_results, report.records)
    for record in report.records:
        status = record["status"]
        line = f"{record['name']:24s} {status:8s} attempt(s)={record['attempts']}"
        if record["stats"]:
            line += f" cycles={record['cycles']} words={record['words']}"
        if record["error"]:
            line += f"  {record['error'].get('type', '')}: {record['error'].get('message', '')}"
        print(line)
    summary = aggregate(report.records)
    mode = "serial (in-process)" if report.degraded_serial else f"{args.jobs} workers"
    print()
    print(
        f"farm: {report.submitted} jobs via {mode}, "
        f"{report.retries} retries, {report.crashes} crashes, "
        f"{report.timeouts} timeouts, {report.wall_s:.2f}s wall"
    )
    print(render_summary(summary))
    return 0 if summary["by_status"].get("ok", 0) == summary["jobs"] else 1


def chaos_main(argv=None) -> int:
    """``mips-chaos``: seeded fault-injection campaigns with verification."""
    from .farm.worker import ENGINES

    parser = argparse.ArgumentParser(
        description="deterministic fault injection with recovery verification"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run chaos campaigns from a seed")
    run_p.add_argument("--seed", type=int, required=True, help="plan seed (reproducible)")
    run_p.add_argument(
        "--campaign",
        action="append",
        default=[],
        metavar="NAME",
        help="campaign to run (repeatable; default: all shipped campaigns)",
    )
    run_p.add_argument(
        "--engine",
        choices=[*ENGINES, "both"],
        default="both",
        help="execution engine(s); 'both' runs fast+precise and checks the "
        "pairwise differential",
    )
    run_p.add_argument(
        "--results", metavar="FILE", help="stream result records to a JSON-lines file"
    )
    run_p.add_argument(
        "--shrink",
        action="store_true",
        help="on violation, minimize the plan to its shortest failing prefix",
    )

    sub.add_parser("list", help="list the shipped campaigns")

    args = parser.parse_args(argv)
    from .chaos import CAMPAIGNS, campaign_record, run_campaign
    from .farm import ResultStore, aggregate

    if args.command == "list":
        for name in sorted(CAMPAIGNS):
            print(f"{name:16s} {CAMPAIGNS[name].description}")
        return 0

    names = args.campaign or sorted(CAMPAIGNS)
    unknown = [n for n in names if n not in CAMPAIGNS]
    if unknown:
        parser.error(
            f"unknown campaigns: {', '.join(unknown)} (have: {', '.join(sorted(CAMPAIGNS))})"
        )
    engines = ENGINES if args.engine == "both" else (args.engine,)

    store = ResultStore(args.results) if args.results else None
    failed = 0
    try:
        for name in names:
            summary = run_campaign(name, seed=args.seed, engines=engines)
            if store is not None:
                store.append(campaign_record(summary))
            violations = summary["violations"]
            outcome = summary["engines"][sorted(summary["engines"])[0]]["outcome"]
            print(
                f"{name:16s} seed={args.seed} injections={len(summary['plan']['injections'])} "
                f"outcome={outcome} violations={len(violations)} digest={summary['digest']}"
            )
            for violation in violations:
                print(
                    f"  VIOLATION [{violation['engine']}] {violation['check']} "
                    f"at step {violation['step']}: {violation['detail']}",
                    file=sys.stderr,
                )
            if violations:
                failed += 1
                if args.shrink:
                    _shrink_and_report(name, args.seed, engines)
    finally:
        if store is not None:
            store.close()
    if store is not None:
        summary = aggregate(ResultStore.load(args.results))
        print(f"aggregate digest: {summary['digest']}")
    return 1 if failed else 0


def prof_main(argv=None) -> int:
    """``mips-prof``: deterministic guest profiling and the two blocking gates,
    the cycle-count gate (``cycles``) and the paper-claims check (``claims``).

    Every byte this command prints derives from architectural state, so
    output is identical across engines, across ``--jobs N``, and across
    repeated runs -- diff two invocations to prove a change is
    cycle-neutral.
    """
    from .farm.worker import ENGINES

    parser = argparse.ArgumentParser(
        description="per-PC guest profiler with hardware-style counters"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="profile one program")
    run_p.add_argument(
        "target", help="assembly source file, or a corpus workload name"
    )
    run_p.add_argument("--top", type=int, default=20, metavar="N", help="hot words to show")
    run_p.add_argument(
        "--format",
        choices=["text", "json", "collapsed"],
        default="text",
        help="text report, canonical JSON, or flamegraph-collapsed stacks",
    )
    run_p.add_argument(
        "--engine",
        choices=ENGINES,
        default="fast",
        help="execution engine (output is identical whichever runs)",
    )
    run_p.add_argument("--mode", choices=["bare", "checked", "interlocked"], default="bare")
    run_p.add_argument("--max-steps", type=int, default=30_000_000)
    run_p.add_argument("--input", type=int, action="append", default=[])

    corpus_p = sub.add_parser(
        "corpus", help="profile the quick corpus through the farm (JSONL out)"
    )
    corpus_p.add_argument("--jobs", type=int, default=1, metavar="N", help="worker processes")
    corpus_p.add_argument("--top", type=int, default=20, metavar="N")
    corpus_p.add_argument(
        "--results", metavar="FILE", help="also stream full farm records to a JSONL file"
    )
    corpus_p.add_argument(
        "--engine",
        choices=ENGINES,
        default="fast",
        help="execution engine for every corpus job (profiles are identical "
        "whichever runs -- CI diffs them to prove it)",
    )

    claims_p = sub.add_parser(
        "claims", help="validate live counters against the paper's bands"
    )
    claims_p.add_argument("--jobs", type=int, default=1, metavar="N")

    for name, help_text in (
        ("cycles", "gate corpus cycle counters against ./PERF_BASELINE.json"),
        ("update-baseline", "rewrite ./PERF_BASELINE.json from a fresh collection"),
    ):
        gate_p = sub.add_parser(name, help=help_text)
        gate_p.add_argument("--jobs", type=int, default=1, metavar="N")

    args = parser.parse_args(argv)

    if args.command == "run":
        return _prof_run(args)
    if args.command in ("cycles", "update-baseline"):
        return _prof_cycles(args)

    from .farm import ResultStore, Scheduler
    from .farm.job import profile_jobs
    from .perf import merge_groups, render_json, validate
    from .perf.claims import render as render_claims
    from .workloads import MINIJAVA_PROGRAMS, QUICK_PROGRAMS

    store = ResultStore(getattr(args, "results", None)) if args.command == "corpus" else None
    try:
        records = Scheduler(jobs=args.jobs, store=store).run(
            profile_jobs(
                list(QUICK_PROGRAMS) + list(MINIJAVA_PROGRAMS),
                top=getattr(args, "top", None),
                engine=getattr(args, "engine", "fast"),
            )
        )
    finally:
        if store is not None:
            store.close()
    failed = [r["name"] for r in records if r["status"] != "ok"]
    if failed:
        print(f"error: workloads failed: {', '.join(sorted(failed))}", file=sys.stderr)
        return 1
    profiles = sorted(
        (record["extra"]["profile"] for record in records), key=lambda p: p["name"]
    )

    if args.command == "corpus":
        for profile in profiles:
            print(render_json(profile))
        return 0

    merged = merge_groups([profile["counters"] for profile in profiles])
    results = validate(merged)
    print(render_claims(results), end="")
    return 0 if all(result.ok for result in results) else 1


def _prof_cycles(args) -> int:
    import os

    from .perf import baseline as perf_baseline

    path = perf_baseline.BASELINE_FILE
    if args.command == "cycles" and not os.path.exists(path):
        print(f"error: no cycle baseline at {os.path.abspath(path)}", file=sys.stderr)
        return EXIT_USAGE
    current = perf_baseline.collect_cycles(jobs=args.jobs)
    if args.command == "update-baseline":
        perf_baseline.write_baseline(path, current)
        print(f"wrote {path}")
        for name, counters in current.items():
            print(f"  {name}: {counters['cycles']} cycles")
        return 0
    for name, counters in current.items():
        print(f"  {name}: {counters['cycles']} cycles, {counters['load_stalls']} stalls")
    baseline = perf_baseline.load_baseline(path)
    threshold = baseline.get("threshold", perf_baseline.DEFAULT_THRESHOLD)
    regressions = perf_baseline.compare(baseline, current, threshold)
    print(perf_baseline.render_gate(regressions, threshold), end="")
    return 1 if regressions else 0


def _prof_run(args) -> int:
    import os

    from .perf import Profiler, build_profile, render_collapsed, render_json, render_text
    from .sim import HazardMode, KernelPanic, Machine, MachineFault

    if os.path.exists(args.target):
        from .asm import assemble

        with open(args.target) as handle:
            program = assemble(handle.read())
        name = os.path.basename(args.target)
    else:
        from .compiler.codegen_mips import CompileOptions
        from .compiler.driver import compile_source
        from .mjlang import compile_minijava
        from .workloads import CORPUS, MINIJAVA_CORPUS

        if args.target in MINIJAVA_CORPUS:
            program = compile_minijava(
                MINIJAVA_CORPUS[args.target], CompileOptions()
            ).program
        elif args.target in CORPUS:
            program = compile_source(CORPUS[args.target], CompileOptions()).program
        else:
            print(
                f"error: {args.target!r} is neither a file nor a corpus workload",
                file=sys.stderr,
            )
            return 2
        name = args.target

    machine = Machine(program, hazard_mode=HazardMode(args.mode), inputs=args.input)
    Profiler().attach(machine.cpu)
    try:
        machine.run(args.max_steps, fast=(args.engine != "precise"))
    except (MachineFault, KernelPanic) as exc:
        return _report_guest_failure(machine, exc)
    except TimeoutError:
        print(
            f"error: program did not halt within {args.max_steps} steps",
            file=sys.stderr,
        )
        return EXIT_STEP_BUDGET
    profile = build_profile(machine.cpu, program, top=args.top, name=name)
    if args.format == "json":
        print(render_json(profile))
    elif args.format == "collapsed":
        print(render_collapsed(profile), end="")
    else:
        print(render_text(profile), end="")
    return 0


def _shrink_and_report(name: str, seed: int, engines) -> None:
    """Minimize a failing campaign plan and describe the culprit prefix."""
    from .chaos import CAMPAIGNS, run_campaign_plan, shortest_failing_prefix
    from .chaos.campaigns import _baseline

    campaign = CAMPAIGNS[name]
    baseline = _baseline(campaign)
    plan = campaign.build_plan(seed, baseline["steps"])

    def fails(candidate) -> bool:
        result = run_campaign_plan(campaign, candidate, engines=engines, baseline=baseline)
        return bool(result["violations"])

    shrunk = shortest_failing_prefix(plan, fails)
    last = shrunk.injections[-1].to_dict() if shrunk.injections else None
    print(
        f"  shrunk: {len(plan.injections)} -> {len(shrunk.injections)} injections; "
        f"last in failing prefix: {last}",
        file=sys.stderr,
    )


def fuzz_main(argv=None) -> int:
    """``mips-fuzz``: differential-oracle fuzzing over the farm."""
    parser = argparse.ArgumentParser(
        description="property-based scenario fuzzing with a cross-engine "
        "differential oracle"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="generate and oracle-check a case range")
    run_p.add_argument("--cases", type=int, default=100, metavar="N", help="case count")
    run_p.add_argument("--seed", type=int, default=0, help="generator seed")
    run_p.add_argument(
        "--start", type=int, default=0, metavar="K", help="first case index"
    )
    run_p.add_argument(
        "--fuzz-mode",
        "--mode",
        choices=["ast", "words", "minijava", "both"],
        default="both",
        dest="fuzz_mode",
        help="case level: mini-Pascal programs, raw instruction streams, "
        "MiniJava programs, or an even/odd interleave of ast and words",
    )
    run_p.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="B",
        help="cases per farm job (default 25)",
    )
    run_p.add_argument("--max-steps", type=int, default=2_000_000)
    run_p.add_argument("--jobs", type=int, default=1, metavar="N", help="worker processes")
    run_p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS", help="per-job wall budget"
    )
    run_p.add_argument(
        "--results", metavar="FILE", help="stream result records to a JSON-lines file"
    )
    run_p.add_argument(
        "--stable-results",
        metavar="FILE",
        help="write stable-view JSONL in submission order (deterministic "
        "bytes at any --jobs)",
    )
    run_p.add_argument(
        "--artifacts",
        metavar="DIR",
        default="fuzz-artifacts",
        help="directory for minimized failing-case repro artifacts",
    )
    run_p.add_argument(
        "--no-shrink",
        action="store_true",
        help="dump failing cases unminimized (faster triage of big batches)",
    )

    replay_p = sub.add_parser(
        "replay", help="re-run a dumped failing case deterministically"
    )
    replay_p.add_argument("artifact", help="crash record (<name>.json) to replay")

    args = parser.parse_args(argv)

    if args.command == "replay":
        return _fuzz_replay(args.artifact)

    from .farm import ResultStore, Scheduler
    from .farm.job import fuzz_jobs
    from .fuzz.batch import DEFAULT_BATCH

    job_list = list(
        fuzz_jobs(
            args.seed,
            args.cases,
            mode=args.fuzz_mode,
            batch=args.batch if args.batch is not None else DEFAULT_BATCH,
            max_steps=args.max_steps,
            start=args.start,
        )
    )
    kwargs = {}
    if args.timeout is not None:
        kwargs["timeout_s"] = args.timeout

    store = ResultStore(args.results) if args.results else None
    try:
        report = Scheduler(jobs=args.jobs, store=store, **kwargs).run_report(job_list)
    finally:
        if store is not None:
            store.close()
    if args.stable_results:
        _write_stable_results(args.stable_results, report.records)

    checked = 0
    divergences = []
    for record in report.records:
        fuzz = record.get("extra", {}).get("fuzz")
        if fuzz is None:
            # a crashed/timed-out batch never reports cases: surface it
            print(
                f"{record['name']:28s} {record['status']:8s} "
                f"{(record.get('error') or {}).get('type', '')}",
                file=sys.stderr,
            )
            continue
        checked += len(fuzz["cases"])
        divergences.extend(fuzz["divergences"])
    digest = hashlib.sha256(
        "".join(r.get("fingerprint") or "" for r in report.records).encode()
    ).hexdigest()[:16]
    print(
        f"fuzz: {checked}/{args.cases} cases checked over {len(job_list)} "
        f"batch(es) via {args.jobs} job(s), seed {args.seed}, mode {args.fuzz_mode}, "
        f"digest {digest}"
    )
    if checked < args.cases:
        print("fuzz: some batches did not complete", file=sys.stderr)
        return 2
    if not divergences:
        print("fuzz: no divergences")
        return 0
    print(f"fuzz: {len(divergences)} divergent case(s)", file=sys.stderr)
    from .fuzz.artifacts import dump_artifact
    from .fuzz.case import make_case
    from .fuzz.minimize import minimize_case

    for entry in divergences:
        case = make_case(args.seed, entry["index"], entry["mode"])
        minimized = None if args.no_shrink else minimize_case(case, max_steps=args.max_steps)
        path = dump_artifact(args.artifacts, case, entry["divergences"], minimized)
        shrink_note = (
            f" (shrunk {minimized['units_full']} -> {minimized['units']} units)"
            if minimized
            else ""
        )
        print(f"  case {entry['index']} ({entry['mode']}): {path}{shrink_note}", file=sys.stderr)
        print(f"    replay: mips-fuzz replay {path}", file=sys.stderr)
    return 1


def _fuzz_replay(artifact_path: str) -> int:
    """Regenerate a dumped case from its seed triple and re-check it."""
    from .fuzz.artifacts import load_artifact
    from .fuzz.case import make_case
    from .fuzz.oracle import check_case

    record = load_artifact(artifact_path)
    case = make_case(int(record["seed"]), int(record["index"]), record["mode"])
    result = check_case(case)
    print(
        f"replay {case.name}: status={result.status} digest={result.digest} "
        f"(artifact recorded {len(record.get('divergences', []))} divergence(s))"
    )
    for div in result.divergences:
        print(f"  {div.get('check')}: {json.dumps(div, sort_keys=True)[:200]}")
    return 1 if result.failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(experiments_main())
