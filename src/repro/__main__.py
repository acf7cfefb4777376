"""Command-line interface: run benchmarks and regenerate paper artifacts.

Usage (installed as ``agave-repro`` or ``python -m repro``)::

    python -m repro list
    python -m repro run music.mp3.view --duration 4
    python -m repro suite --out suite.json --jobs 4 --progress
    python -m repro suite --shard 1/2 --cache .agave-cache --out shard1.json
    python -m repro --cpus 4 suite --out suite-smp.json --jobs 4
    python -m repro sweep --axis jit=on,off --axis seed=1,2 --jobs 4
    python -m repro sweep --axis cpus=1,2,4 --bench music.mp3.view
    python -m repro sweep --axis seed=1,2 --shard 2/2 --out shard2.json
    python -m repro figures --results suite.json --figure 1
    python -m repro table1 --results suite.json
    python -m repro claims --cache .agave-cache
    python -m repro --cpus 4 smp --cache .agave-cache
    python -m repro cache stats .agave-cache
    python -m repro cache gc .agave-cache --max-bytes 50000000
    python -m repro sweep --axis duration=0.5,1,2
    python -m repro sweep --axis cal.preset=baseline,lowend,highend
    python -m repro --faults chaos run vlc.mp4.view
    python -m repro sweep --axis faults=none,binder-flaky,sf-kill
    python -m repro faults --bench vlc.mp4.view --plan sf-kill
    python -m repro fleet --devices 1000 --profile-mix none=3,2+2=1 \\
        --preset-mix baseline=2,lowend=1 --jobs 4 --progress
    python -m repro fleet --devices 1000 --shard 1/2 --out shard1.json
    python -m repro fleet --merge shard1.json shard2.json

Execution flags (``--jobs``, ``--cache``, ``--progress``) apply wherever
benchmarks may actually run: ``suite``, ``sweep``, ``fleet``, and any
artifact command invoked without ``--results``.  ``--jobs`` defaults to
the CPUs this process may run on.  ``--jobs 1``, and so the default on
a one-CPU host or under ``taskset -c 0``, runs every unit in this
process; ``--jobs N`` with N > 1 streams units through a pool of up to
N worker processes, one per run when there are fewer runs, overlapping
result I/O (cache writes, progress) with in-flight simulations.  Both
produce byte-identical results.  Ctrl-C stops every unit, leaves no
``--out`` file, and exits 130 with one line on stderr.  ``--cpus``
selects the simulated core count everywhere (``cpus=1`` stays
byte-identical to the pre-SMP engine, hitting the same cache keys).
``--shard`` is for ``suite``, ``sweep`` and ``fleet`` only — their
outputs can be merged back together — never for
figures/tables/claims/smp, which over a partial suite would be silently
wrong.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

# Only what _config, make_parser and main need: each command imports its
# own helpers, so `list` or a serial `suite` never loads the process
# pool, the fleet and stats layers, or the analysis it does not print.
from repro.calibration import profile_cpu_count
from repro.core.backends import usable_cpus
from repro.core.results import RUN_METRICS
from repro.core.runner import RunConfig
from repro.errors import ConfigError, ReproError
from repro.faults import fault_plan, plan_names
from repro.sim.ticks import millis, seconds, to_seconds

if TYPE_CHECKING:
    from typing import Callable

    from repro.core.results import ResultCache, RunResult, SuiteResult
    from repro.core.runner import SuiteRunner


def _config(args: argparse.Namespace) -> RunConfig:
    # Range errors name the flag the user typed, in its own unit; the
    # config would name its field in ticks.
    if not (math.isfinite(args.duration) and seconds(args.duration) >= 1):
        raise ConfigError(
            f"--duration must be >= {to_seconds(1):g} s (one tick) and "
            f"finite, got {args.duration:g}"
        )
    if args.settle_ms < 0:
        raise ConfigError(f"--settle-ms must be >= 0, got {args.settle_ms}")
    cpus = args.cpus
    if cpus is not None and cpus < 1:
        raise ConfigError(f"--cpus must be >= 1, got {cpus}")
    profile = args.cpu_profile
    if profile is not None:
        count = profile_cpu_count(profile)  # parse-validates
        if cpus is None:
            cpus = count
        elif cpus != count:
            raise ConfigError(
                f"--cpu-profile {profile} describes {count} cores "
                f"but --cpus is {cpus}"
            )
    return RunConfig(
        duration_ticks=seconds(args.duration),
        settle_ticks=millis(args.settle_ms),
        seed=args.seed,
        jit_enabled=not args.no_jit,
        cpus=cpus if cpus is not None else 1,
        cpu_profile=profile,
        faults=fault_plan(args.faults) if args.faults else None,
    )


def _add_exec_flags(
    parser: argparse.ArgumentParser, sharding: bool = False
) -> None:
    """Execution knobs, shared by every command that may run.

    ``--shard`` is only offered where a partial result is meaningful
    (``suite``, ``sweep`` and ``fleet``, whose output files can be
    merged); artifact commands would silently draw paper-level
    conclusions from a fraction of the benchmarks.
    """
    parser.add_argument("--jobs", type=int, default=usable_cpus(),
                        metavar="N",
                        help="1 runs every unit in this process; N > 1 "
                             "streams units through a pool of up to N "
                             "worker processes (same results either way; "
                             "default: %(default)s, the CPUs this process "
                             "may run on; timed on 2-CPU hosts only, and "
                             "blind to a container's CPU quota, under "
                             "which pass --jobs)")
    if sharding:
        parser.add_argument("--shard", metavar="K/N",
                            help="run only the K-th of N deterministic shards")
    parser.add_argument("--cache", metavar="DIR",
                        help="content-addressed result cache directory")
    parser.add_argument("--progress", action="store_true",
                        help="print a line as each benchmark completes")


def _make_cache(args: argparse.Namespace) -> ResultCache | None:
    """The ``--cache DIR`` result cache a command runs through, if any."""
    from repro.core.results import ResultCache

    return ResultCache(args.cache) if args.cache else None


def _shard(args: argparse.Namespace) -> "tuple[int, int] | None":
    """``--shard K/N`` as ``(k, n)``; None when absent or not offered."""
    from repro.core.backends import parse_shard

    text = getattr(args, "shard", None)
    return parse_shard(text) if text else None


def _make_runner(args: argparse.Namespace) -> SuiteRunner:
    from repro.core.backends import make_backend
    from repro.core.runner import SuiteRunner

    return SuiteRunner(
        _config(args),
        backend=make_backend(args.jobs),
        cache=_make_cache(args),
        shard=_shard(args),
    )


def _check_out(args: argparse.Namespace) -> None:
    """Fail on an unwritable ``--out`` now, not after every unit has run."""
    from repro.core.results import check_writable

    if args.out:
        check_writable(args.out)


def _progress_printer(
    args: argparse.Namespace,
    label: "Callable[[object], str]" = str,
    width: int = 22,
):
    """A progress callback printing one line per completed unit.

    *label* maps the callback's first argument (a bench id, or a
    SweepPoint for sweeps) to the printed name.
    """
    if not args.progress:
        return None

    def emit(unit, elapsed: "float | None", result: RunResult) -> None:
        # elapsed=None means the result came from the cache; a real run
        # that happened to clock 0.00s still prints its timing.
        tag = "cached" if elapsed is None else f"{elapsed:6.2f}s"
        print(f"  {label(unit):<{width}} {tag:>8} "
              f"{result.total_refs:>15,} refs", flush=True)

    return emit


def _load_or_run(args: argparse.Namespace) -> SuiteResult:
    if args.results:
        from repro.core.results import SuiteResult

        return SuiteResult.load(args.results)
    runner = _make_runner(args)
    return runner.run_suite(progress=_progress_printer(args))


def cmd_list(args: argparse.Namespace) -> int:
    from repro.core.suite import benchmarks

    for bench in benchmarks():
        kind = "agave" if bench.is_android else "spec "
        print(f"{bench.bench_id:<22} [{kind}] {bench.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.runner import SuiteRunner

    runner = SuiteRunner(_config(args))
    run = runner.run(args.benchmark)
    print(f"{run.bench_id}: {run.total_refs:,} references "
          f"({run.total_instr:,} instr / {run.total_data:,} data)")
    print(f"processes {run.live_processes}, threads {run.thread_count()}, "
          f"regions {run.code_region_count()}c/{run.data_region_count()}d")
    for axis, table in (
        ("instruction regions", run.instr_by_region),
        ("data regions", run.data_by_region),
        ("processes (instr)", run.instr_by_proc),
    ):
        total = sum(table.values())
        print(f"\ntop {axis}:")
        for key, value in sorted(table.items(), key=lambda kv: -kv[1])[:8]:
            share = 100 * value / total if total else 0.0
            print(f"  {key:<30} {share:6.1f}%")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    _check_out(args)
    suite = runner.run_suite(
        ids=args.bench or None, progress=_progress_printer(args)
    )
    if args.out:
        suite.save(args.out)
        print(f"saved {len(suite.ids())} runs to {args.out}")
    else:
        for bench_id in suite.ids():
            print(f"{bench_id:<22} {suite.get(bench_id).total_refs:>15,} refs")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a grid as a streaming fold: each run, reported in grid order,
    is written to ``--out`` and measured, then dropped, so memory holds
    one pool window of runs plus one value per cell however large the
    grid."""
    from contextlib import nullcontext
    from operator import attrgetter

    from repro.analysis.render import render_sweep_table
    from repro.analysis.sweep import resolve_metric, sweep_tables
    from repro.core.backends import make_backend
    from repro.core.runner import execute_with_cache
    from repro.core.suite import benchmarks
    from repro.core.sweep import SweepRunner, SweepSpec, parse_axis, write_sweep

    metric = resolve_metric(args.metric)  # reject a typo'd metric first
    axes = tuple(parse_axis(text) for text in args.axis or [])
    # Without axes there is no delta table: the listing shows references.
    measure = metric if axes else attrgetter("total_refs")
    ids = args.bench or [spec.bench_id for spec in benchmarks()]
    spec = SweepSpec(benches=tuple(ids), axes=axes, base=_config(args))
    runner = SweepRunner(
        backend=make_backend(args.jobs),
        cache=_make_cache(args),
        shard=_shard(args),
    )
    grid, _points, owned = runner.plan(spec)
    progress = _progress_printer(args, label=lambda p: p.label, width=40)
    values: "dict[tuple[str, str], float]" = {}
    keys = [(point.bench_id, point.variant) for point in owned]
    # Opening the writer checks --out before any unit runs.
    writing = write_sweep(args.out, grid, keys) if args.out else nullcontext()
    with writing as writer:

        def on_done(point, elapsed: "float | None", run: RunResult) -> None:
            if writer is not None:
                writer.add(point.bench_id, point.variant, run)
            values[(point.bench_id, point.variant)] = measure(run)
            if progress is not None:
                progress(point, elapsed, run)

        execute_with_cache(runner.backend, runner.cache, owned, on_done)
    if args.out:
        print(f"saved {len(owned)} sweep cells to {args.out}")
    if axes:
        for table in sweep_tables(grid, metric=args.metric, values=values):
            print(render_sweep_table(table))
    elif not args.out:
        for point in owned:
            refs = values[(point.bench_id, point.variant)]
            print(f"{point.bench_id:<22} [{point.variant}] {refs:>15,} refs")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Absorbed-vs-amplified fault report over a ``faults`` sweep.

    With ``--results`` the report reads a saved sweep (which must have
    swept a ``faults`` axis); otherwise it runs a small faults sweep —
    the fault-free baseline plus each requested plan — over the given
    benchmarks and reports on that.
    """
    from repro.analysis.faults import (
        evaluate_fault_claims, fault_report, render_fault_report,
    )
    from repro.analysis.render import render_claims
    from repro.core.backends import make_backend
    from repro.core.sweep import SweepResult, SweepRunner, SweepSpec, parse_axis
    from repro.errors import AnalysisError

    if args.results:
        result = SweepResult.load(args.results)
    else:
        plans = args.plan or ["binder-flaky", "sf-kill"]
        axes = (parse_axis("faults=none," + ",".join(plans)),)
        ids = args.bench or ["vlc.mp4.view"]
        spec = SweepSpec(benches=tuple(ids), axes=axes, base=_config(args))
        runner = SweepRunner(
            backend=make_backend(args.jobs), cache=_make_cache(args)
        )
        _check_out(args)
        result = runner.run(
            spec,
            progress=_progress_printer(args, label=lambda p: p.label,
                                       width=40),
        )
        if args.out:
            result.save(args.out)
            print(f"saved {len(result.runs)} sweep cells to {args.out}")
    print(render_fault_report(fault_report(result)))
    try:
        claims = evaluate_fault_claims(result)
    except AnalysisError:
        # Neither headline plan was swept: the report stands on its own
        # and there is nothing to assert.
        return 0
    print(render_claims(claims))
    return 0 if all(c.holds for c in claims) else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    from functools import partial

    from repro.analysis.fleet import render_fleet_report
    from repro.core.backends import make_backend
    from repro.core.fleet import (
        FleetResult, FleetSpec, ProgressMeter, parse_mix, run_fleet,
    )
    from repro.core.sweep import AXES, AXIS_FAULTS

    if args.merge:
        # Merge mode: no simulation — fold saved shard results together.
        if args.devices is not None or args.shard:
            raise ConfigError(
                "fleet --merge combines saved result files; it takes no "
                "--devices or --shard"
            )
        merged: FleetResult | None = None
        for path in args.merge:
            shard_result = FleetResult.load(path)
            if merged is None:
                merged = shard_result
            else:
                merged.merge(shard_result)
        assert merged is not None  # argparse nargs="+" guarantees one
        if args.out:
            merged.save(args.out)
            print(f"saved merged fleet result to {args.out}")
        print(render_fleet_report(merged))
        return 0

    if args.devices is None:
        raise ConfigError("fleet needs --devices N (or --merge FILES)")
    mixes = {
        name: parse_mix(text, parse)
        for name, text, parse in (
            ("bench_mix", args.bench_mix, str),
            ("profile_mix", args.profile_mix, AXES["cpu_profile"].parse),
            ("preset_mix", args.preset_mix, str),
            ("scale_mix", args.scale_mix, float),
            ("fault_mix", args.fault_mix, AXES[AXIS_FAULTS].parse),
        )
        if text
    }
    spec = FleetSpec(
        devices=args.devices,
        seed=args.seed,
        base=_config(args),
        capacity=args.capacity,
        **mixes,
    )
    make_progress = None
    if args.progress:
        make_progress = partial(ProgressMeter, every=args.progress_every)
    _check_out(args)
    result = run_fleet(
        spec,
        backend=make_backend(args.jobs),
        cache=_make_cache(args),
        make_progress=make_progress,
        shard=_shard(args),
    )
    if args.out:
        result.save(args.out)
        print(f"saved fleet result ({result.devices_done} devices, "
              f"{result.units_total} units) to {args.out}")
    print(render_fleet_report(result))
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.core.results import ResultCache

    # A stats query must not conjure the directory into existence: a
    # typo'd path should error, not report a healthy empty cache.
    if not os.path.isdir(args.dir):
        raise ConfigError(f"no cache directory at {args.dir!r}")
    cache = ResultCache(args.dir)
    stats = cache.stats()
    print(f"cache:   {cache.root}")
    print(f"entries: {stats.entries}")
    print(f"bytes:   {stats.total_bytes:,}")
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.core.results import ResultCache

    # A typo'd sign would evict every entry.
    if args.max_bytes < 0:
        raise ConfigError(f"--max-bytes must be >= 0, got {args.max_bytes}")
    # Like stats: a GC of a mistyped path must error, not mint an empty
    # directory and report a successful no-op.
    if not os.path.isdir(args.dir):
        raise ConfigError(f"no cache directory at {args.dir!r}")
    cache = ResultCache(args.dir)
    report = cache.gc(args.max_bytes)
    print(f"cache:   {cache.root}")
    print(f"evicted: {report.removed_entries} entries "
          f"({report.removed_bytes:,} bytes)")
    print(f"kept:    {report.kept_entries} entries "
          f"({report.kept_bytes:,} bytes)")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.figures import build_figure
    from repro.analysis.render import (
        render_breakdown_csv, render_breakdown_table, render_stacked_ascii,
    )

    suite = _load_or_run(args)
    numbers = [args.figure] if args.figure else [1, 2, 3, 4]
    for number in numbers:
        fig = build_figure(number, suite)
        if args.csv:
            print(render_breakdown_csv(fig))
        else:
            print(render_breakdown_table(fig))
            if args.ascii:
                print(render_stacked_ascii(fig))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.paper import compare_table1
    from repro.analysis.render import render_table1
    from repro.analysis.tables import table1

    suite = _load_or_run(args)
    table = table1(suite)
    print(render_table1(table, top_n=args.top))
    print(compare_table1(table))
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    from repro.analysis.claims import evaluate_claims
    from repro.analysis.render import render_claims

    suite = _load_or_run(args)
    claims = evaluate_claims(suite)
    print(render_claims(claims))
    return 0 if all(c.holds for c in claims) else 1


def cmd_smp(args: argparse.Namespace) -> int:
    from repro.analysis.breakdown import cpu_breakdown
    from repro.analysis.render import render_breakdown_table, render_smp_table
    from repro.analysis.smp import smp_rows

    suite = _load_or_run(args)
    print(render_smp_table(smp_rows(suite)))
    print(render_breakdown_table(cpu_breakdown(suite)))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agave-repro",
        description="Agave (ISPASS 2016) reproduction harness",
    )
    parser.add_argument("--duration", type=float, default=4.0,
                        help="measurement window in simulated seconds")
    parser.add_argument("--settle-ms", type=int, default=400,
                        help="boot settle before the window opens")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--no-jit", action="store_true",
                        help="disable the Dalvik trace JIT")
    parser.add_argument("--cpus", type=int, default=None, metavar="N",
                        help="simulated cores (default 1, or the core count "
                             "of --cpu-profile; cpus=1 reproduces the "
                             "single-core results byte-for-byte)")
    parser.add_argument("--cpu-profile", metavar="B+L",
                        help="big.LITTLE core profile, e.g. 2+2 or 4+4: "
                             "B full-speed big cores then L half-speed "
                             "LITTLE cores, scheduled by the CFS vruntime "
                             "policy (default: symmetric cores, round-robin)")
    parser.add_argument("--faults", metavar="PLAN",
                        help="deterministic fault plan injected inside the "
                             "measurement window: "
                             + ", ".join(plan_names())
                             + " (default: no faults; the fault-free "
                             "config keeps its exact cache keys)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 25 benchmarks").set_defaults(
        func=cmd_list
    )

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("benchmark")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run the whole suite")
    p_suite.add_argument("--out", help="save results JSON here")
    p_suite.add_argument("--bench", action="append", metavar="ID",
                         help="run only this benchmark (repeatable)")
    _add_exec_flags(p_suite, sharding=True)
    p_suite.set_defaults(func=cmd_suite)

    p_sweep = sub.add_parser(
        "sweep", help="run a parameter grid and show per-axis deltas"
    )
    p_sweep.add_argument("--axis", action="append", metavar="NAME=V1,V2",
                         help="sweep axis: jit=on,off | seed=1,2,3 | "
                              "duration=0.5,1.0 | cal.preset=baseline,lowend "
                              "| cal.<field>=A,B | faults=none,binder-flaky "
                              "(repeatable; order fixes the grid)")
    p_sweep.add_argument("--bench", action="append", metavar="ID",
                         help="sweep only this benchmark (repeatable; "
                              "default: the whole suite)")
    p_sweep.add_argument("--out", help="save sweep results JSON here")
    p_sweep.add_argument("--metric", default="total_refs",
                         help="metric shown in the per-axis delta tables: "
                              + ", ".join(sorted(RUN_METRICS))
                              + ", or per-core cpuN_refs/cpuN_share/cpuN_busy")
    _add_exec_flags(p_sweep, sharding=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_faults = sub.add_parser(
        "faults",
        help="absorbed-vs-amplified fault report over a faults sweep",
    )
    p_faults.add_argument("--results", help="load a saved sweep JSON (must "
                                            "sweep a faults axis) instead "
                                            "of re-running")
    p_faults.add_argument("--plan", action="append", metavar="NAME",
                          help="fault plan to inject (repeatable; default "
                               "binder-flaky and sf-kill): "
                               + ", ".join(plan_names()))
    p_faults.add_argument("--bench", action="append", metavar="ID",
                          help="benchmark to fault (repeatable; default "
                               "vlc.mp4.view)")
    p_faults.add_argument("--out", help="save the sweep results JSON here")
    _add_exec_flags(p_faults)
    p_faults.set_defaults(func=cmd_faults)

    p_fleet = sub.add_parser(
        "fleet",
        help="Monte-Carlo a device population and report metric "
             "distributions (streaming reduction: O(metrics) memory)",
    )
    p_fleet.add_argument("--devices", type=int, metavar="N",
                         help="population size to sample")
    p_fleet.add_argument("--bench-mix", metavar="ID=W,ID=W",
                         help="weighted benchmark mix (default: uniform "
                              "over the Agave app suite)")
    p_fleet.add_argument("--profile-mix", metavar="P=W,P=W",
                         help="weighted cpu-profile mix, e.g. "
                              "none=3,2+2=1 (none = the symmetric base "
                              "machine)")
    p_fleet.add_argument("--preset-mix", metavar="NAME=W,NAME=W",
                         help="weighted calibration-preset mix, e.g. "
                              "baseline=2,lowend=1,highend=1")
    p_fleet.add_argument("--scale-mix", metavar="F=W,F=W",
                         help="weighted calibration scale-factor mix, "
                              "e.g. 1=3,1.2=1 (per-device unit variation)")
    p_fleet.add_argument("--fault-mix", metavar="PLAN=W,PLAN=W",
                         help="weighted fault-plan mix, e.g. "
                              "none=9,binder-flaky=1 (none = fault-free; "
                              "an all-none mix samples the exact fleet a "
                              "pre-fault spec did)")
    p_fleet.add_argument("--capacity", type=int, default=1024, metavar="K",
                         help="bottom-k percentile sample bound per metric "
                              "(percentiles are exact up to K devices)")
    p_fleet.add_argument("--out", help="save the fleet result JSON here")
    p_fleet.add_argument("--merge", nargs="+", metavar="FILE",
                         help="merge saved shard results instead of running")
    p_fleet.add_argument("--progress-every", type=int, default=16,
                         metavar="K",
                         help="with --progress: print rate/ETA every K "
                              "completed units instead of one line per unit")
    _add_exec_flags(p_fleet, sharding=True)
    p_fleet.set_defaults(func=cmd_fleet)

    p_cache = sub.add_parser("cache", help="result-cache maintenance")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser(
        "stats", help="show the entries and bytes of a cache directory"
    )
    p_stats.add_argument("dir", metavar="DIR",
                         help="cache directory (as passed to --cache)")
    p_stats.set_defaults(func=cmd_cache_stats)
    p_gc = cache_sub.add_parser(
        "gc", help="evict cached runs, least recently used first, to fit "
                   "a size budget"
    )
    p_gc.add_argument("dir", metavar="DIR",
                      help="cache directory (as passed to --cache)")
    p_gc.add_argument("--max-bytes", type=int, metavar="N", required=True,
                      help="evict the least recently written or hit "
                           "entries until the cache fits N bytes")
    p_gc.set_defaults(func=cmd_cache_gc)

    for name, func, extra in (
        ("figures", cmd_figures, True),
        ("table1", cmd_table1, False),
        ("claims", cmd_claims, False),
        ("smp", cmd_smp, False),
    ):
        help_text = (
            "per-CPU utilisation report (TLP + core breakdown)"
            if name == "smp" else f"regenerate {name}"
        )
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--results", help="load a saved suite JSON "
                                         "instead of re-running")
        _add_exec_flags(p)
        if extra:
            p.add_argument("--figure", type=int, choices=(1, 2, 3, 4))
            p.add_argument("--csv", action="store_true")
            p.add_argument("--ascii", action="store_true")
        if name == "table1":
            p.add_argument("--top", type=int, default=10)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream consumer (| head, | grep -q) closed the pipe.
        # Don't traceback, but don't claim success either: the command
        # was cut short mid-stream (later side effects like --out may
        # not have happened).  128+SIGPIPE matches the shell convention.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        # Ctrl-C: every file being written was unlinked on the way here,
        # and the pool's shutdown joined its workers.  128+SIGINT, as
        # for SIGPIPE.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
