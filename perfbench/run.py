"""The repository benchmark: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1``, run from the root of a checkout.

``--trace 0`` repeats the workload (see ``workloads.py``) for about S
seconds.  Each repetition prepares a fresh sandbox (``sandbox.py``), runs
the workload's untimed setup command, then the timed ``python -m repro``
command, and checks its output against the recorded goldens.  It prints
the median of the repetitions' end-to-end metrics:

- ``wall_s``: host seconds of the timed command, process start to exit;
- ``cpu_s``: user + system seconds of it and its reaped workers;
- ``peak_rss_mb``: the largest resident set of any of those processes;
- ``setup_s``: host seconds of preparation before the timed command
  (sandbox copy and byte-compile, plus the cache fill on sweep-extend).

``--trace 1`` alternates untraced and traced in-process runs of the same
command (``tracer.py``) and prints per-layer metrics: the medians over
the traced runs, plus the import time of a fresh interpreter and the
tracing overhead.  It also asserts that the wrapped boot, settle and
window calls match the units the workload simulates.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A unit fails when its output
digest differs from the golden one, or its command crashed or timed out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from sandbox import Outcome, Sandbox  # noqa: E402
from workloads import (  # noqa: E402
    GOLDENS_PATH, SPEC_IDS, TOY_WORKLOADS, VARIANTS, WORKLOADS, Check,
    Workload, load_goldens,
)

#: A run stops starting repetitions that would end after this many
#: seconds, so that it exits well within its 180 s limit.
RUN_LIMIT_S = 165.0
#: Repetitions a timed run makes even when they overrun ``--seconds``.
MIN_REPS = 3
#: Fresh-interpreter imports timed per traced iteration.
IMPORT_SAMPLES = 3

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

#: Per-layer metrics, each with the end-to-end metric and workload it
#: should move; a layer that does not move its workload's wall_s is not
#: where the time goes.
PER_LAYER = (
    # Fresh-interpreter import of repro.__main__: wall_s, every workload.
    ("import.cli_s", "s"),
    # SpecModel.calibrate on memo misses, in total and per model: wall_s
    # and cpu_s on suite-cold only; 0 elsewhere.
    ("apps.spec.calibrate_s", "s"),
    *((f"apps.spec.calibrate_s.{model}", "s") for model in SPEC_IDS),
    ("apps.spec.calibrations", "count"),
    # Per unit: System() + boot_android, setup_files, the settle run_for:
    # wall_s and cpu_s on sweep-extend, where they are most of a unit.
    ("android.boot_ms", "ms"),
    ("apps.install_ms", "ms"),
    ("sim.settle_ms", "ms"),
    # The window run_for minus nested calibration, its engine op count,
    # host time per op and simulated references per host second: wall_s
    # on fleet-smp (2+2 CFS), and on suite-cold once calibration is gone.
    ("sim.window_s", "s"),
    ("sim.window_ops", "count"),
    ("sim.window_us_per_op", "us"),
    ("sim.window_refs_per_s", "1/s"),
    # Window deltas; they explain us/op on fleet-smp (0 migrations on 1 CPU).
    ("kernel.sched.context_switches", "count"),
    ("kernel.sched.migrations", "count"),
    # Sum of RunResult.fault_counters (bytes excluded): > 0 on fleet-smp only.
    ("faults.events", "count"),
    # Per result, and per cache call: wall_s and cpu_s on sweep-extend.
    ("core.results.encode_ms", "ms"),
    ("core.results.decode_ms", "ms"),
    ("core.results.result_kb", "KB"),
    ("core.results.cache_get_ms", "ms"),
    ("core.results.cache_put_ms", "ms"),
    ("core.results.cache_hits", "count"),
    ("core.results.cache_misses", "count"),
    # Pool efficiency: cpu_s on sweep-extend (process) and fleet-smp (async).
    ("core.backends.busy_share", "ratio"),
    ("core.backends.overhead_ms_per_unit", "ms"),
    # Worker-measured unit time: median, the highest percentile with at
    # least 10 samples beyond it, that percentile, and the sample count.
    ("core.runner.unit_ms.p50", "ms"),
    ("core.runner.unit_ms.tail", "ms"),
    ("core.runner.unit_ms.tail_pct", "%"),
    ("core.runner.units", "count"),
    # Output and planning stages: wall_s on sweep-extend / fleet-smp.
    ("core.sweep.save_s", "s"),
    ("core.fleet.plan_s", "s"),
    ("core.stats.observe_us", "us"),
    ("analysis.render_s", "s"),
    # Validity of the trace itself; should move nothing.
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.missing_entry_points", "count"),
)

#: Spans that mark a track's extent (see tracer.py), not a layer.
BOUNDARIES = ("script", "unit")
#: Entry points whose call counts must equal the units simulated.
BOOT_ENTRY = "repro.android.boot:boot_android"
RUN_FOR_ENTRY = "repro.sim.system:System.run_for"
UNIT_ENTRY = "repro.core.runner:execute_one"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.__main__; "
                "print(time.perf_counter() - t)")


class Run:
    """Time and correctness bookkeeping of one benchmark run."""

    def __init__(self, workload: Workload, goldens: dict, seconds: float,
                 work: str, src: str) -> None:
        self.workload = workload
        self.goldens = goldens
        self.seconds = seconds
        self.work = work
        self.src = src
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def budget(self) -> float:
        """Seconds a command may still take before the run limit."""
        return max(RUN_LIMIT_S - self.elapsed(), 1.0)

    def more(self, durations: "list[float]", minimum: int) -> bool:
        """Whether another repetition fits, judging by the median one."""
        typical = statistics.median(durations)
        if self.elapsed() + typical > RUN_LIMIT_S:
            return False
        return len(durations) < minimum or self.elapsed() + typical <= self.seconds

    def account(self, check: Check, what: str) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        if check.failed:
            self.problems.append(f"{what}: {check.reason}")

    def sandbox(self, variant: int) -> "tuple[Sandbox, str, bool]":
        """A fresh sandbox with the workload's setup done in it.

        Returns the sandbox, its cache directory, and whether the setup
        command (if any) succeeded.
        """
        box = Sandbox(self.work, self.src)
        cache = box.path("cache")
        if not box.compiled:
            self.problems.append("the sources do not byte-compile")
            return box, cache, False
        argv = self.workload.setup_argv(variant, cache)
        if argv is None:
            return box, cache, True
        outcome = box.run(argv, self.budget(), "setup")
        if outcome.returncode != 0:
            self.problems.append(f"setup {_failure(outcome)}")
            return box, cache, False
        return box, cache, True

    def crashed(self, variant: int, what: str) -> Check:
        attempted = self.workload.expected_units(variant, self.goldens)
        return Check(attempted, attempted, what)

    def result(self, metrics: "dict[str, float]", units: "tuple") -> dict:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units},
        }


def _failure(outcome: Outcome) -> str:
    """How a command failed, with the end of its standard error."""
    if outcome.timed_out:
        return "timed out"
    tail = " | ".join(outcome.stderr.strip().splitlines()[-3:])
    return f"exited {outcome.returncode}: {tail}"


# ----------------------------------------------------------------------
# Timed runs (--trace 0)


def timed(run: Run, seed: int) -> dict:
    samples: "dict[str, list[float]]" = {name: [] for name, _ in END_TO_END}
    durations: "list[float]" = []
    index = 0
    while not durations or run.more(durations, MIN_REPS):
        variant = (seed + index) % VARIANTS
        index += 1
        started = time.perf_counter()
        box, cache, ready = run.sandbox(variant)
        try:
            setup_s = time.perf_counter() - started
            if not ready:
                run.account(run.crashed(variant, "setup failed"), "setup")
                break
            out = box.path("out.json")
            body = box.run(run.workload.body_argv(variant, out, cache),
                           run.budget(), "body")
            if body.returncode != 0:
                run.account(run.crashed(variant, _failure(body)),
                            f"variant {variant}")
                break
            run.account(run.workload.check(variant, out, run.goldens),
                        f"variant {variant}")
        finally:
            box.close()
        samples["wall_s"].append(body.wall_s)
        samples["cpu_s"].append(body.cpu_s)
        samples["peak_rss_mb"].append(body.peak_rss_mb)
        samples["setup_s"].append(setup_s)
        durations.append(time.perf_counter() - started)
    if not samples["wall_s"]:
        return run.result({name: 0.0 for name, _ in END_TO_END}, END_TO_END)
    return run.result({k: statistics.median(v) for k, v in samples.items()},
                      END_TO_END)


# ----------------------------------------------------------------------
# Traced runs (--trace 1)


def _traced_once(run: Run, variant: int, mode: str) -> "dict | None":
    """One in-process run of the timed command, traced or not."""
    box, cache, ready = run.sandbox(variant)
    try:
        if not ready:
            run.account(run.crashed(variant, "setup failed"), "setup")
            return None
        out = box.path("out.json")
        report_path = box.path("report.json")
        spans = box.path("spans")
        os.mkdir(spans)
        argv = [os.path.join(HERE, "tracer.py"), report_path, spans, mode,
                "--", *run.workload.body_argv(variant, out, cache)[2:]]
        outcome = box.run(argv, run.budget(), f"trace-{mode}")
        if outcome.returncode != 0:
            run.account(run.crashed(variant, _failure(outcome)),
                        f"trace {mode} variant {variant}")
            return None
        run.account(run.workload.check(variant, out, run.goldens),
                    f"trace {mode} variant {variant}")
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        if mode == "on":
            report["import_s"] = _import_times(run, box)
        return report
    finally:
        box.close()


def _import_times(run: Run, box: Sandbox) -> "list[float]":
    times = []
    for _ in range(IMPORT_SAMPLES):
        outcome = box.run(["-c", IMPORT_PROBE], run.budget(), "import")
        if outcome.returncode == 0:
            times.append(float(outcome.stdout.split()[-1]))
        else:
            run.problems.append(f"import probe {_failure(outcome)}")
    return times


def traced(run: Run, seed: int) -> dict:
    per_iteration: "list[dict[str, float]]" = []
    walls: "dict[str, list[float]]" = {"on": [], "off": []}
    durations: "list[float]" = []
    index = 0
    while not durations or run.more(durations, 1):
        variant = (seed + index) % VARIANTS
        started = time.perf_counter()
        # Alternate which side goes first so drift favours neither.
        order = ("off", "on") if index % 2 == 0 else ("on", "off")
        index += 1
        reports = {mode: _traced_once(run, variant, mode) for mode in order}
        if reports["on"] is None or reports["off"] is None:
            break
        for mode, report in reports.items():
            walls[mode].append(report["wall_s"])
        metrics = layer_metrics(reports["on"], run, variant)
        per_iteration.append(metrics)
        _save_report(run, reports["on"], metrics)
        durations.append(time.perf_counter() - started)
    if not per_iteration:
        return run.result({name: 0.0 for name, _ in PER_LAYER}, PER_LAYER)
    merged = {name: statistics.median(m[name] for m in per_iteration)
              for name, _ in PER_LAYER if name != "trace.overhead_pct"}
    off = statistics.median(walls["off"])
    merged["trace.overhead_pct"] = 100.0 * (statistics.median(walls["on"]) - off) / off
    return run.result(merged, PER_LAYER)


def _percentile(ordered: "list[float]", pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(report: dict, run: Run, variant: int) -> "dict[str, float]":
    """Per-layer metrics of one traced report, with its call-count checks."""
    layers = report["layers"]
    counters = report["counters"]

    def calls(name: str) -> int:
        return layers.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return layers.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return layers.get(name, [0, 0.0, 0.0])[2]

    def per_call(name: str, scale: float) -> float:
        return scale * total(name) / calls(name) if calls(name) else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    units = sorted(report["units_ms"])
    executed = len(units)
    expected = run.workload.executed_units(variant, run.goldens)
    missing = len(report["missing"]) + sum(
        1 for key in counters if key.startswith("missing."))
    checks = (
        ("boot_android", BOOT_ENTRY, counters.get(f"calls.{BOOT_ENTRY}", 0)),
        ("settle run_for", RUN_FOR_ENTRY, calls("sim.settle")),
        ("window run_for", RUN_FOR_ENTRY, calls("sim.window")),
        ("execute_one", UNIT_ENTRY, executed),
    )
    for what, entry, seen in checks:
        if entry not in report["missing"] and seen != expected:
            run.problems.append(
                f"trace: {seen} {what} calls for {expected} units "
                f"(variant {variant})")
    other = sum(own(name) for name in BOUNDARIES)
    covered = sum(acc[2] for name, acc in layers.items() if name not in BOUNDARIES)
    body_wall = total("cli")
    jobs = run.workload.jobs
    unit_s = sum(units) / 1e3
    tail_pct = max(50, math.floor(100.0 * (1.0 - 10.0 / executed))) if executed else 50
    window_s = own("sim.window")
    per_result = report.get("per_result", {})
    results = per_result.get("results", 0)
    metrics = {
        "import.cli_s": statistics.median(report["import_s"]) if report["import_s"] else 0.0,
        "apps.spec.calibrate_s": own("apps.spec.calibrate"),
        "apps.spec.calibrations": calls("apps.spec.calibrate"),
        "android.boot_ms": ratio(1e3 * own("android.boot"), executed),
        "apps.install_ms": ratio(1e3 * own("apps.install"), executed),
        "sim.settle_ms": ratio(1e3 * own("sim.settle"), executed),
        "sim.window_s": window_s,
        "sim.window_ops": counters.get("window.ops", 0),
        "sim.window_us_per_op": ratio(1e6 * window_s, counters.get("window.ops", 0)),
        "sim.window_refs_per_s": ratio(counters.get("window.refs", 0), window_s),
        "kernel.sched.context_switches": counters.get("window.context_switches", 0),
        "kernel.sched.migrations": counters.get("window.migrations", 0),
        "faults.events": counters.get("faults.events", 0),
        "core.results.encode_ms": ratio(1e3 * per_result.get("encode_s", 0.0), results),
        "core.results.decode_ms": ratio(1e3 * per_result.get("decode_s", 0.0), results),
        "core.results.result_kb": ratio(per_result.get("bytes", 0) / 1024.0, results),
        "core.results.cache_get_ms": per_call("core.results.cache_get", 1e3),
        "core.results.cache_put_ms": per_call("core.results.cache_put", 1e3),
        "core.results.cache_hits": counters.get("cache.hits", 0),
        "core.results.cache_misses": counters.get("cache.misses", 0),
        "core.backends.busy_share": ratio(unit_s, jobs * body_wall),
        "core.backends.overhead_ms_per_unit": ratio(1e3 * (jobs * body_wall - unit_s), executed),
        "core.runner.unit_ms.p50": statistics.median(units) if units else 0.0,
        "core.runner.unit_ms.tail": _percentile(units, tail_pct) if units else 0.0,
        "core.runner.unit_ms.tail_pct": tail_pct,
        "core.runner.units": executed,
        "core.sweep.save_s": total("core.sweep.save"),
        "core.fleet.plan_s": total("core.fleet.plan"),
        "core.stats.observe_us": per_call("core.stats.observe", 1e6),
        "analysis.render_s": total("analysis.render"),
        "trace.wall_s": report["wall_s"],
        "trace.other_s": other,
        "trace.coverage": ratio(covered, covered + other),
        "trace.missing_entry_points": missing,
    }
    for model in SPEC_IDS:
        metrics[f"apps.spec.calibrate_s.{model}"] = counters.get(f"calibrate_s.{model}", 0.0)
    return metrics


def _save_report(run: Run, report: dict, metrics: dict) -> None:
    """Keep the latest traced report beside the sandboxes, and print its
    layer table on standard error."""
    path = os.path.join(run.work, f"trace-{run.workload.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1)
    wall = report["wall_s"]
    print(f"{run.workload.name}: traced wall {wall:.3f} s, "
          f"coverage {metrics['trace.coverage']:.3f}", file=sys.stderr)
    print(f"  {'layer':<24} {'calls':>7} {'total_s':>9} {'self_s':>9}",
          file=sys.stderr)
    for name, (count, total, own) in sorted(
            report["layers"].items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<24} {count:>7} {total:>9.3f} {own:>9.3f}",
              file=sys.stderr)
    if report["missing"]:
        print(f"  missing entry points: {', '.join(report['missing'])}",
              file=sys.stderr)


# ----------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="run the toy-size workloads (self-test)")
    parser.add_argument("--goldens", help="goldens file (default: the "
                                          "recorded goldens.json)")
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__main__.py")):
        print(f"error: no program to benchmark at {src}/repro "
              f"(run from the root of a checkout)", file=sys.stderr)
        return 2
    table = TOY_WORKLOADS if args.toy else WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    goldens = load_goldens(args.goldens or GOLDENS_PATH)[workload.name]
    run = Run(workload, goldens, args.seconds,
              os.path.join(root, ".perfbench-work"), src)
    result = traced(run, args.seed) if args.trace else timed(run, args.seed)
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
