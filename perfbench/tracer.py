"""Run one ``repro`` command line in process, with or without layer spans.

Usage: ``python3 tracer.py REPORT SPANS_DIR on|off -- <repro argv>``

With ``on``, span wrappers go around the public entry points of each
layer of ``src/repro`` (the table in ``ENTRY_POINTS``), installed by
attribute name; an entry point that no longer exists is reported as
missing, not treated as an error.  The command then runs through
``repro.__main__.main`` exactly as the CLI would run it, so it picks the
same backend.  With ``off`` the same command runs with no wrappers,
which gives the traced run's overhead.

Each span records calls, total time and self time (total minus the time
of spans nested in it on the same thread).  Calibration runs lazily
inside the window's ``run_for``, so it is a nested span and the window's
self time excludes it.  The kernel and engine counters are read off the
``System`` whose ``run_for`` opens the window.  Pool workers inherit the
wrappers when forked, and install them when started by spawn (which
re-imports this script); each worker appends its spans to
``SPANS_DIR/<pid>.jsonl`` after every unit, and this process merges them
at the end.

The ``script`` span (this whole process) and the ``unit`` spans (each
``execute_one``) are not layers: their self time is time no layer wrapper
covered, which the benchmark reports as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

_clock = time.perf_counter

#: (layer, module, attribute path) of every wrapped entry point.
ENTRY_POINTS = (
    ("cli", "repro.__main__", "main"),
    ("core.backends", "repro.core.backends.serial", "SerialBackend.execute_batch"),
    ("core.backends", "repro.core.backends.process", "ProcessPoolBackend.execute_batch"),
    ("core.backends", "repro.core.backends.async_", "AsyncBackend.execute_batch"),
    ("core.backends", "repro.core.backends.async_", "AsyncBackend.execute_stream"),
    ("core.sweep.plan", "repro.core.sweep", "SweepRunner.plan"),
    ("core.sweep.save", "repro.core.sweep", "SweepResult.save"),
    ("core.results.save", "repro.core.results", "SuiteResult.save"),
    ("core.fleet.plan", "repro.core.fleet", "FleetSpec.sample"),
    ("core.fleet.plan", "repro.core.fleet", "FleetSpec.units"),
    ("core.fleet.plan", "repro.core.fleet", "FleetSpec.population"),
    ("core.fleet.save", "repro.core.fleet", "FleetResult.save"),
    ("core.stats.observe", "repro.core.stats", "SketchSet.observe"),
    ("core.results.cache_get", "repro.core.results", "ResultCache.get"),
    ("core.results.cache_put", "repro.core.results", "ResultCache.put"),
    ("core.results.encode", "repro.core.results", "RunResult.to_json_dict"),
    ("core.results.decode", "repro.core.results", "RunResult.from_json_dict"),
    ("core.results.build", "repro.core.results", "RunResult.from_profiler"),
    ("analysis.render", "repro.analysis.sweep", "sweep_tables"),
    ("analysis.render", "repro.analysis.render", "render_sweep_table"),
    ("analysis.render", "repro.analysis.fleet", "render_fleet_report"),
    ("unit", "repro.core.runner", "execute_one"),
    ("android.boot", "repro.sim.system", "System.__init__"),
    ("android.boot", "repro.android.boot", "boot_android"),
    ("apps.install", "repro.apps.base", "AgaveAppModel.setup_files"),
    ("android.launch", "repro.android.app", "start_activity"),
    ("sim.run", "repro.sim.system", "System.run_for"),
    ("apps.spec.calibrate", "repro.apps.spec.base", "SpecModel.calibrate"),
)

#: Environment variable handing the spans directory to pool workers.
SPANS_ENV = "PERFBENCH_SPANS_DIR"

#: Window counters: name -> attribute path on the ``System``.
WINDOW_COUNTERS = (
    ("window.ops", "engine.ops_dispatched"),
    ("window.context_switches", "kernel.sched.context_switches"),
    ("window.migrations", "kernel.sched.migrations"),
    ("window.refs", "profiler.total_refs"),
)


class Recorder:
    """Span and counter accumulators of one process."""

    def __init__(self) -> None:
        self.spans_dir = ""
        self.is_worker = False
        self._reset()

    def _reset(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        #: layer -> [calls, total seconds, self seconds]
        self.layers: "dict[str, list]" = {}
        self.counters: "dict[str, float]" = {}
        #: Worker-measured host milliseconds of each simulated unit.
        self.units_ms: "list[float]" = []

    def after_fork_in_child(self) -> None:
        self._reset()
        self.is_worker = True

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def enter(self, name: str) -> bool:
        """Open a span; False (and nothing opened) when *name* is already
        open on this thread, so a layer calling itself counts once."""
        stack = self._stack()
        for frame in stack:
            if frame[0] == name:
                return False
        stack.append([name, _clock(), 0.0])
        return True

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        stack = self._stack()
        name, started, children = stack.pop()
        duration = _clock() - started
        if stack:
            stack[-1][2] += duration
        with self.lock:
            acc = self.layers.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += duration
            acc[2] += duration - children
        return duration

    def count(self, name: str, value: float = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + value

    @property
    def unit(self) -> "dict | None":
        return getattr(self.local, "unit", None)

    @unit.setter
    def unit(self, value: "dict | None") -> None:
        self.local.unit = value

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "layers": {k: list(v) for k, v in self.layers.items()},
                "counters": dict(self.counters),
                "units_ms": list(self.units_ms),
            }

    def flush_worker(self) -> None:
        """Append this worker's spans since the last flush to its file."""
        record = self.snapshot()
        with self.lock:
            self.layers.clear()
            self.counters.clear()
            self.units_ms.clear()
        path = os.path.join(self.spans_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


REC = Recorder()


def _dig(obj: object, path: str):
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


# ----------------------------------------------------------------------
# Wrappers


def _span(layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = REC.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            if opened:
                REC.exit()

    return wrapper


def _count_calls(key: str, inner):
    """*inner* plus a per-entry-point call counter."""
    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        REC.count(f"calls.{key}")
        return inner(*args, **kwargs)

    return wrapper


def _unit(layer: str, fn):
    """``execute_one``: one simulated unit, timed where it runs."""
    @functools.wraps(fn)
    def wrapper(bench_id, cfg, *args, **kwargs):
        outer, REC.unit = REC.unit, {"cfg": cfg, "settled": False}
        opened = REC.enter(layer)
        result = None
        try:
            result = fn(bench_id, cfg, *args, **kwargs)
        finally:
            duration = REC.exit() if opened else None
            REC.unit = outer
            if opened:
                with REC.lock:
                    REC.units_ms.append(1e3 * duration)
                counters = getattr(result, "fault_counters", None) or {}
                REC.count("faults.events", sum(
                    value for key, value in counters.items()
                    if not key.endswith("_bytes")))
                if REC.is_worker:
                    REC.flush_worker()
        return result

    return wrapper


def _run_for(layer: str, fn):
    """``System.run_for``: settle or window, told apart by the unit's
    config; the window also takes the engine/kernel counter deltas."""
    @functools.wraps(fn)
    def wrapper(system, duration, *args, **kwargs):
        unit = REC.unit
        kind = "sim.run_other"
        if unit is not None:
            cfg = unit["cfg"]
            if not unit["settled"] and duration == getattr(cfg, "settle_ticks", None):
                kind, unit["settled"] = "sim.settle", True
            elif duration == getattr(cfg, "duration_ticks", None):
                kind = "sim.window"
        before = None
        if kind == "sim.window":
            before = [_dig(system, path) for _, path in WINDOW_COUNTERS]
        opened = REC.enter(kind)
        try:
            return fn(system, duration, *args, **kwargs)
        finally:
            if opened:
                REC.exit()
            if before is not None:
                for (name, path), start in zip(WINDOW_COUNTERS, before):
                    end = _dig(system, path)
                    if start is None or end is None:
                        REC.count(f"missing.{name}")
                    else:
                        REC.count(name, end - start)

    return wrapper


def _cache_get(layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = REC.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            if opened:
                REC.exit()
        REC.count("cache.hits" if result is not None else "cache.misses")
        return result

    return wrapper


def _calibrate(layer: str, fn):
    @functools.wraps(fn)
    def wrapper(model, *args, **kwargs):
        opened = REC.enter(layer)
        try:
            return fn(model, *args, **kwargs)
        finally:
            if opened:
                REC.count(f"calibrate_s.{getattr(model, 'name', '?')}", REC.exit())

    return wrapper


SPECIAL = {
    "unit": _unit,
    "sim.run": _run_for,
    "core.results.cache_get": _cache_get,
    "apps.spec.calibrate": _calibrate,
}


def _subclasses(cls: type) -> "list[type]":
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def _replace_references(original, wrapper) -> None:
    """Point every ``from x import f`` copy in loaded repro modules at
    *wrapper* too."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> "list[str]":
    """Wrap every entry point; returns the ones that could not be found."""
    missing: "list[str]" = []
    for layer, module_name, path in ENTRY_POINTS:
        where = f"{module_name}:{path}"
        make = SPECIAL.get(layer, _span)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(where)
            continue
        owner_name, _, attr = path.rpartition(".")
        if not owner_name:
            original = getattr(module, attr, None)
            if original is None:
                missing.append(where)
                continue
            wrapper = _count_calls(where, make(layer, original))
            setattr(module, attr, wrapper)
            _replace_references(original, wrapper)
            continue
        owner = getattr(module, owner_name, None)
        if not isinstance(owner, type):
            missing.append(where)
            continue
        # A method is wrapped on the class and on every subclass that
        # overrides it (each SPEC model has its own ``calibrate``).
        wrapped = 0
        for cls in _subclasses(owner):
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                inner = _count_calls(where, make(layer, raw.__func__))
                setattr(cls, attr, type(raw)(inner))
            elif inspect.isfunction(raw):
                setattr(cls, attr, _count_calls(where, make(layer, raw)))
            else:
                continue
            wrapped += 1
        if not wrapped:
            missing.append(where)
    return missing


# ----------------------------------------------------------------------
# Entry point


def _merge(into: dict, record: dict) -> None:
    for name, (calls, total, self_s) in record["layers"].items():
        acc = into["layers"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    for name, value in record["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    into["units_ms"].extend(record["units_ms"])


def _per_result_costs(out_path: str) -> dict:
    """Encode/decode cost and size of each per-unit result in the output.

    ``RunResult.to_json_dict`` plus JSON encoding, and JSON decoding plus
    ``RunResult.from_json_dict``, timed once per result.  Outputs without
    per-unit results (a fleet report) give no samples.
    """
    from repro.core.results import RunResult

    try:
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {"results": 0}
    if isinstance(payload, dict) and "cells" in payload:
        raws = [cell["run"] for cell in payload["cells"]]
    elif isinstance(payload, dict) and "units_total" not in payload:
        raws = list(payload.values())
    else:
        raws = []
    encode = decode = size = 0.0
    for raw in raws:
        text = json.dumps(raw)
        started = _clock()
        run = RunResult.from_json_dict(json.loads(text))
        decode += _clock() - started
        started = _clock()
        text = json.dumps(run.to_json_dict())
        encode += _clock() - started
        size += len(text.encode("utf-8"))
    return {"results": len(raws), "encode_s": encode, "decode_s": decode,
            "bytes": size}


def main(argv: "list[str]") -> int:
    started = _clock()
    report_path, spans_dir, mode, sep, *repro_argv = argv
    if mode not in ("on", "off") or sep != "--":
        print("usage: tracer.py REPORT SPANS_DIR on|off -- ARGV...",
              file=sys.stderr)
        return 2
    traced = mode == "on"
    REC.spans_dir = spans_dir
    if traced:
        os.environ[SPANS_ENV] = spans_dir
        os.register_at_fork(after_in_child=REC.after_fork_in_child)
        REC.enter("script")
        REC.enter("import")
    import repro.__main__

    missing: "list[str]" = []
    if traced:
        REC.exit()
        missing = install()
    code = repro.__main__.main(repro_argv)
    sys.stdout.flush()
    wall = _clock() - started
    if traced:
        REC.exit()
    report = {"wall_s": wall, "returncode": code, "missing": missing,
              "layers": {}, "counters": {}, "units_ms": []}
    _merge(report, REC.snapshot())
    workers = 0
    if traced and os.path.isdir(spans_dir):
        for name in sorted(os.listdir(spans_dir)):
            workers += 1
            with open(os.path.join(spans_dir, name), encoding="utf-8") as fh:
                for line in fh:
                    _merge(report, json.loads(line))
    report["workers"] = workers
    if traced and "--out" in repro_argv:
        report["per_result"] = _per_result_costs(
            repro_argv[repro_argv.index("--out") + 1])
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__" and os.environ.get(SPANS_ENV):
    # A pool worker started by spawn or forkserver re-imports this script
    # under this name instead of inheriting the wrappers: install them.
    REC.spans_dir = os.environ[SPANS_ENV]
    REC.is_worker = True
    install()
