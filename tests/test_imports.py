"""A command imports only what it runs, and the packages still export
every public name they exported when they imported it all up front."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro

#: Modules neither ``list`` nor a serial ``suite`` needs: OpenSSL (kernel
#: entry addresses come from ``zlib.crc32``; only cache keys and fleet
#: digests hash), the process pool, the sweep, fleet and stats layers,
#: and all of analysis.
UNNEEDED = ("hashlib", "_hashlib", "concurrent.futures", "multiprocessing",
            "repro.core.sweep", "repro.core.fleet", "repro.core.stats",
            "repro.analysis", "repro.analysis.claims")


def _imported(argv: "list[str]", cwd) -> "set[str]":
    """Every module ``python -m repro ARGV`` imports in a fresh
    interpreter, read from its ``-X importtime`` report."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, needed", (
    (["--duration", "0.05", "--settle-ms", "10", "suite", "--jobs", "1",
      "--bench", "countdown.main"], "repro.sim.engine"),
    (["list"], "repro.core.suite"),
), ids=("serial-suite", "list"))
def test_a_command_loads_no_module_it_does_not_run(argv, needed, tmp_path):
    """Every command used to import the pool, the fleet, sweep and stats
    layers, all of analysis and OpenSSL before its first unit: +10.9 MB
    of resident memory on the serial suite."""
    modules = _imported(argv, tmp_path)
    assert needed in modules  # the report lists what the command ran
    assert [name for name in UNNEEDED if name in modules] == []


#: Every public name each package exported while its imports were eager.
EXPORTED = {
    "repro": """
        AGAVE_IDS AsyncBackend BenchmarkSpec Calibration CpuSpec
        ExecutionBackend FIGURE_ORDER ResultCache RunConfig RunResult
        SPEC_IDS SerialBackend SuiteResult SuiteRunner SweepAxis
        SweepResult SweepRunner SweepSpec __version__ benchmarks
        evaluate_claims evaluate_sweep_claims execute_one figure1 figure2
        figure3 figure4 get_benchmark make_backend parse_cpu_profile
        profile_cpu_count shard_ids table1
    """,
    "repro.core": """
        AGAVE_BENCHMARKS AGAVE_IDS ALL_BENCHMARKS AsyncBackend BackendError
        BatchProgress BenchmarkSpec CacheStats Category
        DEFAULT_SAMPLE_CAPACITY DeviceProfile ExecutionBackend FIGURE_ORDER
        FLEET_METRICS FleetResult FleetSpec FleetUnit GcReport Kind
        MetricSketch ProgressCallback ProgressMeter QUICK_CONFIG ResultCache
        RunConfig RunResult SPEC_BENCHMARKS SPEC_IDS SerialBackend SketchSet
        SuiteResult SuiteRunner SweepAxis SweepPoint SweepResult SweepRunner
        SweepSpec bench_seed benchmarks dedup_ids execute_one get_benchmark
        make_backend parse_axis parse_mix parse_shard run_fleet shard_ids
        variant_label
    """,
    "repro.core.backends": """
        AsyncBackend BackendError BatchProgress ExecutionBackend
        ProgressCallback SerialBackend make_backend parse_shard shard_ids
    """,
    "repro.analysis": """
        Claim DEFAULT_PERCENTILES FaultRow METRICS SmpRow StackedBreakdown
        SweepRow SweepTable Table1 ThreadRow axis_table build_figure
        build_stacked canonical_thread_name cpu_breakdown evaluate_claims
        evaluate_fault_claims evaluate_sweep_claims failed_claims
        fault_report figure1 figure2 figure3 figure4 render_breakdown_csv
        render_breakdown_table render_claims render_fault_report
        render_fleet_report render_smp_table render_stacked_ascii
        render_sweep_table render_table1 resolve_metric shares smp_row
        smp_rows sweep_tables table1
    """,
}


@pytest.mark.parametrize("package", sorted(EXPORTED))
def test_every_exported_name_still_resolves(package):
    module = importlib.import_module(package)
    names = EXPORTED[package].split()
    assert sorted(module.__all__) == sorted(names)
    for name in names:
        assert getattr(module, name) is not None, name
        assert name in dir(module), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
