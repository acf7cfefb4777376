"""Agave reproduction: an Android-software-stack benchmark suite on a
simulated full stack.

Reproduces *Agave: A Benchmark Suite for Exploring the Complexities of the
Android Software Stack* (Brown et al., ISPASS 2016): the 19 Agave
application workloads plus 6 SPEC CPU2006 baselines, executed on a
from-scratch simulated Gingerbread stack (Linux-like kernel, Dalvik VM
with trace JIT and GC, Binder IPC, SurfaceFlinger, mediaserver) under a
gem5-style atomic CPU whose profiler attributes every memory reference to
(process, thread, VMA region).

Typical use::

    from repro import SuiteRunner, RunConfig, figure1, table1

    runner = SuiteRunner()
    suite = runner.run_suite()          # all 25 benchmarks
    fig = figure1(suite)                # the paper's Figure 1
    threads = table1(suite)             # the paper's Table I
"""

from repro.analysis import (
    evaluate_claims,
    evaluate_sweep_claims,
    figure1,
    figure2,
    figure3,
    figure4,
    table1,
)
from repro.calibration import (
    Calibration,
    CpuSpec,
    parse_cpu_profile,
    profile_cpu_count,
)
from repro.core import (
    AGAVE_IDS,
    FIGURE_ORDER,
    SPEC_IDS,
    AsyncBackend,
    BenchmarkSpec,
    ExecutionBackend,
    ResultCache,
    RunConfig,
    RunResult,
    SerialBackend,
    SuiteResult,
    SuiteRunner,
    SweepAxis,
    SweepResult,
    SweepRunner,
    SweepSpec,
    benchmarks,
    execute_one,
    get_benchmark,
    make_backend,
    shard_ids,
)

__version__ = "1.0.0"

__all__ = [
    "AGAVE_IDS",
    "AsyncBackend",
    "BenchmarkSpec",
    "Calibration",
    "CpuSpec",
    "ExecutionBackend",
    "FIGURE_ORDER",
    "ResultCache",
    "RunConfig",
    "RunResult",
    "SPEC_IDS",
    "SerialBackend",
    "SuiteResult",
    "SuiteRunner",
    "SweepAxis",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "__version__",
    "benchmarks",
    "evaluate_claims",
    "evaluate_sweep_claims",
    "execute_one",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "get_benchmark",
    "make_backend",
    "parse_cpu_profile",
    "profile_cpu_count",
    "shard_ids",
    "table1",
]
