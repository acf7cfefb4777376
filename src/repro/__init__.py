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

from repro.lazy import lazy_exports

__version__ = "1.0.0"

#: Each public name -> the module defining it, imported on first access.
_EXPORTS = {
    "AGAVE_IDS": "repro.core.suite",
    "AsyncBackend": "repro.core.backends.async_",
    "BenchmarkSpec": "repro.core.spec",
    "Calibration": "repro.calibration",
    "CpuSpec": "repro.calibration",
    "ExecutionBackend": "repro.core.backends.base",
    "FIGURE_ORDER": "repro.core.suite",
    "ResultCache": "repro.core.results",
    "RunConfig": "repro.core.runner",
    "RunResult": "repro.core.results",
    "SPEC_IDS": "repro.core.suite",
    "SerialBackend": "repro.core.backends.serial",
    "SuiteResult": "repro.core.results",
    "SuiteRunner": "repro.core.runner",
    "SweepAxis": "repro.core.sweep",
    "SweepResult": "repro.core.sweep",
    "SweepRunner": "repro.core.sweep",
    "SweepSpec": "repro.core.sweep",
    "benchmarks": "repro.core.suite",
    "evaluate_claims": "repro.analysis.claims",
    "evaluate_sweep_claims": "repro.analysis.claims",
    "execute_one": "repro.core.runner",
    "figure1": "repro.analysis.figures",
    "figure2": "repro.analysis.figures",
    "figure3": "repro.analysis.figures",
    "figure4": "repro.analysis.figures",
    "get_benchmark": "repro.core.suite",
    "make_backend": "repro.core.backends",
    "parse_cpu_profile": "repro.calibration",
    "profile_cpu_count": "repro.calibration",
    "shard_ids": "repro.core.backends.sharded",
    "table1": "repro.analysis.tables",
}

__all__ = sorted([*_EXPORTS, "__version__"])
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
