"""Analysis layer: figure/table builders, claims checks, renderers."""

from repro.lazy import lazy_exports

#: Each public name -> the module defining it, imported on first access.
_EXPORTS = {
    "Claim": "repro.analysis.claims",
    "DEFAULT_PERCENTILES": "repro.analysis.fleet",
    "FaultRow": "repro.analysis.faults",
    "METRICS": "repro.analysis.sweep",
    "SmpRow": "repro.analysis.smp",
    "StackedBreakdown": "repro.analysis.breakdown",
    "SweepRow": "repro.analysis.sweep",
    "SweepTable": "repro.analysis.sweep",
    "Table1": "repro.analysis.tables",
    "ThreadRow": "repro.analysis.tables",
    "axis_table": "repro.analysis.sweep",
    "build_figure": "repro.analysis.figures",
    "build_stacked": "repro.analysis.breakdown",
    "canonical_thread_name": "repro.analysis.tables",
    "cpu_breakdown": "repro.analysis.breakdown",
    "evaluate_claims": "repro.analysis.claims",
    "evaluate_fault_claims": "repro.analysis.faults",
    "evaluate_sweep_claims": "repro.analysis.claims",
    "failed_claims": "repro.analysis.claims",
    "fault_report": "repro.analysis.faults",
    "figure1": "repro.analysis.figures",
    "figure2": "repro.analysis.figures",
    "figure3": "repro.analysis.figures",
    "figure4": "repro.analysis.figures",
    "render_breakdown_csv": "repro.analysis.render",
    "render_breakdown_table": "repro.analysis.render",
    "render_claims": "repro.analysis.render",
    "render_fault_report": "repro.analysis.faults",
    "render_fleet_report": "repro.analysis.fleet",
    "render_smp_table": "repro.analysis.render",
    "render_stacked_ascii": "repro.analysis.render",
    "render_sweep_table": "repro.analysis.render",
    "render_table1": "repro.analysis.render",
    "resolve_metric": "repro.analysis.sweep",
    "shares": "repro.analysis.breakdown",
    "smp_row": "repro.analysis.smp",
    "smp_rows": "repro.analysis.smp",
    "sweep_tables": "repro.analysis.sweep",
    "table1": "repro.analysis.tables",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
