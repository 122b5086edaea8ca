"""Static analysis over the schedule IR: pass framework + dataflow passes.

See :mod:`repro.schedules.analysis.framework` for the pass-author API,
shared with the code lint (:mod:`repro.devtools.concurrency`).
Built-in passes (also runnable via ``repro lint``):

========================  ===========  =========================================
pass                      severity     property proved
========================  ===========  =========================================
``structure``             error        stage fields, tag pairing, no self-sends
``deadlock``              error        deadlock-freedom under async tag matching
``program-order``         error        F/RC/BI/BW ordering per (mb, segment)
``stash-balance``         error        stash never negative, zero net at end
``comm-pairing``          error        channel-graph P2P pairing provenance
``comm-order``            warning      send/recv ordering races per channel
``comm-hol``              warning      head-of-line blocking cycles (in-order)
``peak-memory``           error        static per-rank peak vs GPU capacity
``dead-code``             warning      no-op computes, redundant stash pairs
========================  ===========  =========================================
"""

from repro.schedules.analysis.framework import (
    AnalysisContext,
    AnalysisPass,
    AnalysisReport,
    PassIssue,
    Severity,
    available_passes,
    format_issue_table,
    get_pass,
    register_pass,
    run_analysis,
)
from repro.schedules.analysis.memory import static_peak_memory, stash_liveness

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "PassIssue",
    "Severity",
    "available_passes",
    "format_issue_table",
    "get_pass",
    "register_pass",
    "run_analysis",
    "static_peak_memory",
    "stash_liveness",
]
