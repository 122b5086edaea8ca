"""Shared driving code for the paper-reproduction experiments.

Workload resolution itself lives in :mod:`repro.workloads` (shared with
the CLI and the tuner); this module keeps the experiment-facing pieces:
the method list of the comparison figures, one-call build+simulate
helpers and the grid iterator that collapses the per-figure nested
``model x gpu x seq_len x pipeline`` loops into a single place.

The protocol encoded by the re-exported :class:`Workload` is Section
5.1: GPT-3 architecture (Table 3), sequence lengths {32k, 64k, 96k,
128k}, one pipeline stage per node, Megatron sequence parallelism of
size 8 inside the node, micro batch size 1, global batch = 2 x pipeline
size, synthesized full-length batches, and the Section 4.6
embedding/head optimisations applied to every method.
"""

from __future__ import annotations

from typing import Iterator

from repro.sim import SimResult, simulate
from repro.workloads import GPU_CLUSTERS, SEQ_LENS, Workload

__all__ = [
    "Workload",
    "METHODS",
    "SEQ_LENS",
    "GPU_CLUSTERS",
    "run_method",
    "run_all_methods",
    "iter_cells",
]

#: Methods compared in Figure 8 / Figure 10.
METHODS: tuple[str, ...] = ("1f1b", "zb1p", "adapipe", "helix")


def run_method(wl: Workload, method: str, **kw) -> SimResult:
    """Build + simulate one method on the workload's cluster.

    Verification runs once, at build: :meth:`Workload.build` goes
    through the schedule registry, which runs the full pass pipeline, so
    the simulator does not re-verify.  The result carries metrics only
    -- its ``trace`` is empty; for a timeline call :func:`simulate` with
    ``record_trace=True`` (as ``fig2_fig7_schedules`` does).
    """
    sched = wl.build(method, **kw)
    return simulate(
        sched,
        wl.cluster,
        static_memory_bytes=wl.static_memory(),
        verify=False,
        record_trace=False,
    )


def run_all_methods(wl: Workload, methods: tuple[str, ...] = METHODS) -> dict[str, SimResult]:
    return {m: run_method(wl, m) for m in methods}


def iter_cells(
    models: tuple[str, ...],
    gpus: tuple[str, ...],
    seq_lens: tuple[int, ...],
    pp_sizes: tuple[int, ...],
    micro_batch: int = 1,
) -> Iterator[tuple[dict, Workload]]:
    """Enumerate evaluation-grid cells as ``(cell_dict, workload)`` pairs.

    The shared loop behind the figure modules' grids: the cell dict
    carries the axis values (``model``/``gpu``/``seq_len``/``pp``) in
    the figures' column naming, ready to seed result rows; axes a
    figure fixes are simply single-element tuples.
    """
    for model in models:
        for gpu in gpus:
            for s in seq_lens:
                for p in pp_sizes:
                    cell = {"model": model, "gpu": gpu, "seq_len": s, "pp": p}
                    yield cell, Workload.paper(model, gpu, p, s, micro_batch=micro_batch)
