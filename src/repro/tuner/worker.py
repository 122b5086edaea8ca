"""Process-pool worker for parallel auto-tune sweeps.

:func:`evaluate_chunk` is the unit of work :func:`repro.tuner.autotune`
ships to a :class:`concurrent.futures.ProcessPoolExecutor`: it cold-
evaluates a chunk of candidates into a fresh per-worker
:class:`~repro.tuner.cache.CostCache` and returns that cache, which the
parent merges into the caller's cache on join.  Everything crossing the
process boundary -- the workload (plain dataclasses), the candidates
(frozen dataclasses) and the returned cache (dict of primitive-tuple
keys to primitive records) -- pickles cleanly, and candidate keys are
process-stable (:func:`repro.schedules.registry.workload_cache_key`),
so a key computed in a worker is the same key the parent looks up.

The module must stay importable without side effects: under the
``spawn`` start method each worker re-imports it (and lazily re-imports
the schedule registry's builders on first lookup).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.tuner.cache import CostCache

__all__ = ["evaluate_chunk"]


def evaluate_chunk(
    workload: Any,
    memory_cap_bytes: float,
    candidates: Sequence[Any],
    incremental: bool = True,
) -> CostCache:
    """Cold-evaluate ``candidates`` into a fresh per-worker cache.

    Returns the local :class:`CostCache` so the parent can
    :meth:`~CostCache.merge` it; its stats are the worker's own
    bookkeeping (all misses: the parent only ships keys it did not have).

    Each chunk is one sweep with its own evaluation context (built IR
    and simulation references do not pickle across the pool
    economically), so within a chunk sibling candidates re-simulate
    incrementally -- results are bit-identical to the serial sweep's
    either way.
    """
    # Imported here, not at module top: autotune imports this module, so
    # a top-level back-import would be circular.
    from repro.tuner.autotune import _EvalContext, _gc_paused

    local = CostCache()
    ctx = _EvalContext(
        workload, memory_cap_bytes, candidates, incremental=incremental
    )
    with _gc_paused():
        for cand in candidates:
            local.get_or_eval(ctx.key(cand), lambda c=cand: ctx.evaluate(c))
    return local
