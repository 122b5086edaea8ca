"""`ScheduleIRCache` correctness: keys, sharing, and sweep equivalence.

The structural build cache may only ever return the IR that the exact
same build inputs would have produced -- so the suite checks that cache
keys separate every axis of the candidate space (schedule, recompute,
micro-batch count, each option grid point), that incremental
re-simulation and parallel workers agree with the plain serial path,
and that the LRU bounds hold.
"""

import pytest

from repro.costmodel.memory import RecomputeStrategy
from repro.schedules.ir import Schedule
from repro.tuner import (
    CostCache,
    ScheduleIRCache,
    SweepTelemetry,
    autotune,
    enumerate_candidates,
    tune_grid,
)
from repro.workloads import Workload, WorkloadGrid

WL = Workload.paper("1.3B", "H20", 4, 8192)


def _ir_key(cand, wkey=("w",), cap=1.0):
    """The structural key `_EvalContext.build_schedule` uses."""
    return (
        wkey,
        cap,
        cand.schedule,
        cand.recompute.value,
        cand.num_micro_batches,
        cand.options,
    )


def _rows(**kw):
    kw.setdefault("cache", CostCache())
    return autotune(WL, **kw)


class TestKeys:
    def test_no_structural_collisions_across_the_grid(self):
        # Every enumerated candidate -- including every option-grid
        # point -- must map to its own cache slot.
        cands = enumerate_candidates(WL)
        keys = {_ir_key(c) for c in cands}
        assert len(keys) == len(cands)

    def test_recompute_separates_keys(self):
        cands = enumerate_candidates(WL, schedules=["helix"])
        by_rest = {}
        for c in cands:
            rest = (c.schedule, c.num_micro_batches, c.options)
            by_rest.setdefault(rest, set()).add(_ir_key(c))
        for rest, keys in by_rest.items():
            # One key per recompute strategy of the family.
            n_rc = len({c.recompute for c in cands
                        if (c.schedule, c.num_micro_batches, c.options) == rest})
            assert len(keys) == n_rc, rest

    def test_workload_and_cap_separate_keys(self):
        c = enumerate_candidates(WL)[0]
        assert _ir_key(c, wkey=("a",)) != _ir_key(c, wkey=("b",))
        assert _ir_key(c, cap=1.0) != _ir_key(c, cap=2.0)


class TestCacheMechanics:
    def test_get_put_roundtrip_and_counters(self):
        cache = ScheduleIRCache()
        sched = Schedule("t", 1, 1, [[]])
        assert cache.get(("k",)) is None
        cache.put(("k",), sched)
        assert cache.get(("k",)) is sched
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_bounds_both_stores(self):
        cache = ScheduleIRCache(max_schedules=2, max_references=1)
        for i in range(5):
            cache.put((i,), Schedule(f"s{i}", 1, 1, [[]]))
        assert len(cache) == 2
        assert cache.get((4,)) is not None  # newest survives
        assert cache.get((0,)) is None  # oldest evicted

    def test_lru_recency_order(self):
        cache = ScheduleIRCache(max_schedules=2)
        a, b, c = (Schedule(n, 1, 1, [[]]) for n in "abc")
        cache.put(("a",), a)
        cache.put(("b",), b)
        cache.get(("a",))  # refresh a: b is now the eviction victim
        cache.put(("c",), c)
        assert cache.get(("a",)) is a
        assert cache.get(("b",)) is None

    def test_clear(self):
        cache = ScheduleIRCache()
        cache.put(("k",), Schedule("t", 1, 1, [[]]))
        cache.clear()
        assert len(cache) == 0

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            ScheduleIRCache(max_schedules=0)
        with pytest.raises(ValueError):
            ScheduleIRCache(max_references=0)


class TestSweepEquivalence:
    def test_incremental_off_is_bit_identical(self):
        assert _rows() == _rows(incremental=False)

    def test_parallel_equals_serial(self):
        serial = _rows()
        parallel = _rows(workers=2)
        assert parallel == serial

    def test_shared_cache_across_recomputes_no_false_hits(self):
        # A cache warmed by one recompute strategy must never serve
        # another strategy's build: sweeping them together through one
        # sweep's cache must match sweeping each alone.
        together = _rows(
            schedules=["helix"],
            recomputes=[RecomputeStrategy.NONE,
                        RecomputeStrategy.WITHOUT_ATTENTION],
        )
        for rc in (RecomputeStrategy.NONE, RecomputeStrategy.WITHOUT_ATTENTION):
            alone = _rows(schedules=["helix"], recomputes=[rc],
                          incremental=False)
            for row in alone:
                assert row in together, row.label


class TestTelemetry:
    def test_counters_are_consistent(self):
        tel = SweepTelemetry()
        rows = _rows(telemetry=tel)
        assert tel.candidates == len(rows)
        assert tel.built > 0
        assert tel.simulated > 0
        assert tel.build_cache_hits == 0  # keys are unique within a sweep
        assert tel.incremental_fallbacks == 0
        assert tel.eval_s >= tel.build_s + tel.simulate_s - 1e-9
        snap = tel.as_dict()
        assert snap["built"] == tel.built
        assert snap["cache_s"] == tel.cache_s
        tel.reset()
        assert tel.built == 0 and tel.eval_s == 0.0 and tel.as_dict()["cache_s"] == 0.0


class TestGridSharing:
    def test_tune_grid_points_never_alias(self):
        # Distinct p in one grid: every feasible row's plan must carry
        # its own point's stage count (an aliased IR or sim reference
        # would leak a wrong-p schedule across points).
        grid = WorkloadGrid(
            seq_lens=(8192,), pipeline_sizes=(2, 4), budget_tokens=1 << 16
        )
        rows = tune_grid(grid, cache=CostCache())
        baseline = tune_grid(grid, cache=CostCache(), incremental=False)
        assert [r.label for r in rows] == [r.label for r in baseline]
