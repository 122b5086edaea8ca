"""Auto-tuner: candidate sweep, memory cap, memoizing cache, acceptance."""

import gc
import threading

import pytest

from repro.costmodel.memory import RecomputeStrategy
from repro.experiments.common import METHODS, Workload, run_method
from repro.schedules.registry import workload_cache_key
from repro.tuner import CostCache, autotune, enumerate_candidates
from repro.tuner.autotune import _candidate_key, _gc_paused, _workload_key
from repro.tuner.cache import CacheMiss, ReadOnlyCostCache

GIB = float(1 << 30)


@pytest.fixture(scope="module")
def wl():
    """The paper's 7B / H20 / p=8 / 64k acceptance workload."""
    return Workload.paper("7B", "H20", 8, 65536)


@pytest.fixture(scope="module")
def small_wl():
    return Workload.paper("7B", "H20", 4, 32768)


class TestEnumeration:
    def test_micro_batch_counts_follow_schedule_divisors(self, small_wl):
        cands = enumerate_candidates(small_wl)
        # The divisor tracks the swept fold: 2p for the bound fold=2,
        # p for the fold=1 grid point.
        helix2 = {
            c.num_micro_batches
            for c in cands
            if c.schedule == "helix" and c.options == ()
        }
        helix1 = {
            c.num_micro_batches
            for c in cands
            if c.schedule == "helix" and c.options == (("fold", 1),)
        }
        layerwise = {c.num_micro_batches for c in cands if c.schedule == "1f1b"}
        assert helix2 == {8}  # multiples of 2p up to the budget of 2p
        assert helix1 == {4, 8}  # fold 1 runs on the p grid
        assert layerwise == {4, 8}  # multiples of p

    def test_recompute_restricted_per_schedule(self, small_wl):
        cands = enumerate_candidates(small_wl)
        helix = {c.recompute for c in cands if c.schedule == "helix"}
        assert helix == {RecomputeStrategy.NONE, RecomputeStrategy.WITHOUT_ATTENTION}
        ada = {c.recompute for c in cands if c.schedule == "adapipe"}
        assert ada == {RecomputeStrategy.NONE}

    def test_aliases_not_swept(self, small_wl):
        cands = enumerate_candidates(small_wl)
        assert not any(c.schedule == "helix-no-recompute" for c in cands)
        # helix-naive is helix x fold=1, which the fold grid now covers.
        assert not any(c.schedule == "helix-naive" for c in cands)
        assert any(
            c.schedule == "helix" and c.options == (("fold", 1),) for c in cands
        )

    def test_explicit_inadmissible_strategy_surfaces_as_infeasible(self, small_wl):
        """A requested strategy outside a schedule's choices is reported,
        not silently dropped from the sweep."""
        plans = autotune(
            small_wl,
            recomputes=[RecomputeStrategy.FULL],
            cache=CostCache(),
            # Exhaustive: this test is about strategy admissibility, and
            # with pruning on a slow-but-admissible 1f1b x FULL row may
            # be (correctly) skipped as provably losing.
            prune=False,
        )
        helix = [p for p in plans if p.candidate.schedule == "helix"]
        assert helix
        assert all(not p.feasible for p in helix)
        assert all("not admissible" in (p.reason or "") for p in helix)
        # Layer-wise schedules model FULL faithfully and still evaluate.
        assert any(p.feasible and p.candidate.schedule == "1f1b" for p in plans)


class TestOptionAxis:
    def test_interleaved_chunk_grid_swept(self, small_wl):
        cands = enumerate_candidates(small_wl)
        combos = {c.options for c in cands if c.schedule == "interleaved"}
        assert combos == {(), (("num_chunks_per_stage", 4),)}

    def test_zb1p_grid_depends_on_pipeline_size(self, small_wl):
        cands = enumerate_candidates(small_wl)
        combos = {c.options for c in cands if c.schedule == "zb1p"}
        # None (the schema default) canonicalises to the empty combo.
        assert combos == {(), (("max_outstanding", small_wl.p),)}

    def test_default_combo_is_canonical_empty_tuple(self, small_wl):
        """A grid value equal to the schema default must not produce a
        second, distinct cache key for the same configuration."""
        cands = enumerate_candidates(small_wl, schedules=["helix"])
        fold_combos = {c.options for c in cands}
        assert () in fold_combos  # fold=2, the bound default
        assert (("fold", 2),) not in fold_combos

    def test_option_grids_override_and_disable(self, small_wl):
        none = enumerate_candidates(small_wl, option_grids={})
        assert all(c.options == () for c in none)
        custom = enumerate_candidates(
            small_wl,
            schedules=["interleaved"],
            option_grids={"interleaved": {"num_chunks_per_stage": (2, 4, 8)}},
        )
        combos = {c.options for c in custom}
        assert (("num_chunks_per_stage", 8),) in combos

    def test_unknown_option_grid_name_rejected(self, small_wl):
        with pytest.raises(ValueError, match="not in the option schema"):
            enumerate_candidates(
                small_wl,
                schedules=["1f1b"],
                option_grids={"1f1b": {"bogus": (1, 2)}},
            )

    def test_empty_option_grid_values_rejected(self, small_wl):
        """An empty value sequence would product to zero combos and
        silently drop the schedule; it must fail loudly instead."""
        with pytest.raises(ValueError, match="empty value sequence"):
            enumerate_candidates(
                small_wl,
                schedules=["interleaved"],
                option_grids={"interleaved": {"num_chunks_per_stage": []}},
            )

    def test_grid_for_unswept_schedule_rejected(self, small_wl):
        """A typo'd schedule key must fail loudly, not silently run an
        all-defaults sweep with every registered grid disabled."""
        with pytest.raises(ValueError, match="name no swept schedule"):
            enumerate_candidates(
                small_wl,
                option_grids={"interleavd": {"num_chunks_per_stage": (2, 4)}},
            )

    def test_option_candidates_evaluate(self, small_wl):
        """fold=1 grid points build and rank like any other candidate."""
        plans = autotune(small_wl, schedules=["helix"], cache=CostCache())
        fold1 = [p for p in plans if p.candidate.options == (("fold", 1),)]
        assert fold1
        assert any(p.feasible for p in fold1)


class TestDivisorBudgetPreclusion:
    def test_schedule_beyond_budget_reported_not_dropped(self):
        """p=4 with a budget of 4 micro-batches cannot run two-fold
        helix (divisor 8); the sweep must say so instead of silently
        omitting the schedule."""
        wl = Workload.paper("7B", "H20", 4, 32768, num_micro_batches=4)
        plans = autotune(wl, schedules=["helix"], cache=CostCache())
        precluded = [
            p
            for p in plans
            if p.reason and "micro-batch divisor 8 exceeds budget 4" in p.reason
        ]
        assert len(precluded) == 1
        assert not precluded[0].feasible
        assert precluded[0].candidate.num_micro_batches == 8
        assert precluded[0].iteration_time is None
        # The fold-1 grid points still fit the budget and evaluate.
        assert any(p.feasible and p.candidate.options == (("fold", 1),) for p in plans)

    def test_enumerate_candidates_excludes_synthetic_rows(self):
        wl = Workload.paper("7B", "H20", 4, 32768, num_micro_batches=4)
        cands = enumerate_candidates(wl, schedules=["helix"])
        assert all(c.num_micro_batches <= 4 for c in cands)


class TestWorkloadKey:
    def test_key_is_value_based_and_stable(self, small_wl):
        other = Workload.paper("7B", "H20", 4, 32768)
        assert _workload_key(small_wl) == _workload_key(other)
        assert _workload_key(small_wl) != _workload_key(
            Workload.paper("7B", "H20", 4, 65536)
        )

    def test_key_contains_no_memory_addresses(self, small_wl):
        assert " at 0x" not in repr(_workload_key(small_wl))

    def test_duck_typed_default_repr_rejected_loudly(self, small_wl):
        class Opaque:
            pass

        class DuckWorkload:
            model = Opaque()
            cluster = small_wl.cluster
            seq_len = 1024
            micro_batch = 1

        with pytest.raises(TypeError, match="memory address"):
            _workload_key(DuckWorkload())

    def test_cache_key_hook_opts_in(self):
        class DuckWorkload:
            def cache_key(self):
                return ("my-workload", 42)

        assert workload_cache_key(DuckWorkload()) == ("my-workload", 42)

    def test_cache_key_hook_accepts_scalars(self):
        """A scalar hook return is one key component, not an iterable
        to splat -- '7B-H20' must not become a tuple of characters."""

        class StringKey:
            def cache_key(self):
                return "7B-H20-p8-64k"

        class IntKey:
            def cache_key(self):
                return 1234

        assert workload_cache_key(StringKey()) == ("7B-H20-p8-64k",)
        assert workload_cache_key(IntKey()) == (1234,)

    def test_set_fields_key_order_independently(self):
        """Set repr order is hash-randomised per process; the key must
        not depend on it or pool workers would never hit the cache."""
        from repro.schedules.registry import stable_value_key

        a = stable_value_key(frozenset({"alpha", "beta", "gamma"}))
        b = stable_value_key(frozenset({"gamma", "alpha", "beta"}))
        assert a == b
        assert a[0] == "set"

    def test_mapping_keys_do_not_alias_across_types(self):
        from repro.schedules.registry import stable_value_key

        assert stable_value_key({1: "x"}) != stable_value_key({"1": "x"})
        # Mixed-type keys must derive a key, not crash in sorted().
        mixed = stable_value_key({1: "a", "b": 2})
        assert mixed[0] == "map"


class TestMemoryCap:
    def test_feasible_plans_respect_cap(self, small_wl):
        cap = 24 * GIB
        plans = autotune(small_wl, memory_cap_bytes=cap, cache=CostCache())
        feasible = [p for p in plans if p.feasible]
        assert feasible
        assert all(p.peak_memory_bytes <= cap for p in feasible)
        over = [p for p in plans if not p.feasible and p.reason and "OOM" in p.reason]
        assert over, "a 24 GiB cap must exclude the no-recompute plans"

    def test_tiny_cap_reports_reasons_for_everything(self, small_wl):
        plans = autotune(small_wl, memory_cap_bytes=1 * GIB, cache=CostCache())
        assert all(not p.feasible for p in plans)
        assert all(p.reason for p in plans)

    def test_infeasible_can_be_dropped(self, small_wl):
        plans = autotune(
            small_wl,
            memory_cap_bytes=24 * GIB,
            cache=CostCache(),
            include_infeasible=False,
        )
        assert plans and all(p.feasible for p in plans)


class TestCache:
    def test_cache_hits_reproduce_cold_results(self, small_wl):
        shared = CostCache()
        cold = autotune(small_wl, cache=shared)
        assert shared.stats.hits == 0 and shared.stats.misses > 0
        warm = autotune(small_wl, cache=shared)
        assert warm == cold
        assert shared.stats.hits == shared.stats.misses

    def test_cache_matches_independent_cold_run(self, small_wl):
        a = autotune(small_wl, cache=CostCache())
        b = autotune(small_wl, cache=CostCache())
        assert a == b

    def test_cached_equality_with_build_error_candidates(self, small_wl):
        """Build-error rows carry None metrics (not NaN), so a cached
        sweep still compares equal to its cold run."""
        shared = CostCache()
        kw = dict(
            schedules=["helix"],
            micro_batch_counts=[6],  # not a multiple of 2p: build error
            cache=shared,
        )
        cold = autotune(small_wl, **kw)
        warm = autotune(small_wl, **kw)
        assert cold and not cold[0].feasible
        assert cold[0].iteration_time is None
        assert "multiple" in cold[0].reason
        assert warm == cold

    def test_read_only_view_completes_warm_or_raises(self, small_wl):
        shared = CostCache()
        with pytest.raises(CacheMiss):
            autotune(small_wl, cache=ReadOnlyCostCache(shared))
        assert shared.stats.lookups == 0
        cold = autotune(small_wl, cache=shared)
        view = ReadOnlyCostCache(shared)
        assert autotune(small_wl, cache=view) == cold
        assert view.stats.misses == 0 and view.stats.hits > 0
        with pytest.raises(TypeError, match="serially"):
            autotune(small_wl, cache=view, workers=2)

    def test_key_distinguishes_caps(self, small_wl):
        c1 = enumerate_candidates(small_wl)[0]
        assert _candidate_key(small_wl, c1, 1.0) != _candidate_key(small_wl, c1, 2.0)


class TestGcPause:
    def test_overlapping_pauses_in_two_threads(self):
        """GC stays off until the last of two overlapping pauses ends,
        whichever thread started first."""
        assert gc.isenabled()
        first_in = threading.Event()
        first_out = threading.Event()
        seen = []

        def first():
            with _gc_paused():
                first_in.set()
                first_out.wait(5)

        thread = threading.Thread(target=first)
        thread.start()
        first_in.wait(5)
        with _gc_paused():
            first_out.set()
            thread.join(5)
            seen.append(gc.isenabled())  # the first pause has ended
        seen.append(gc.isenabled())
        assert seen == [False, True]

    def test_leaves_gc_disabled_when_it_was_disabled(self):
        gc.disable()
        try:
            with _gc_paused():
                with _gc_paused():
                    pass
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_reenables_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with _gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()


class TestFillBudgetParity:
    """fill_budget=True must pick the plan an exhaustive sweep picks."""

    KW = dict(schedules=["1f1b", "helix", "zb1p"], recomputes="defaults")

    def test_candidates_are_the_max_divisor_multiples(self, small_wl):
        full = enumerate_candidates(small_wl, **self.KW)
        filled = enumerate_candidates(small_wl, fill_budget=True, **self.KW)
        # One candidate per (schedule, recompute, options) combination...
        combo = lambda c: (c.schedule, c.recompute, c.options)
        assert len(filled) == len({combo(c) for c in full})
        # ...at exactly the largest count the exhaustive sweep reaches.
        max_full = {}
        for c in full:
            key = combo(c)
            max_full[key] = max(max_full.get(key, 0), c.num_micro_batches)
        for c in filled:
            assert c.num_micro_batches == max_full[combo(c)]

    def test_best_plan_matches_exhaustive_sweep(self, small_wl):
        """On the smoke workload, the winner of the full micro-batch-count
        sweep runs at the budget-filling count, so the cheap fill_budget
        sweep returns an identical best PlanResult."""
        full = autotune(small_wl, cache=CostCache(), **self.KW)
        filled = autotune(
            small_wl, cache=CostCache(), fill_budget=True, **self.KW
        )
        assert full and filled
        assert full[0].feasible and filled[0].feasible
        assert filled[0] == full[0]
        # Every fill_budget plan appears in the exhaustive sweep with
        # identical metrics (same cache keys -> same records).
        by_cand = {p.candidate: p for p in full}
        for plan in filled:
            assert by_cand[plan.candidate] == plan


class TestAcceptance:
    def test_paper_workload_ranked_and_beats_hardcoded_methods(self, wl):
        """ISSUE acceptance: non-empty ranked list, top plan feasible
        under the HBM cap and at least matching the best hardcoded
        METHODS entry on simulated iteration time."""
        cap = wl.cluster.node.gpu.hbm_bytes
        plans = autotune(wl, cache=CostCache())
        assert plans
        top = plans[0]
        assert top.feasible
        assert top.peak_memory_bytes <= cap
        assert top.iteration_time is not None

        best_hardcoded = min(
            run_method(wl, method).makespan for method in METHODS
        )
        assert top.iteration_time <= best_hardcoded * (1 + 1e-9)

    def test_ranking_is_by_throughput(self, wl):
        plans = [p for p in autotune(wl, cache=CostCache()) if p.feasible]
        rates = [p.tokens_per_s for p in plans]
        assert rates == sorted(rates, reverse=True)
