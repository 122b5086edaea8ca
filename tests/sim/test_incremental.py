"""Differential suite for incremental re-simulation (`repro.sim.incremental`).

The contract under test: whatever path :func:`resimulate` takes --
timeline-prefix resume or conservative fallback -- its
:class:`SimResult` is *bit-identical* (dataclass equality over every
field) to a from-scratch :func:`repro.sim.simulate` of the sibling
schedule.  The suite sweeps every registered schedule across its
admissible recompute strategies and two pipeline shapes, then forces
the edge cases by hand: mid-timeline divergence via a mutated duration,
immediate divergence (no usable checkpoint), stage-count and duplex
mismatches, and references too coarse to checkpoint at all.
"""

import dataclasses
import functools

import pytest

from repro.cluster import abstract_cluster
from repro.costmodel.memory import RecomputeStrategy
from repro.model import Segment, SegmentKind
from repro.schedules.ir import ComputeInstr, OpType, Schedule
from repro.schedules.registry import (
    available_schedules,
    get_schedule,
    workload_option_defaults,
)
from repro.sim import ResimStats, resimulate, simulate, simulate_recording
from repro.workloads import Workload

PS = (2, 4)
#: Reference and sibling always share the mode; a mismatch is the
#: fallback case tested on its own below.
DUPLEX = ("full", "half")


def _workload(p):
    return Workload.paper("1.3B", "H20", p, 8192)


@functools.lru_cache(maxsize=None)
def _built(name, p, recompute):
    """Build one registered schedule on the smoke shape (memoised)."""
    spec = get_schedule(name)
    wl = _workload(p)
    opts = workload_option_defaults(spec, wl)
    m = spec.round_micro_batches(wl.num_micro_batches, p, **opts)
    m = m or spec.micro_batch_divisor(p, **opts)
    sched = spec.build((p, m), wl.costs(recompute), verify=False, **opts)
    return sched, wl


def _full(sched, wl, duplex="full"):
    return simulate(
        sched,
        wl.cluster,
        static_memory_bytes=wl.static_memory(),
        duplex=duplex,
        verify=False,
        record_trace=False,
    )


def _cases():
    for name in available_schedules():
        spec = get_schedule(name)
        for p in PS:
            for rc in spec.recompute_choices:
                yield pytest.param(name, p, rc, id=f"{name}-p{p}-{rc.value}")


def _sibling_cases():
    """(schedule, p, reference recompute, sibling recompute) pairs."""
    for name in available_schedules():
        spec = get_schedule(name)
        choices = spec.recompute_choices
        if len(choices) < 2:
            continue
        for p in PS:
            ref_rc = choices[0]
            for sib_rc in choices[1:]:
                yield pytest.param(
                    name, p, ref_rc, sib_rc,
                    id=f"{name}-p{p}-{ref_rc.value}-vs-{sib_rc.value}",
                )


class TestRecordingMatchesSimulate:
    @pytest.mark.parametrize("duplex", DUPLEX)
    @pytest.mark.parametrize("name,p,rc", _cases())
    def test_bit_identical(self, name, p, rc, duplex):
        sched, wl = _built(name, p, rc)
        ref = simulate_recording(
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            duplex=duplex,
            verify=False,
            checkpoint_every=64,
        )
        assert ref.result == _full(sched, wl, duplex)

    def test_rejects_bad_checkpoint_interval(self):
        sched, wl = _built("helix", 4, RecomputeStrategy.NONE)
        with pytest.raises(ValueError):
            simulate_recording(sched, wl.cluster, checkpoint_every=0)


class TestSiblingResimulation:
    @pytest.mark.parametrize("duplex", DUPLEX)
    @pytest.mark.parametrize("name,p,ref_rc,sib_rc", _sibling_cases())
    def test_bit_identical_across_recomputes(self, name, p, ref_rc, sib_rc, duplex):
        ref_sched, wl = _built(name, p, ref_rc)
        sib_sched, _ = _built(name, p, sib_rc)
        ref = simulate_recording(
            ref_sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            duplex=duplex,
            verify=False,
            checkpoint_every=64,
        )
        result, stats = resimulate(
            ref,
            sib_sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            duplex=duplex,
            verify=False,
        )
        assert isinstance(stats, ResimStats)
        assert stats.mode in ("incremental", "fallback")
        assert result == _full(sib_sched, wl, duplex)

    def test_helix_siblings_take_the_incremental_path(self):
        # Helix recompute siblings share the whole forward phase, so a
        # fine-grained reference must actually resume, not fall back.
        ref_sched, wl = _built("helix", 4, RecomputeStrategy.NONE)
        sib_sched, _ = _built("helix", 4, RecomputeStrategy.WITHOUT_ATTENTION)
        ref = simulate_recording(
            ref_sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
            checkpoint_every=64,
        )
        result, stats = resimulate(
            ref,
            sib_sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
        )
        assert stats.mode == "incremental"
        assert stats.resumed_at_events > 0
        assert result == _full(sib_sched, wl)

    def test_self_resimulation_resumes_from_last_checkpoint(self):
        sched, wl = _built("helix", 4, RecomputeStrategy.NONE)
        ref = simulate_recording(
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
            checkpoint_every=64,
        )
        result, stats = resimulate(
            ref,
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
        )
        assert stats.mode == "incremental"
        # Identical programs never diverge, so the resume point is the
        # reference's final checkpoint.
        assert stats.resumed_at_events == ref.checkpoints[-1].events_processed
        assert result == ref.result


def _mutated(sched: Schedule, which: int, scale: float) -> Schedule:
    """Copy ``sched`` with the ``which``-th stage-0 compute rescaled."""
    programs = [list(prog) for prog in sched.programs]
    seen = 0
    for i, instr in enumerate(programs[0]):
        if isinstance(instr, ComputeInstr):
            if seen == which:
                programs[0][i] = dataclasses.replace(
                    instr, duration=instr.duration * scale
                )
                return Schedule(
                    f"{sched.name}-mut", sched.num_stages,
                    sched.num_micro_batches, programs,
                )
            seen += 1
    raise AssertionError(f"stage 0 has no {which}-th compute instruction")


class TestForcedDivergence:
    @pytest.fixture(scope="class")
    def reference(self):
        sched, wl = _built("helix", 4, RecomputeStrategy.NONE)
        ref = simulate_recording(
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
            checkpoint_every=64,
        )
        return sched, wl, ref

    def test_mid_timeline_divergence_stays_bit_identical(self, reference):
        # A duration change halfway down stage 0 invalidates every
        # checkpoint past it; the resume must come from before the
        # mutation and still reproduce the mutant's full simulation.
        sched, wl, ref = reference
        n_computes = sum(
            isinstance(i, ComputeInstr) for i in sched.programs[0]
        )
        mutant = _mutated(sched, n_computes // 2, 1.5)
        result, stats = resimulate(
            ref,
            mutant,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
        )
        assert result == _full(mutant, wl)
        if stats.mode == "incremental":
            # The divergence detector must have seen the mutated index.
            assert min(stats.divergence_indices) < ref.sizes[0]
            assert result.makespan != ref.result.makespan

    def test_immediate_divergence_falls_back(self, reference):
        # Mutating the very first compute leaves no checkpoint inside
        # the shared prefix: the only safe answer is a full simulation.
        sched, wl, ref = reference
        mutant = _mutated(sched, 0, 2.0)
        result, stats = resimulate(
            ref,
            mutant,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
        )
        assert stats.mode == "fallback"
        assert "no checkpoint" in stats.reason
        assert result == _full(mutant, wl)


class TestConservativeFallbacks:
    @pytest.fixture(scope="class")
    def reference(self):
        sched, wl = _built("helix", 4, RecomputeStrategy.NONE)
        ref = simulate_recording(
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
            checkpoint_every=64,
        )
        return sched, wl, ref

    def test_stage_count_mismatch(self, reference):
        _, _, ref = reference
        other, wl2 = _built("helix", 2, RecomputeStrategy.NONE)
        result, stats = resimulate(
            ref,
            other,
            wl2.cluster,
            static_memory_bytes=wl2.static_memory(),
            verify=False,
        )
        assert stats.mode == "fallback"
        assert "stage count" in stats.reason
        assert result == _full(other, wl2)

    def test_duplex_mismatch(self, reference):
        sched, wl, ref = reference
        result, stats = resimulate(
            ref,
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            duplex="half",
            verify=False,
        )
        assert stats.mode == "fallback"
        assert "duplex" in stats.reason
        full_half = simulate(
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            duplex="half",
            verify=False,
            record_trace=False,
        )
        assert result == full_half

    def test_reference_without_checkpoints(self):
        sched, wl = _built("helix", 4, RecomputeStrategy.NONE)
        coarse = simulate_recording(
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
            checkpoint_every=10**9,
        )
        assert coarse.checkpoints == []
        result, stats = resimulate(
            coarse,
            sched,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
        )
        assert stats.mode == "fallback"
        assert "no checkpoints" in stats.reason
        assert result == coarse.result

    def test_shared_tag_table_grows_monotonically(self, reference):
        # Sibling compilations extend the reference's interning table in
        # place; existing entries must never be reassigned.
        sched, wl, ref = reference
        before = dict(ref.tag_ids)
        sib, _ = _built("helix", 4, RecomputeStrategy.WITHOUT_ATTENTION)
        resimulate(
            ref,
            sib,
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=False,
        )
        assert all(ref.tag_ids[k] == v for k, v in before.items())
        assert len(ref.tag_ids) >= len(before)


class TestMemoryReplay:
    def test_resume_replays_sibling_memory_before_the_checkpoint(self):
        # Two independent stages diverging in timing only at their last
        # compute.  The resume point (checkpointing every event) has
        # stage 0's workspace-heavy compute in flight and stage 1's
        # first compute done, whose workspace only the sibling raises:
        # both peaks come from the replayed prefix, not the resumed run.
        seg = Segment(SegmentKind.LAYERS, 0, 1)

        def sched(ws_first, last):
            return Schedule("t", 2, 1, [
                [
                    ComputeInstr(OpType.F, s, 0, seg, duration=1.0,
                                 workspace=ws_first if s else 0.0),
                    ComputeInstr(OpType.F, s, 1, seg, duration=10.0,
                                 workspace=0.0 if s else 100.0),
                    ComputeInstr(OpType.F, s, 2, seg, duration=last),
                ]
                for s in range(2)
            ])

        cluster = abstract_cluster(2)
        ref = simulate_recording(sched(0.0, 1.0), cluster, checkpoint_every=1)
        sibling = sched(200.0, 2.0)
        result, stats = resimulate(ref, sibling, cluster)
        assert stats.mode == "incremental"
        assert stats.resumed_at_events == 2
        assert result.peak_memory_bytes == [100.0, 200.0]
        assert result == simulate(sibling, cluster, record_trace=False)
