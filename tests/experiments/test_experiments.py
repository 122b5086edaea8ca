"""Integration smoke tests for every experiment module (fast configs)."""

import dataclasses

import pytest

import repro.schedules.registry as registry
import repro.sim.engine as engine
from repro.experiments import (
    Workload,
    chunked_mlp,
    fig2_fig7_schedules,
    fig3_breakdown,
    fig4_memory_imbalance,
    fig5_partition,
    fig6_overlap,
    fig8_throughput,
    fig9_comm,
    fig10_memory_footprint,
    fig11_recompute,
    run_method,
    table1,
    table2,
)
from repro.experiments.common import METHODS
from repro.schedules.ir import RecvInstr
from repro.schedules.passes import ScheduleVerificationError
from repro.sim import simulate


class TestWorkload:
    def test_paper_defaults(self):
        wl = Workload.paper("7B", "H20", 4, 65536)
        assert wl.p == 4
        assert wl.num_micro_batches == 8  # 2 x p
        assert wl.tokens_per_iteration == 8 * 65536

    def test_unknown_method(self):
        wl = Workload.paper("3B", "A800", 2, 32768)
        with pytest.raises(ValueError, match="unknown method"):
            wl.build("pipedream")

    @pytest.mark.parametrize(
        "method", ["1f1b", "zb1p", "adapipe", "helix", "helix-naive", "helix-no-recompute"]
    )
    def test_all_methods_run(self, method):
        wl = Workload.paper("1.3B", "H20", 2, 32768)
        r = run_method(wl, method)
        assert r.makespan > 0


RUN_METHOD_CASES = [
    (method, p) for method in METHODS + ("helix-no-recompute",) for p in (2, 4)
]


class TestRunMethod:
    """``run_method`` verifies at build only and simulates untraced."""

    @pytest.mark.parametrize("method,p", RUN_METHOD_CASES)
    def test_metrics_match_verified_traced_simulation(self, method, p):
        wl = Workload.paper("1.3B", "H20", p, 32768)
        got = run_method(wl, method)
        ref = simulate(
            wl.build(method),
            wl.cluster,
            static_memory_bytes=wl.static_memory(),
            verify=True,
            record_trace=True,
        )
        assert got.schedule_name == ref.schedule_name
        assert got.makespan == ref.makespan
        assert len(got.stages) == len(ref.stages) == p
        for mine, theirs in zip(got.stages, ref.stages):
            assert mine.busy_time == theirs.busy_time
            assert mine.comm_blocked_time == theirs.comm_blocked_time
            assert mine.peak_memory_bytes == theirs.peak_memory_bytes
            assert mine.static_memory_bytes == theirs.static_memory_bytes
            assert mine.bytes_sent == theirs.bytes_sent
            assert mine.bytes_received == theirs.bytes_received
        assert got.stages == ref.stages
        # Metrics only: no timeline is recorded.
        assert got.trace.intervals == [] and ref.trace.intervals

    @pytest.mark.parametrize("method,p", RUN_METHOD_CASES)
    def test_verifies_exactly_once(self, method, p, monkeypatch):
        calls = []

        def spy(module):
            real = module.run_passes

            def run_passes(schedule, *args, **kwargs):
                calls.append((module.__name__, schedule.name))
                return real(schedule, *args, **kwargs)

            monkeypatch.setattr(module, "run_passes", run_passes)

        spy(registry)
        spy(engine)
        run_method(Workload.paper("1.3B", "H20", p, 32768), method)
        assert [mod for mod, _ in calls] == ["repro.schedules.registry"]

    def test_corrupted_build_still_raises(self, monkeypatch):
        spec = registry.get_schedule("1f1b")
        build = spec.builder

        def drop_first_recv(*args, **kwargs):
            sched = build(*args, **kwargs)
            prog = sched.programs[-1]
            prog.remove(next(i for i in prog if isinstance(i, RecvInstr)))
            return sched

        monkeypatch.setitem(
            registry._REGISTRY,
            "1f1b",
            dataclasses.replace(spec, builder=drop_first_recv),
        )
        wl = Workload.paper("1.3B", "H20", 2, 32768)
        with pytest.raises(ScheduleVerificationError, match="unpaired tag"):
            run_method(wl, "1f1b")


class TestExperimentModules:
    def test_table1_rows(self):
        rows = table1.run()
        assert len(rows) == 9  # 8 ops + total

    def test_table2_rows(self):
        rows = table2.run(p=2, num_layers=4)
        assert {r["pipeline"] for r in rows} == {"1F1B", "ZB1P", "HelixPipe"}

    def test_fig3_monotone(self):
        rows = fig3_breakdown.run(seq_lens=(4096, 32768))
        assert rows[1]["attn_share_pct"] > rows[0]["attn_share_pct"]

    def test_fig4_shape(self):
        rows = fig4_memory_imbalance.run(seq_lens=(131072,))
        assert len(rows) == 8

    def test_fig5(self):
        rows = fig5_partition.run()
        assert len(rows) == 2

    def test_fig6(self):
        rows = fig6_overlap.run(comm_times=(0.0, 1.0))
        assert rows[1]["twofold_makespan"] <= rows[1]["naive_makespan"]

    def test_fig2_fig7_render(self):
        text = fig2_fig7_schedules.render(width=60)
        assert "fig2a_1f1b" in text and "P0 |" in text

    def test_fig8_tiny_grid(self):
        rows = fig8_throughput.run(
            models=("1.3B",), gpus=("H20",), seq_lens=(32768,), pp_sizes=(2,)
        )
        assert len(rows) == 4
        norm = {r["method"]: r["normalized"] for r in rows}
        assert max(norm.values()) == pytest.approx(1.0)
        speed = fig8_throughput.speedup_vs_best_baseline(rows)
        assert len(speed) == 1

    def test_fig9(self):
        rows = fig9_comm.run(seq_lens=(32768,))
        assert {r["gpu"] for r in rows} == {"H20", "A800"}

    def test_fig10(self):
        rows = fig10_memory_footprint.run(p=2, seq_len=32768)
        summary = fig10_memory_footprint.summarize(rows)
        assert {s["method"] for s in summary} == {"1f1b", "zb1p", "adapipe", "helix"}

    def test_fig11(self):
        rows = fig11_recompute.run(gpus=("H20",), p=2, seq_lens=(32768,))
        assert rows[0]["throughput_ratio"] <= 1.0

    def test_chunked_mlp(self):
        rows = chunked_mlp.run(num_layers=2, num_micro_batches=2, s=8192)
        assert {r["variant"] for r in rows} == {
            "unchunked", "unchunked+expandable", "chunked",
        }
