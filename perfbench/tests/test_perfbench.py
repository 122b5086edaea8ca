"""Tests of the benchmark itself: metrics, span nesting, seeded inputs.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.service import PlannerService  # noqa: E402
from repro.tuner import CostCache  # noqa: E402
from repro.workloads import Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


NAMED = {
    "plan-cold": ("candidates_per_s", "sweep_p50_ms", "sweep_p90_ms"),
    "paper-grid": ("grid_p50_s", "cell_p99_ms"),
    "serve-mixed": ("warm_p50_ms", "warm_p97_ms", "warm_p99_ms", "cold_p50_ms"),
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_emits_every_end_to_end_metric(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for metric in DECLARED["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    assert len(result["metrics"]) == len(DECLARED["end_to_end"])
    printed = {line.split()[1] for line in lines[:-1]}
    assert set(NAMED[workload]) | {"setup_s", "peak_rss_mb", "failed_ratio"} <= printed


def test_traced_run_emits_every_per_layer_metric():
    proc = run_bench("serve-mixed", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == {
        name: got["unit"] for name, got in result["metrics"].items()
    }
    layers = result["metrics"]
    assert layers["service.plan.warm.calls"]["value"] > 0
    assert layers["tuner.store.get.calls"]["value"] > 0
    assert layers["loadgen.sent"]["value"] == result["attempted"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("plan-cold", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spans_nest_and_self_time_is_non_negative():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        from repro import tuner
        from repro.experiments.registry import get_experiment

        tuner.autotune(Workload.paper("1.3B", "H20", 4, 16384), cache=CostCache())
        PlannerService(CostCache()).plan({"model": "1.3B", "p": 2, "seq_len": 16384})
        get_experiment("fig8_throughput").run(smoke=True)
    finally:
        uninstall()
    spans = {s.id: s for s in tracer.spans}
    names = {s.name for s in spans.values()}
    assert {"tuner.autotune", "tuner.cache", "schedules.build", "sim.run",
            "service.plan", "experiments.run_method"} <= names
    for span in spans.values():
        assert span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert span.request == parent.request
    assert all(v >= 0 for v in tracing.self_times(list(spans.values())).values())
    metrics = tracing.layer_metrics(tracer)
    assert metrics["schedules.build.calls"] > 0
    assert metrics["service.plan.cold.calls"] == 1


def test_uninstall_restores_every_entry_point():
    from repro import tuner
    from repro.schedules.registry import ScheduleSpec
    from repro.sim import engine

    before = (tuner.autotune, ScheduleSpec.build, engine.PipelineSimulator.run,
              engine.compile_programs)
    tracing.install(tracing.Tracer())()
    after = (tuner.autotune, ScheduleSpec.build, engine.PipelineSimulator.run,
             engine.compile_programs)
    assert before == after


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    cls = workloads.WORKLOADS[workload]
    first = json.dumps(cls.make_inputs(7, 30.0), sort_keys=True)
    assert json.dumps(cls.make_inputs(7, 30.0), sort_keys=True) == first
    assert json.dumps(cls.make_inputs(8, 30.0), sort_keys=True) != first


def test_plan_cold_passes_time_the_same_distinct_queries():
    inputs = workloads.PlanCold.make_inputs(1, 30.0)
    queries = inputs["queries"]
    assert queries == workloads.PlanCold.make_inputs(2, 30.0)["queries"]
    assert len({(q["model"], q["gpu"], q["p"]) for q in queries}) == len(queries) == 32
    lengths = [q["seq_len"] for q in queries]
    assert all(lengths.count(s) == 4 for s in workloads.PlanCold.SEQ_LENS)
    assert all(sorted(order) == list(range(32)) for order in inputs["passes"])


def test_serve_mixed_novel_queries_never_hit_the_warm_set():
    inputs = workloads.ServeMixed.make_inputs(1, 30.0)
    warm = {json.dumps(q, sort_keys=True) for q in inputs["warm"]}
    slots = inputs["slots"]
    assert [s["due"] for s in slots] == sorted(s["due"] for s in slots)
    novel = [s for s in slots if s["kind"] in ("novel", "burst")]
    assert novel and all(json.dumps(s["body"], sort_keys=True) not in warm for s in novel)
    assert sum(s["kind"] == "sweep" for s in slots) == len(workloads.ServeMixed.SWEEP_SEQS)


def test_plan_cold_check_catches_a_wrong_answer():
    inputs = workloads.PlanCold.make_inputs(1, 1.0)
    # Two cheap queries, p=2, twice each.
    cheap = [i for i, q in enumerate(inputs["queries"]) if q["p"] == 2][:2]
    inputs["passes"] = [cheap, cheap]
    inputs["check_indices"] = cheap
    wl = workloads.PlanCold(inputs, ROOT)
    wl.MIN_PASSES = 2
    wl.run(0.0)
    assert wl.check() == []
    a, b = cheap
    wl.sweeps[b][0]["best"] = wl.sweeps[a][0]["best"]
    # Pass 1 of query b no longer matches its pass 0, nor does pass 0
    # match the exhaustive sweep.
    assert len(wl.check()) == 2
