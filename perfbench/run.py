"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--workload all`` runs every workload in
turn.  The process that parses these arguments imports nothing from the
program: it starts each measurement in a fresh interpreter (this file
again, with ``--child``) and times that interpreter's set-up from launch.

``--trace 0``
    Set up ``SETUP_REPEATS`` times (``setup_s`` is the median), run the
    workload for ``--seconds`` and check its outputs.  The last line of
    standard output is one JSON object with every end-to-end metric
    named in ``BENCHMARK.json``.
``--trace 1``
    The same run untraced, then again with span tracing installed
    (``tracing.py``); prints every per-layer metric, including the
    tracing overhead between the two runs.

Lines before the JSON print the per-workload metric names the README
uses (``candidates_per_s``, ``warm_p99_ms`` ...).  Inputs, spans and a
record of each run land in ``.perfbench_runs/``.  A failed output check
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD_DIR = os.path.join(ROOT, ".perfbench_runs")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("plan-cold", "paper-grid", "serve-mixed")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Wall-clock budget of one workload, within the 180 s contract.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def calibrate_ms() -> float:
    """Median time of a fixed pure-Python loop: host speed, never a rescale."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(samples)


def record_path(args: argparse.Namespace, suffix: str) -> str:
    return os.path.join(
        RECORD_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{suffix}"
    )


# -- child: one fresh interpreter ---------------------------------------------


def child(args: argparse.Namespace) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    inputs = cls.make_inputs(args.seed, args.seconds)
    os.makedirs(TMP_DIR, exist_ok=True)
    os.makedirs(RECORD_DIR, exist_ok=True)
    wl = cls(inputs, TMP_DIR)
    tracer = uninstall = None
    try:
        wl.setup()
        setup_s = time.monotonic() - args.launched
        if args.child == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return
        if args.trace:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        wl.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if uninstall is not None:
            uninstall()
        errors = wl.check()
        report = wl.report()
    finally:
        if uninstall is not None:
            uninstall()
        wl.close()
    with open(record_path(args, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh, sort_keys=True)
    report.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb, errors=errors)
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
        with open(record_path(args, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
    print(json.dumps(report))


# -- parent: launches children, assembles the result --------------------------


def launch(args: argparse.Namespace, mode: str, trace: int, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{args.workload}: out of time before the {mode} run")
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd + ["--launched", repr(time.monotonic())],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: {mode} run exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{args.workload}: {mode} run exited {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def run_workload(args: argparse.Namespace, declared: dict) -> dict:
    """One workload's result object (the contract's last-line JSON)."""
    deadline = time.monotonic() + BUDGET_S
    calib_before = calibrate_ms()
    if args.trace:
        plain = launch(args, "run", 0, deadline)
        main = launch(args, "run", 1, deadline)
        setups = [main["setup_s"]]
    else:
        setups = [
            launch(args, "setup", 0, deadline)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        main = launch(args, "run", 0, deadline)
        setups.append(main["setup_s"])
    calib_after = calibrate_ms()

    setup_s = statistics.median(setups)
    failed_ratio = main["failed"] / main["attempted"]
    named = {
        **main["named"],
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "failed_ratio": (failed_ratio, "ratio"),
    }
    if args.trace:
        values = {
            **main["layers"],
            **main.get("loadgen", {"loadgen.sent": 0, "loadgen.failed": 0,
                                   "loadgen.late_p99_ms": 0.0}),
            "host.calib_ms": calib_before,
            "host.calib_after_ms": calib_after,
            "trace.overhead_ratio": main["p50_ms"] / plain["p50_ms"] - 1.0,
        }
        errors = plain["errors"] + main["errors"]
        kind = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": main["peak_rss_mb"],
            "ok_ratio": 1.0 - failed_ratio,
            "throughput": main["throughput"],
            "p50_ms": main["p50_ms"],
            "tail_ms": main["tail_ms"],
        }
        errors = main["errors"]
        kind = "end_to_end"
    missing = sorted(m["name"] for m in declared[kind] if m["name"] not in values)
    if missing:
        raise BenchError(f"{args.workload}: no value for declared metric(s) {missing}")
    result = {
        "correct": not errors,
        "attempted": int(main["attempted"]),
        "failed": int(main["failed"]),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared[kind]
        },
    }

    for name, (value, unit) in named.items():
        print(f"{args.workload:12} {name:20} {value:14.6g} {unit}")
    print(f"{args.workload:12} {'digest':20} {main['digest']:>14}")
    print(f"{args.workload:12} {'host.calib_ms':20} {calib_before:14.6g} ms "
          f"(after: {calib_after:.6g} ms)")
    for err in errors:
        print(f"{args.workload:12} CHECK FAILED: {err}")
    os.makedirs(RECORD_DIR, exist_ok=True)
    with open(record_path(args, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"args": vars(args), "result": result, "named": named,
             "digest": main["digest"], "errors": errors,
             "host.calib_ms": [calib_before, calib_after]},
            fh, indent=2, sort_keys=True,
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args)
        return 0

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
            raise BenchError(f"no program to measure: {ROOT}/src/repro is missing")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        if args.workload != "all":
            result = run_workload(args, declared)
        else:
            results = {}
            for name in WORKLOADS:
                sub = argparse.Namespace(**{**vars(args), "workload": name})
                results[name] = run_workload(sub, declared)
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()
                },
            }
        line = json.dumps(result, allow_nan=False)
    except (BenchError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
