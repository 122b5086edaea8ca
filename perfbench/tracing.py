"""Span tracing for the benchmark's traced run, installed from outside.

The program under test carries no tracing of its own.  :func:`install`
wraps the public entry points of each layer -- ``schedules``, ``sim``,
``tuner``, ``tuner.store``, ``service`` and ``experiments`` -- in place,
and the returned callable puts the originals back.  Every wrapped call
records a :class:`Span`: name, start, end, parent span (the innermost
open span of the same thread) and request id (inherited from the
parent; a root span starts a new one, or takes the ``X-Request-Id``
header when it is an HTTP request).  Spans stay in memory until
:func:`layer_metrics` turns them into per-layer counts, busy time, self
time and wait.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "install", "layer_metrics", "percentile"]

#: Schedules whose builds are reported one by one.
BUILD_SPECS = ("helix", "1f1b", "gpipe", "zb1p", "interleaved", "zb-milp", "adapipe")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span and counter sink shared by every thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        if request is None:
            request = parent.request if parent is not None else f"r{sid}"
        rec = Span(sid, name, time.perf_counter(), 0.0,
                   parent.id if parent is not None else None, request)
        stack.append(rec)
        try:
            yield rec
        except BaseException:
            rec.attrs["error"] = True
            raise
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n


def _replace_everywhere(original: Any, replacement: Any) -> list[tuple[Any, str, Any]]:
    """Rebind every ``repro`` module attribute that is ``original``.

    Functions are imported by name into their callers (``from repro.sim
    import simulate``), so patching the defining module alone would miss
    them.
    """
    undo = []
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the function that unwraps."""
    from repro.experiments import common as experiments_common
    from repro.schedules.registry import ScheduleSpec
    from repro.service.api import PlannerAPIHandler
    from repro.service.planner import PlannerService
    from repro.sim import engine, incremental
    from repro.tuner import autotune
    from repro.tuner.bounds import throughput_upper_bounds
    from repro.tuner.cache import CostCache
    from repro.tuner.ircache import ScheduleIRCache
    from repro.tuner.store import SqliteCostStore

    undo: list[tuple[Any, str, Any]] = []

    def traced(name: str, fn: Callable, before=None, after=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            with tracer.span(name) as span:
                if before is not None:
                    args, kw = before(span, args, kw)
                out = fn(*args, **kw)
                if after is not None:
                    after(span, out)
                return out

        return wrapper

    def patch_function(fn: Callable, name: str, **hooks) -> None:
        undo.extend(_replace_everywhere(fn, traced(name, fn, **hooks)))

    def patch_method(cls: type, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, traced(name, original, **hooks))
        undo.append((cls, attr, original))

    # -- schedules --------------------------------------------------------
    def build_spec(span, args, kw):
        span.attrs["spec"] = args[0].name
        return args, kw

    patch_method(ScheduleSpec, "build", "schedules.build", before=build_spec)

    # -- sim --------------------------------------------------------------
    def resim_mode(span, out):
        span.attrs["mode"] = out[1].mode

    patch_function(engine.compile_programs, "sim.compile_programs")
    patch_method(engine.PipelineSimulator, "run", "sim.run")
    patch_function(engine.simulate, "sim.simulate")
    patch_function(incremental.simulate_recording, "sim.simulate_recording")
    patch_function(incremental.resimulate, "sim.resimulate", after=resim_mode)

    # -- tuner ------------------------------------------------------------
    def sweep_rows(span, rows):
        span.attrs["rows"] = len(rows)
        span.attrs["pruned"] = sum(
            1 for r in rows if (r.reason or "").startswith("pruned:")
        )

    def note_miss(span, args, kw):
        self, key, evaluate = args

        def evaluate_cold():
            span.attrs["miss"] = True
            return evaluate()

        return (self, key, evaluate_cold), kw

    original_ir_get = ScheduleIRCache.get

    def ir_get(self, key):
        sched = original_ir_get(self, key)
        tracer.count("tuner.ircache.lookups")
        if sched is not None:
            tracer.count("tuner.ircache.hits")
        return sched

    patch_function(autotune, "tuner.autotune", after=sweep_rows)
    patch_function(throughput_upper_bounds, "tuner.bounds")
    patch_method(CostCache, "get_or_eval", "tuner.cache", before=note_miss)
    ScheduleIRCache.get = ir_get
    undo.append((ScheduleIRCache, "get", original_ir_get))

    # -- tuner.store ------------------------------------------------------
    def store_hit(span, record):
        span.attrs["hit"] = record is not None

    patch_method(SqliteCostStore, "get", "tuner.store.get", after=store_hit)
    patch_method(SqliteCostStore, "put", "tuner.store.put")
    patch_method(SqliteCostStore, "__contains__", "tuner.store.contains")

    # -- service ----------------------------------------------------------
    def plan_outcome(span, payload):
        span.attrs["outcome"] = payload["outcome"]

    original_dispatch = PlannerAPIHandler.__dict__["_dispatch"]

    @functools.wraps(original_dispatch)
    def dispatch(self, method):
        with tracer.span("service.http", request=self.headers.get("X-Request-Id")):
            return original_dispatch(self, method)

    patch_method(PlannerService, "plan", "service.plan", after=plan_outcome)
    patch_method(PlannerService, "_run_sweep", "service.sweep")
    PlannerAPIHandler._dispatch = dispatch
    undo.append((PlannerAPIHandler, "_dispatch", original_dispatch))

    # -- experiments ------------------------------------------------------
    patch_function(experiments_common.run_method, "experiments.run_method")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at ``q=0.99`` over 1000 values, 10 lie beyond."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children run on their parent's thread, strictly nested and one after
    another, so the covered time is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy, self and wait times from recorded spans."""
    spans = list(tracer.spans)
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name: str) -> int:
        return len(by_name[name])

    def busy(name: str, pick: Callable[[Span], bool] = lambda s: True) -> float:
        return sum(s.duration for s in by_name[name] if pick(s))

    def self_s(name: str) -> float:
        return sum(own[s.id] for s in by_name[name])

    first_child: dict[int, float] = {}
    for span in by_name["tuner.autotune"]:
        if span.parent is not None:
            start = first_child.get(span.parent)
            if start is None or span.start < start:
                first_child[span.parent] = span.start
    plans = by_name["service.plan"]
    # Parse, dedup and lock wait: a plan span's start to its sweep's
    # start; a coalesced follower has no sweep and waits throughout.
    waits = {
        s.id: first_child.get(s.id, s.end) - s.start for s in plans
    }
    warm_waits = [
        1e3 * waits[s.id] for s in plans if s.attrs.get("outcome") == "warm"
    ]
    outcomes = Counter(s.attrs.get("outcome", "failed") for s in plans)
    lookups = calls("tuner.cache")
    misses = sum(1 for s in by_name["tuner.cache"] if s.attrs.get("miss"))
    gets = by_name["tuner.store.get"]
    rows = sum(s.attrs.get("rows", 0) for s in by_name["tuner.autotune"])
    pruned = sum(s.attrs.get("pruned", 0) for s in by_name["tuner.autotune"])
    resims = by_name["sim.resimulate"]

    out = {
        "schedules.build.calls": calls("schedules.build"),
        "schedules.build.busy_s": busy("schedules.build"),
        "schedules.build.errors": sum(
            1 for s in by_name["schedules.build"] if s.attrs.get("error")
        ),
        **{
            f"schedules.build.{spec}.busy_s": busy(
                "schedules.build", lambda s, spec=spec: s.attrs.get("spec") == spec
            )
            for spec in BUILD_SPECS
        },
        "sim.compile_programs.busy_s": busy("sim.compile_programs"),
        "sim.run.calls": calls("sim.run"),
        "sim.run.busy_s": busy("sim.run"),
        "sim.simulate.busy_s": busy("sim.simulate"),
        "sim.simulate_recording.calls": calls("sim.simulate_recording"),
        "sim.simulate_recording.busy_s": busy("sim.simulate_recording"),
        "sim.resimulate.calls": len(resims),
        "sim.resimulate.busy_s": busy("sim.resimulate"),
        "sim.resimulate.incremental_ratio": _ratio(
            sum(1 for s in resims if s.attrs.get("mode") == "incremental"),
            len(resims),
        ),
        "tuner.autotune.calls": calls("tuner.autotune"),
        "tuner.autotune.self_s": self_s("tuner.autotune"),
        "tuner.bounds.busy_s": busy("tuner.bounds"),
        "tuner.prune_ratio": _ratio(pruned, rows),
        "tuner.cache.lookups": lookups,
        "tuner.cache.hit_ratio": _ratio(lookups - misses, lookups),
        "tuner.cache.self_s": self_s("tuner.cache"),
        "tuner.ircache.hit_ratio": _ratio(
            tracer.counts["tuner.ircache.hits"], tracer.counts["tuner.ircache.lookups"]
        ),
        "tuner.store.get.calls": len(gets),
        "tuner.store.get.busy_s": busy("tuner.store.get"),
        "tuner.store.hit_ratio": _ratio(
            sum(1 for s in gets if s.attrs.get("hit")), len(gets)
        ),
        "tuner.store.put.calls": calls("tuner.store.put"),
        "tuner.store.put.busy_s": busy("tuner.store.put"),
        "tuner.store.contains.calls": calls("tuner.store.contains"),
        "tuner.store.contains.busy_s": busy("tuner.store.contains"),
        "service.plan.warm.calls": outcomes["warm"],
        "service.plan.cold.calls": outcomes["cold"],
        "service.plan.coalesced.calls": outcomes["coalesced"],
        "service.plan.wait_s": sum(waits.values()),
        "service.plan.warm.wait_p50_ms": percentile(warm_waits, 0.50) if warm_waits else 0.0,
        "service.plan.warm.wait_p99_ms": percentile(warm_waits, 0.99) if warm_waits else 0.0,
        "service.http.self_s": self_s("service.http"),
        "service.sweep.calls": calls("service.sweep"),
        "service.sweep.busy_s": busy("service.sweep"),
        "service.coalesce_ratio": _ratio(outcomes["coalesced"], len(plans)),
        "experiments.run_method.calls": calls("experiments.run_method"),
        "experiments.run_method.busy_s": busy("experiments.run_method"),
    }
    return {k: float(v) for k, v in out.items()}
