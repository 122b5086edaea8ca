"""Per-phase telemetry for auto-tune sweeps.

The cold sweep decomposes into four phases -- candidate *build* (IR
construction), *bound* pricing (closed-form throughput upper bounds for
pruning), *simulate* (discrete-event evaluation, full or incremental),
and residual *cache/bookkeeping* overhead.  :class:`SweepTelemetry`
accumulates wall time and counters for each so the perf harness
(``repro bench``) can report where a sweep actually spends its time and
gate regressions per phase instead of only end to end.

Pass an instance to :func:`repro.tuner.autotune` (or
:func:`repro.tuner.tune_grid`, which shares one across its points); the
same object can be reused across several sweeps to aggregate, or each
sweep can fill its own and :meth:`SweepTelemetry.merge` it into a
running total.  The object itself is unsynchronised: a sweep writes it
without a lock, so code that shares a total between threads (the
planner service) merges finished sweeps into it under its own lock.  In
parallel sweeps (``workers=N``) the build/simulate work happens inside
pool workers, so only the parent-side phases (bounds, cache merge) are
observed -- per-phase attribution is a serial-sweep tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SweepTelemetry"]


@dataclass
class SweepTelemetry:
    """Wall-clock seconds and counters per sweep phase."""

    build_s: float = 0.0
    simulate_s: float = 0.0
    bound_s: float = 0.0
    eval_s: float = 0.0  # total evaluation-loop wall (cold + cached)
    candidates: int = 0
    built: int = 0
    simulated: int = 0
    build_cache_hits: int = 0
    references_recorded: int = 0
    incremental_hits: int = 0
    incremental_fallbacks: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def cache_s(self) -> float:
        """Evaluation-loop time not attributed to build or simulate.

        Cost-cache lookups, result assembly and pruning bookkeeping;
        clamped at zero (the phases are timed independently, so rounding
        can push the residual marginally negative).
        """
        residual = self.eval_s - self.build_s - self.simulate_s
        return residual if residual > 0.0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the perf harness embeds this)."""
        return {
            "build_s": self.build_s,
            "simulate_s": self.simulate_s,
            "bound_s": self.bound_s,
            "cache_s": self.cache_s,
            "eval_s": self.eval_s,
            "candidates": self.candidates,
            "built": self.built,
            "simulated": self.simulated,
            "build_cache_hits": self.build_cache_hits,
            "references_recorded": self.references_recorded,
            "incremental_hits": self.incremental_hits,
            "incremental_fallbacks": self.incremental_fallbacks,
        }

    def merge(self, other: "SweepTelemetry") -> None:
        """Add ``other``'s wall times and counters into this instance."""
        self.build_s += other.build_s
        self.simulate_s += other.simulate_s
        self.bound_s += other.bound_s
        self.eval_s += other.eval_s
        self.candidates += other.candidates
        self.built += other.built
        self.simulated += other.simulated
        self.build_cache_hits += other.build_cache_hits
        self.references_recorded += other.references_recorded
        self.incremental_hits += other.incremental_hits
        self.incremental_fallbacks += other.incremental_fallbacks
        self.extra.update(other.extra)

    def reset(self) -> None:
        self.build_s = self.simulate_s = self.bound_s = self.eval_s = 0.0
        self.candidates = self.built = self.simulated = 0
        self.build_cache_hits = self.references_recorded = 0
        self.incremental_hits = self.incremental_fallbacks = 0
        self.extra.clear()
