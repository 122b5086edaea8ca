"""Incremental re-simulation: resume a sibling from a shared timeline prefix.

The auto-tuner frequently simulates *families* of candidate schedules
that share structure and diverge only late in their instruction streams:
recompute siblings (``NONE`` vs ``WITHOUT_ATTENTION``) run a bit-identical
forward phase and only differ once recompute ops appear in the backward
phase.  Re-running the full discrete-event simulation for every sibling
re-derives an identical event prefix each time.

The event loop itself lives in :mod:`repro.sim.engine`
(:func:`~repro.sim.engine._run_events`, the only one); this module
decides where a sibling may resume it:

* :func:`simulate_recording` runs one **reference** simulation that also
  keeps a checkpoint (a copy of the engine state) every N processed
  events.  Its metrics are those of :func:`repro.sim.simulate`.
* :func:`resimulate` simulates a **sibling** schedule by locating the
  first per-stage *timing divergence* between the compiled op streams,
  restoring the latest checkpoint that precedes every divergence, and
  running the event loop forward from there.

Safety model -- the divergence detector is conservative by construction:

* Only the fields the event loop's *timing* depends on are compared
  (compute: duration; send: tag/endpoints/bytes/transfer time; recv:
  tag).  Two ops with equal projections schedule identically.
* Memory fields (``stash_delta``/``workspace``) are excluded from the
  projection because memory never feeds back into event timing; instead
  the sibling's memory is *replayed exactly* over each stage's executed
  prefix with its own per-op deltas (recompute siblings diverge in
  memory immediately even while their timing prefix is identical).  A
  stage's memory depends only on its own ops in program order, so the
  replay reproduces the loop's sums and peaks bit for bit.
* The delivered-message set is rebuilt the same way: every send before
  a stage's program counter that is neither waiting nor in flight.
* Anything else -- different stage counts, duplex modes, no checkpoint
  before the earliest divergence -- falls back to a full simulation.

Whenever the incremental path runs, every metric in the returned
:class:`~repro.sim.metrics.SimResult` is bit-identical to a from-scratch
simulation of the sibling (enforced by the differential test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import ClusterSpec
from repro.schedules.ir import Schedule
from repro.sim.engine import (
    _COMPUTE,
    _SEND,
    PipelineSimulator,
    _run_events,
    _State,
    compile_programs,
)
from repro.sim.metrics import SimResult

__all__ = [
    "SimReference",
    "ResimStats",
    "simulate_recording",
    "resimulate",
]


@dataclass
class SimReference:
    """A recorded reference simulation that siblings can resume from.

    ``checkpoints`` are engine states copied every ``checkpoint_every``
    processed events (without their delivered-message sets, which a
    resume rebuilds).  ``tag_ids`` is the shared interning table:
    sibling compilations extend it so equal tags compare as equal ints.
    """

    schedule: Schedule
    cluster: ClusterSpec
    static: list[float]
    duplex: str
    programs: list[list[tuple]]
    sizes: list[int]
    tag_ids: dict[str, int]
    checkpoint_every: int
    checkpoints: list[_State] = field(default_factory=list)
    result: SimResult | None = None


@dataclass(frozen=True)
class ResimStats:
    """How one :func:`resimulate` call executed (for tests/telemetry)."""

    mode: str  # "incremental" | "fallback"
    reason: str | None = None
    resumed_at_events: int = 0
    divergence_indices: tuple[int, ...] | None = None


def _timing_equal(a: tuple, b: tuple) -> bool:
    """True iff two compiled ops schedule identically (memory ignored)."""
    code = a[0]
    if code != b[0]:
        return False
    if code == _COMPUTE:
        return a[1] == b[1]
    if code == _SEND:
        return (
            a[1] == b[1]
            and a[2] == b[2]
            and a[3] == b[3]
            and a[4] == b[4]
            and a[5] == b[5]
        )
    return a[1] == b[1]  # _RECV: tag id


def simulate_recording(
    schedule: Schedule,
    cluster: ClusterSpec,
    static_memory_bytes: list[float] | float = 0.0,
    duplex: str = "full",
    verify: bool = True,
    checkpoint_every: int = 256,
) -> SimReference:
    """Simulate ``schedule`` while recording resume state for siblings.

    Returns a :class:`SimReference` whose ``result`` carries metrics
    bit-identical to :func:`repro.sim.simulate` (with an empty trace).
    ``checkpoint_every`` controls the resume granularity: one full-state
    snapshot per that many processed events.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    # Reuse the simulator's argument validation/normalisation.
    sim = PipelineSimulator(
        schedule, cluster, static_memory_bytes, duplex, verify, record_trace=False
    )
    tag_ids: dict[str, int] = {}
    programs, _ = compile_programs(schedule, cluster, tag_ids)
    ref = SimReference(
        schedule=schedule,
        cluster=cluster,
        static=sim.static,
        duplex=duplex,
        programs=programs,
        sizes=[len(ops) for ops in programs],
        tag_ids=tag_ids,
        checkpoint_every=checkpoint_every,
    )
    ref.result = _run_events(
        schedule.name,
        programs,
        ref.static,
        duplex == "half",
        checkpoints=ref.checkpoints,
        every=checkpoint_every,
    )
    return ref


def resimulate(
    reference: SimReference,
    schedule: Schedule,
    cluster: ClusterSpec,
    static_memory_bytes: list[float] | float = 0.0,
    duplex: str = "full",
    verify: bool = True,
) -> tuple[SimResult, ResimStats]:
    """Simulate ``schedule`` by resuming ``reference``'s timeline prefix.

    Falls back to a full simulation whenever prefix reuse cannot be
    proven safe; either way the returned metrics are bit-identical to
    :func:`repro.sim.simulate` on the sibling.
    """
    sim = PipelineSimulator(
        schedule, cluster, static_memory_bytes, duplex, verify, record_trace=False
    )

    def fallback(reason: str) -> tuple[SimResult, ResimStats]:
        return sim.run(), ResimStats(mode="fallback", reason=reason)

    p = schedule.num_stages
    if p != reference.schedule.num_stages:
        return fallback("stage count differs from reference")
    if duplex != reference.duplex:
        return fallback("duplex mode differs from reference")
    if not reference.checkpoints:
        return fallback("reference recorded no checkpoints")

    programs, _ = compile_programs(schedule, cluster, reference.tag_ids)
    sizes = [len(ops) for ops in programs]

    # First per-stage timing divergence between reference and sibling.
    ks: list[int] = []
    for rops, sops in zip(reference.programs, programs):
        n = min(len(rops), len(sops))
        k = 0
        while k < n and _timing_equal(rops[k], sops[k]):
            k += 1
        ks.append(k)
    ref_sizes = reference.sizes

    # Latest checkpoint at which every stage is still inside its shared
    # prefix: either strictly before the divergent op (so any in-flight
    # or blocked op at ``pc`` is timing-identical), or fully done with a
    # program the sibling matches end to end.
    best = None
    for cp in reversed(reference.checkpoints):
        cpc = cp.pc
        for s in range(p):
            pcs = cpc[s]
            k = ks[s]
            if pcs < k:
                continue
            if pcs == k and k == ref_sizes[s] and k == sizes[s]:
                continue
            break
        else:
            best = cp
            break
    if best is None:
        return fallback("no checkpoint precedes the first divergence")

    state = best.snapshot()
    pc = state.pc
    # In-flight compute events reference ops from the *reference*
    # program; remap each to the sibling's op at the same index (the
    # stage's current pc).  Timing fields are equal inside the prefix --
    # only the memory fields (consumed at completion) may differ.
    # Sort keys are untouched, so the heap invariant is preserved.
    state.events = [
        (ev[0], ev[1], _COMPUTE, ev[3], programs[ev[3]][pc[ev[3]]], ev[5])
        if ev[2] == _COMPUTE
        else ev
        for ev in best.events
    ]

    # Replay each stage's executed prefix: the sibling's memory with its
    # own stash/workspace values (recompute siblings diverge in memory
    # long before they diverge in timing), and the delivered messages --
    # every send issued before the checkpoint that is neither waiting
    # for an engine nor in flight.  Ops before ``pc`` have completed; a
    # compute at ``pc`` has started but not completed.
    undelivered = {id(item[2]) for item in best.pending}
    undelivered.update(id(ev[3]) for ev in best.events if ev[2] == _SEND)
    static = sim.static
    for s, (rops, sops) in enumerate(zip(reference.programs, programs)):
        cur = peak = static[s]
        i = pc[s]
        for rop, op in zip(rops[:i], sops):
            if op[0] == _COMPUTE:
                high = cur + op[3]
                if high > peak:
                    peak = high
                cur = cur + op[2]
                if cur > peak:
                    peak = cur
            elif op[0] == _SEND and id(rop) not in undelivered:
                state.arrived.add(op[1])
        if i < sizes[s] and sops[i][0] == _COMPUTE:
            high = cur + sops[i][3]
            if high > peak:
                peak = high
        state.current_mem[s] = cur
        state.peak_mem[s] = peak

    result = _run_events(schedule.name, programs, static, duplex == "half", state)
    return result, ResimStats(
        mode="incremental",
        resumed_at_events=best.events_processed,
        divergence_indices=tuple(ks),
    )
