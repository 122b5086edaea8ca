"""Discrete-event simulator for pipeline schedules.

Executes a :class:`~repro.schedules.ir.Schedule` against a
:class:`~repro.cluster.ClusterSpec`:

* each stage owns a serial **compute engine** that runs its
  :class:`~repro.schedules.ir.ComputeInstr` stream in program order;
* each stage owns **communication engines** modelling the NCCL p2p
  channel.  The default is full-duplex (independent send and receive
  engines per stage, matching InfiniBand), which serialises outgoing and
  incoming bytes separately at the fair-share per-GPU bandwidth;
  ``duplex="half"`` forces a single engine per stage, reproducing the
  paper's Figure 6a pathology where a receive delays the following send
  (NCCL's shared-SM channel behaviour) -- kept as an ablation;
* a transfer starts once its SEND has been issued and the required
  engines are free, taking ``cluster.p2p_time(nbytes)`` seconds;
* a RECV blocks the stage's program counter (not its comm engine) until
  the tagged message has fully arrived.

Memory accounting: every stage tracks ``static + sum(stash_delta)`` with
transient ``workspace`` added while an instruction runs; the high-water
mark is reported per stage (paper Figures 4, 10, 11).

The simulator is deterministic: ties are broken by instruction issue
order.

The event core is the auto-tuner's innermost loop (one full run per
candidate), so it is written for speed: each program is compiled once
into primitive opcode tuples (durations, interned integer tags,
precomputed transfer times), events are plain tuples on one heap with a
monotonic sequence counter (the classic heapq+counter idiom), and the
per-stage state lives in parallel scalar lists.  ``record_trace=False``
skips :class:`~repro.sim.trace.Interval` allocation entirely -- metrics
(makespan, busy/blocked time, memory peaks, bytes moved) are tracked
directly and are identical with tracing on or off.

:func:`_run_events` is the only event loop.  Besides running from time
zero it can start from a restored :class:`_State` and can append a
checkpoint (a copy of that state) every N processed events; the
incremental re-simulator (:mod:`repro.sim.incremental`) uses both to
replay a sibling schedule from the shared prefix of a reference run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.cluster.topology import ClusterSpec
from repro.schedules.ir import (
    ComputeInstr,
    RecvInstr,
    Schedule,
    SendInstr,
)
from repro.schedules.passes import (
    check_deadlock_freedom,
    check_structure,
    run_passes,
)
from repro.sim.metrics import SimResult, StageMetrics
from repro.sim.trace import Interval, Trace

__all__ = ["PipelineSimulator", "simulate", "compile_programs", "DeadlockError"]

# Compiled opcodes (first element of every program tuple).
_COMPUTE, _SEND, _RECV = 0, 1, 2


def compile_programs(
    schedule: Schedule,
    cluster: ClusterSpec,
    tag_ids: dict[str, int] | None = None,
) -> tuple[list[list[tuple]], list[str]]:
    """Lower each program of ``schedule`` to primitive opcode tuples.

    Compute: ``(_COMPUTE, duration, stash_delta, workspace+, instr)``.
    Send:    ``(_SEND, tag_id, src, dst, nbytes, p2p_time, instr)``.
    Recv:    ``(_RECV, tag_id, instr)``.

    Tags are interned to dense integers (set membership and the
    blocked-receiver check become int compares) and every transfer
    duration is priced exactly once, with the same ``cluster.p2p_time``
    call the event loop used to make per event.

    ``tag_ids`` lets callers share one interning table across several
    compilations: the incremental re-simulator compiles a sibling
    schedule against its reference's table so that equal tag strings map
    to equal integers in both compiled forms, making opcode tuples
    directly comparable.  New tags extend the table in place.

    The last element of every tuple is the source instruction (labels
    for traces and deadlock reports).
    """
    p2p_time = cluster.p2p_time
    p2p_cache: dict[float, float] = {}
    if tag_ids is None:
        tag_ids = {}
    intern_tag = tag_ids.setdefault
    programs: list[list[tuple]] = []
    for prog in schedule.programs:
        ops: list[tuple] = []
        append = ops.append
        for instr in prog:
            if type(instr) is ComputeInstr or isinstance(instr, ComputeInstr):
                ws = instr.workspace
                append(
                    (
                        _COMPUTE,
                        instr.duration,
                        instr.stash_delta,
                        ws if ws > 0.0 else 0.0,
                        instr,
                    )
                )
            elif type(instr) is SendInstr or isinstance(instr, SendInstr):
                nbytes = instr.nbytes
                dur = p2p_cache.get(nbytes)
                if dur is None:
                    dur = p2p_cache[nbytes] = p2p_time(nbytes)
                append(
                    (
                        _SEND,
                        intern_tag(instr.tag, len(tag_ids)),
                        instr.stage,
                        instr.peer,
                        float(nbytes),
                        dur,
                        instr,
                    )
                )
            elif type(instr) is RecvInstr or isinstance(instr, RecvInstr):
                append((_RECV, intern_tag(instr.tag, len(tag_ids)), instr))
            else:
                raise TypeError(f"unknown instruction type: {type(instr)!r}")
        programs.append(ops)
    tags = [""] * len(tag_ids)
    for tag, tid in tag_ids.items():
        tags[tid] = tag
    return programs, tags


class DeadlockError(RuntimeError):
    """The schedule cannot make progress (missing message / cyclic wait)."""


class PipelineSimulator:
    """Simulate one training iteration of ``schedule`` on ``cluster``.

    Parameters
    ----------
    schedule:
        Per-stage instruction programs (validated before running).
    cluster:
        Provides the p2p link model; must have at least as many nodes as
        the schedule has stages.
    static_memory_bytes:
        Per-stage baseline (model states) added to activation tracking.
    duplex:
        ``"half"`` (one comm engine per stage) or ``"full"`` (default).
    verify:
        Run the executability passes before simulating.  Callers that
        just verified the schedule (registry builds) may disable this.
    record_trace:
        Record per-interval :class:`~repro.sim.trace.Trace` entries.
        Disabling skips all Interval allocation (the tuner's hot path);
        every :class:`~repro.sim.metrics.SimResult` metric is identical
        either way -- only ``result.trace`` is left empty.
    """

    def __init__(
        self,
        schedule: Schedule,
        cluster: ClusterSpec,
        static_memory_bytes: list[float] | float = 0.0,
        duplex: str = "full",
        verify: bool = True,
        record_trace: bool = True,
    ) -> None:
        # The simulator only needs the executability passes (structure +
        # static deadlock-freedom); accounting properties like stash
        # balance are builder-level invariants verified at build time,
        # and hand-written fragments (tests, what-if probes) may violate
        # them on purpose.
        if verify:
            run_passes(schedule, passes=(check_structure, check_deadlock_freedom))
        if cluster.num_stages < schedule.num_stages:
            raise ValueError(
                f"cluster has {cluster.num_stages} nodes but schedule needs "
                f"{schedule.num_stages}"
            )
        if duplex not in ("half", "full"):
            raise ValueError(f"duplex must be 'half' or 'full', got {duplex!r}")
        self.schedule = schedule
        self.cluster = cluster
        self.duplex = duplex
        self.record_trace = record_trace
        p = schedule.num_stages
        if isinstance(static_memory_bytes, (int, float)):
            static_memory_bytes = [float(static_memory_bytes)] * p
        if len(static_memory_bytes) != p:
            raise ValueError("static_memory_bytes must have one entry per stage")
        self.static = [float(x) for x in static_memory_bytes]

    def run(self) -> SimResult:
        programs, _ = compile_programs(self.schedule, self.cluster)
        return _run_events(
            self.schedule.name,
            programs,
            self.static,
            self.duplex == "half",
            trace=Trace() if self.record_trace else None,
        )


@dataclass
class _State:
    """The event core between two events: everything the loop reads and writes.

    Per-stage values are parallel lists indexed by stage.  ``events`` is
    the event heap of ``(time, seq, opcode, ...)`` tuples and
    ``pending`` the heap of issued transfers waiting for free engines,
    ``(ready_time, seq, send_op)``; ``eseq`` and ``tseq`` are their next
    sequence numbers.  ``arrived`` holds the interned tags of delivered
    messages.
    """

    pc: list[int]
    blocked_tag: list[int | None]
    blocked_since: list[float]
    busy_time: list[float]
    comm_blocked: list[float]
    current_mem: list[float]
    peak_mem: list[float]
    bytes_sent: list[float]
    bytes_received: list[float]
    comm_free: list[float]  # half-duplex engine
    send_free: list[float]  # full-duplex engines
    recv_free: list[float]
    events: list[tuple]
    pending: list[tuple]
    arrived: set[int]
    eseq: int = 0
    tseq: int = 0
    makespan: float = 0.0
    events_processed: int = 0

    @classmethod
    def start(cls, static: list[float]) -> _State:
        """Time zero: nothing issued, memory at the static baseline."""
        p = len(static)
        return cls(
            pc=[0] * p,
            blocked_tag=[None] * p,
            blocked_since=[0.0] * p,
            busy_time=[0.0] * p,
            comm_blocked=[0.0] * p,
            current_mem=list(static),
            peak_mem=list(static),
            bytes_sent=[0.0] * p,
            bytes_received=[0.0] * p,
            comm_free=[0.0] * p,
            send_free=[0.0] * p,
            recv_free=[0.0] * p,
            events=[],
            pending=[],
            arrived=set(),
        )

    def snapshot(self) -> _State:
        """A copy that shares no list with this state, ``arrived`` left empty.

        ``arrived`` grows with the run, so a checkpoint that copied it
        would cost time and memory quadratic in the run length; a resume
        rebuilds it from ``pc``, ``events`` and ``pending`` instead
        (:func:`repro.sim.incremental.resimulate`).
        """
        return _State(
            pc=self.pc[:],
            blocked_tag=self.blocked_tag[:],
            blocked_since=self.blocked_since[:],
            busy_time=self.busy_time[:],
            comm_blocked=self.comm_blocked[:],
            current_mem=self.current_mem[:],
            peak_mem=self.peak_mem[:],
            bytes_sent=self.bytes_sent[:],
            bytes_received=self.bytes_received[:],
            comm_free=self.comm_free[:],
            send_free=self.send_free[:],
            recv_free=self.recv_free[:],
            events=self.events[:],
            pending=self.pending[:],
            arrived=set(),
            eseq=self.eseq,
            tseq=self.tseq,
            makespan=self.makespan,
            events_processed=self.events_processed,
        )


def _run_events(
    name: str,
    programs: list[list[tuple]],
    static: list[float],
    half: bool,
    state: _State | None = None,
    trace: Trace | None = None,
    checkpoints: list[_State] | None = None,
    every: int = 0,
) -> SimResult:
    """Run compiled ``programs`` to completion: the one event loop.

    ``state`` is the state to run from (default: time zero; it is
    mutated in place).  ``trace``, when given, receives one
    :class:`~repro.sim.trace.Interval` per compute and transfer.
    ``checkpoints``, when given, receives a :meth:`_State.snapshot`
    after every ``every`` processed events while events remain.
    Raises :class:`DeadlockError` when a stage cannot finish.
    """
    p = len(programs)
    sizes = [len(ops) for ops in programs]
    fresh = state is None
    if state is None:
        state = _State.start(static)
    # Per-stage scalar state in parallel lists (cheaper than attribute
    # access on a state object in the inner loop).
    pc = state.pc
    blocked_tag = state.blocked_tag
    blocked_since = state.blocked_since
    busy_time = state.busy_time
    comm_blocked = state.comm_blocked
    current_mem = state.current_mem
    peak_mem = state.peak_mem
    bytes_sent = state.bytes_sent
    bytes_received = state.bytes_received
    comm_free = state.comm_free
    send_free = state.send_free
    recv_free = state.recv_free
    events = state.events
    pending = state.pending
    arrived = state.arrived
    eseq = state.eseq
    tseq = state.tseq
    makespan = state.makespan
    nproc = state.events_processed
    next_checkpoint = nproc + every if checkpoints is not None else -1
    heappush, heappop = heapq.heappush, heapq.heappop

    def start_transfers(now: float) -> None:
        # Start every pending transfer whose engines are free at
        # ``now``.  A single pass in (ready_time, issue order)
        # suffices: starting a transfer only makes engines busier,
        # never frees one.
        nonlocal eseq
        still: list[tuple] = []
        while pending:
            item = heappop(pending)
            if item[0] <= now:
                op = item[2]
                src, dst = op[2], op[3]
                if half:
                    a, b = comm_free[src], comm_free[dst]
                else:
                    a, b = send_free[src], recv_free[dst]
                if (a if a > b else b) <= now:
                    end = now + op[5]
                    if half:
                        comm_free[src] = end
                        comm_free[dst] = end
                    else:
                        send_free[src] = end
                        recv_free[dst] = end
                    heappush(events, (end, eseq, _SEND, op, now))
                    eseq += 1
                    continue
            still.append(item)
        for item in still:
            heappush(pending, item)

    def advance(stage: int, now: float) -> None:
        # Run the stage's program counter forward until it starts a
        # compute, blocks on a missing message, or finishes.
        nonlocal eseq, tseq
        ops = programs[stage]
        n = sizes[stage]
        i = pc[stage]
        while i < n:
            op = ops[i]
            code = op[0]
            if code == _COMPUTE:
                high = current_mem[stage] + op[3]
                if high > peak_mem[stage]:
                    peak_mem[stage] = high
                heappush(events, (now + op[1], eseq, _COMPUTE, stage, op, now))
                eseq += 1
                pc[stage] = i
                return
            if code == _SEND:
                heappush(pending, (now, tseq, op))
                tseq += 1
                i += 1
                pc[stage] = i
                start_transfers(now)
                continue
            # _RECV
            if op[1] in arrived:
                i += 1
                continue
            blocked_tag[stage] = op[1]
            blocked_since[stage] = now
            pc[stage] = i
            return
        pc[stage] = i

    if fresh:
        for stage in range(p):
            advance(stage, 0.0)

    # Events pop in non-decreasing time order, so the makespan is
    # simply the time of the last event (identical to the maximum
    # interval end the trace used to report).
    while events:
        ev = heappop(events)
        t = ev[0]
        makespan = t
        if ev[2] == _COMPUTE:
            stage, op = ev[3], ev[4]
            busy_time[stage] += op[1]
            cur = current_mem[stage] + op[2]
            current_mem[stage] = cur
            if cur > peak_mem[stage]:
                peak_mem[stage] = cur
            if trace is not None:
                instr = op[4]
                trace.add(
                    Interval(
                        kind="compute",
                        stage=stage,
                        start=ev[5],
                        end=t,
                        label=instr.label,
                        micro_batch=instr.micro_batch,
                    )
                )
            pc[stage] += 1
            advance(stage, t)
        else:  # _SEND completion
            op = ev[3]
            tid, src, dst = op[1], op[2], op[3]
            arrived.add(tid)
            bytes_sent[src] += op[4]
            bytes_received[dst] += op[4]
            if trace is not None:
                instr = op[6]
                trace.add(
                    Interval(
                        kind="comm",
                        stage=src,
                        start=ev[4],
                        end=t,
                        label=instr.tag,
                        micro_batch=instr.micro_batch,
                        peer=dst,
                    )
                )
            start_transfers(t)
            if blocked_tag[dst] == tid:
                blocked_tag[dst] = None
                comm_blocked[dst] += t - blocked_since[dst]
                pc[dst] += 1
                advance(dst, t)
        nproc += 1
        if nproc == next_checkpoint:
            next_checkpoint += every
            if events:
                state.eseq, state.tseq = eseq, tseq
                state.makespan, state.events_processed = makespan, nproc
                checkpoints.append(state.snapshot())  # type: ignore[union-attr]

    stuck = []
    for stage in range(p):
        i = pc[stage]
        if i < sizes[stage]:
            instr = programs[stage][i][-1]
            blocked = None if blocked_tag[stage] is None else instr.tag
            stuck.append(
                f"stage {stage} stuck at pc={i} "
                f"({instr.label}, blocked_on={blocked})"
            )
    if pending:
        tags = [item[2][6].tag for item in pending]
        stuck.append(f"undelivered transfers: {tags[:5]}")
    if stuck:
        raise DeadlockError(f"schedule {name!r} deadlocked:\n  " + "\n  ".join(stuck))

    stages = [
        StageMetrics(
            stage=i,
            busy_time=busy_time[i],
            comm_blocked_time=comm_blocked[i],
            peak_memory_bytes=peak_mem[i],
            static_memory_bytes=static[i],
            bytes_sent=bytes_sent[i],
            bytes_received=bytes_received[i],
        )
        for i in range(p)
    ]
    return SimResult(
        schedule_name=name,
        makespan=makespan,
        stages=stages,
        trace=trace if trace is not None else Trace(),
    )


def simulate(
    schedule: Schedule,
    cluster: ClusterSpec,
    static_memory_bytes: list[float] | float = 0.0,
    duplex: str = "full",
    verify: bool = True,
    record_trace: bool = True,
) -> SimResult:
    """Convenience wrapper: build a :class:`PipelineSimulator` and run it."""
    return PipelineSimulator(
        schedule, cluster, static_memory_bytes, duplex, verify, record_trace
    ).run()
