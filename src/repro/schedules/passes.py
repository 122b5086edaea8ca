"""Verification passes over built pipeline schedules.

Every schedule the repository produces -- whatever builder emitted it --
is run through the same pass pipeline before an executor touches it:

``structure``
    Per-instruction sanity: the ``stage`` field matches the program the
    instruction sits in, message tags pair up (exactly one SEND and one
    RECV per tag, mirrored endpoints, equal sizes), and no self-sends.
``deadlock``
    Static deadlock-freedom under the IR's execution semantics (SENDs
    issue asynchronously once the program counter reaches them, RECVs
    block until the matching SEND has been issued).  A worklist abstract
    execution advances every stage as far as possible: a stage that
    reaches a RECV whose tag is not issued yet parks on that tag, and
    the SEND that issues the tag puts it back on the worklist, so each
    instruction is stepped over once.  If any program counter is still
    short of its program end at the fixed point, the schedule contains
    a cyclic wait or a RECV whose SEND can never be issued, and the
    blocked stages/tags are reported.
``program-order``
    Per-stage, per-(micro batch, segment) ordering: forward before any
    backward, RC between forward and its backward, BI before BW, and no
    duplicated passes.  Each (micro batch, segment) keeps a bitmask of
    the ops seen so far plus the last op.
``stash-balance``
    The Table 2 accounting property: per stage, the running sum of
    ``stash_delta`` never goes negative (nothing is released before it
    was stashed) and returns to zero at the end of the iteration (every
    stashed byte is released -- schedules must not leak activations
    across iterations).

Every registry build runs these four passes, so their loops are kept
cheap: ``type(instr) is X`` dispatch with an ``isinstance`` fallback for
subclasses, and one pass over each program.  Their findings (messages,
stages and order) are pinned on a mutation corpus in
``tests/schedules/test_passes.py``.

Passes return :class:`PassIssue` lists instead of asserting inline, so
callers can either raise (:func:`run_passes` default, via
:class:`ScheduleVerificationError`) or collect diagnostics.  The
pipeline replaces the ad-hoc assertions that used to live in the
individual builders and in :mod:`repro.sim.engine`; the simulator keeps
its runtime :class:`~repro.sim.engine.DeadlockError` only as a backstop.

The four checks here are also registered (category ``executability``,
severity ERROR) with the :mod:`repro.schedules.analysis` framework, so
``run_analysis`` and ``repro lint`` run them alongside the dataflow
analyses; :func:`run_passes` keeps its historical fail-fast contract for
``Schedule.validate()``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Sequence

from repro.schedules.analysis.framework import (
    PassIssue,
    Severity,
    format_issue_table,
    register_pass,
)
from repro.schedules.ir import (
    ComputeInstr,
    OpType,
    RecvInstr,
    Schedule,
    SendInstr,
)

__all__ = [
    "PassIssue",
    "Severity",
    "ScheduleVerificationError",
    "check_structure",
    "check_deadlock_freedom",
    "check_program_order",
    "check_stash_balance",
    "DEFAULT_PASSES",
    "run_passes",
]


class ScheduleVerificationError(ValueError):
    """A schedule failed one of the verification passes."""

    def __init__(self, schedule_name: str, issues: Sequence[PassIssue]) -> None:
        self.schedule_name = schedule_name
        self.issues = list(issues)
        shown = "\n  ".join(str(i) for i in self.issues[:8])
        extra = "" if len(self.issues) <= 8 else f"\n  ... {len(self.issues) - 8} more"
        super().__init__(
            f"schedule {schedule_name!r} failed verification:\n  {shown}{extra}"
        )

    def format(self) -> str:
        """The full issue list as an aligned table (no 8-row cap)."""
        header = f"schedule {self.schedule_name!r} failed verification:"
        return f"{header}\n{format_issue_table(self.issues)}"


PassFn = Callable[[Schedule], list[PassIssue]]


# -- structure ---------------------------------------------------------------


@register_pass(
    "structure",
    description="stage fields, SEND/RECV tag pairing, endpoint mirroring",
    category="executability",
)
def check_structure(schedule: Schedule) -> list[PassIssue]:
    """Stage fields, SEND/RECV tag pairing, endpoint mirroring, sizes."""
    issues: list[PassIssue] = []
    sends: dict[str, SendInstr] = {}
    recvs: dict[str, RecvInstr] = {}
    if len(schedule.programs) != schedule.num_stages:
        issues.append(
            PassIssue(
                "structure",
                f"{len(schedule.programs)} programs for "
                f"{schedule.num_stages} stages",
            )
        )
        return issues
    for stage, prog in enumerate(schedule.programs):
        for instr in prog:
            if instr.stage != stage:
                issues.append(
                    PassIssue(
                        "structure",
                        f"instruction {instr.label} has stage {instr.stage} "
                        f"but sits in program {stage}",
                        stage=stage,
                    )
                )
            cls = type(instr)
            if cls is ComputeInstr:
                continue
            if cls is SendInstr or isinstance(instr, SendInstr):
                if instr.peer == instr.stage:
                    issues.append(
                        PassIssue("structure", f"self-send {instr.label}", stage=stage)
                    )
                if instr.tag in sends:
                    issues.append(
                        PassIssue(
                            "structure", f"duplicate send tag {instr.tag}", stage=stage
                        )
                    )
                sends[instr.tag] = instr
            elif cls is RecvInstr or isinstance(instr, RecvInstr):
                if instr.tag in recvs:
                    issues.append(
                        PassIssue(
                            "structure", f"duplicate recv tag {instr.tag}", stage=stage
                        )
                    )
                recvs[instr.tag] = instr
    for tag in sorted(set(sends) - set(recvs))[:8]:
        issues.append(
            PassIssue(
                "structure",
                f"unpaired tag {tag!r}: SEND has no matching RECV "
                "(dropped receive?)",
                stage=sends[tag].stage,
            )
        )
    for tag in sorted(set(recvs) - set(sends))[:8]:
        issues.append(
            PassIssue(
                "structure",
                f"unpaired tag {tag!r}: RECV has no matching SEND",
                stage=recvs[tag].stage,
            )
        )
    for tag, s in sends.items():
        r = recvs.get(tag)
        if r is None:
            continue
        if s.peer != r.stage or r.peer != s.stage:
            issues.append(
                PassIssue(
                    "structure",
                    f"endpoints mismatch for tag {tag}: "
                    f"{s.stage}->{s.peer} vs {r.peer}->{r.stage}",
                    stage=s.stage,
                )
            )
        if s.nbytes != r.nbytes:
            issues.append(
                PassIssue("structure", f"size mismatch for tag {tag}", stage=s.stage)
            )
    return issues


# -- deadlock-freedom --------------------------------------------------------


@register_pass(
    "deadlock",
    description="static deadlock-freedom under async tag-matched semantics",
    category="executability",
    requires=("structure",),
)
def check_deadlock_freedom(schedule: Schedule) -> list[PassIssue]:
    """Abstract-execute the programs to a fixed point; report stuck stages.

    Mirrors the executor semantics exactly: compute instructions never
    block, a SEND is issued the moment the program counter reaches it,
    and a RECV completes once its tag has been issued by the peer.
    Bandwidth and durations are irrelevant to progress, so this check is
    sound and complete for the IR's blocking model.

    Stages run off a worklist, parking on the tag of a blocked RECV
    until the SEND that issues it wakes them.  Issuing only ever
    unblocks, so the fixed point -- the final program counters, hence
    the report -- does not depend on the order stages are run in.
    """
    programs = schedule.programs
    pcs = [0] * schedule.num_stages
    issued: set[str] = set()
    parked: dict[str, list[int]] = {}
    work = list(range(len(programs)))
    while work:
        stage = work.pop()
        prog = programs[stage]
        end = len(prog)
        for pc in range(pcs[stage], end):
            instr = prog[pc]
            cls = type(instr)
            if cls is ComputeInstr:
                continue
            if cls is RecvInstr or isinstance(instr, RecvInstr):
                if instr.tag not in issued:
                    parked.setdefault(instr.tag, []).append(stage)
                    end = pc
                    break
            elif cls is SendInstr or isinstance(instr, SendInstr):
                tag = instr.tag
                if tag not in issued:
                    issued.add(tag)
                    woken = parked.pop(tag, None)
                    if woken is not None:
                        work.extend(woken)
        pcs[stage] = end
    issues: list[PassIssue] = []
    for stage, prog in enumerate(programs):
        if pcs[stage] < len(prog):
            instr = prog[pcs[stage]]
            waiting = (
                f"waiting on tag {instr.tag!r} from stage {instr.peer}"
                if isinstance(instr, RecvInstr)
                else f"at {instr.label}"
            )
            issues.append(
                PassIssue(
                    "deadlock",
                    f"static deadlock: pc {pcs[stage]}/{len(prog)} {waiting}",
                    stage=stage,
                )
            )
    return issues


# -- program order -----------------------------------------------------------

#: One bit per op in a (micro batch, segment)'s seen-set.
_F_BIT, _B_BIT, _BI_BIT, _BW_BIT, _RC_BIT = 1, 2, 4, 8, 16
#: B and BI both produce the input gradient: at most one of them may run.
_BGRAD_BITS = _B_BIT | _BI_BIT
_BACKWARD_BITS = _BGRAD_BITS | _BW_BIT


@register_pass(
    "program-order",
    description="per-(micro batch, segment) F/RC/BI/BW ordering",
    category="executability",
)
def check_program_order(schedule: Schedule) -> list[PassIssue]:
    """Per-stage F/RC/B/BI/BW ordering for each (micro batch, segment).

    Each (micro batch, segment) keeps a bitmask of the ops seen so far
    and the bit of the last one.  Segments are interned by value to
    small ints, looked up by object identity (the schedule keeps every
    segment alive for the whole pass), so the per-instruction key is a
    pair of ints rather than a tuple holding an enum.
    """
    issues: list[PassIssue] = []
    F, B, BI, BW = OpType.F, OpType.B, OpType.BI, OpType.BW
    f_bit, b_bit, bi_bit, bw_bit, rc_bit = _F_BIT, _B_BIT, _BI_BIT, _BW_BIT, _RC_BIT
    bgrad_bits, backward_bits = _BGRAD_BITS, _BACKWARD_BITS
    seg_ids: dict[int, int] = {}
    seg_keys: dict[tuple, int] = {}
    for stage, prog in enumerate(schedule.programs):
        seen: dict[tuple[int, int], list[int]] = {}
        for instr in prog:
            if type(instr) is not ComputeInstr and not isinstance(instr, ComputeInstr):
                continue
            seg = instr.segment
            sid = seg_ids.get(id(seg))
            if sid is None:
                sid = seg_keys.setdefault(
                    (seg.kind, seg.layer, seg.num_layers), len(seg_keys)
                )
                seg_ids[id(seg)] = sid
            key = (instr.micro_batch, sid)
            state = seen.get(key)
            if state is None:
                state = seen[key] = [0, 0]
            mask, last = state
            op = instr.op
            if op is F:
                bit = f_bit
                if mask:
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"duplicate forward {instr.label}",
                            stage=stage,
                        )
                    )
            else:
                bit = (
                    b_bit if op is B
                    else bi_bit if op is BI
                    else bw_bit if op is BW
                    else rc_bit
                )
                if not mask & f_bit:
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"{instr.label} before its forward",
                            stage=stage,
                        )
                    )
                if bit == rc_bit and last & backward_bits:
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"recompute {instr.label} after its backward",
                            stage=stage,
                        )
                    )
                if bit & bgrad_bits and mask & bgrad_bits:
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"duplicate backward {instr.label}",
                            stage=stage,
                        )
                    )
                if bit == bw_bit and not mask & bi_bit:
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"{instr.label} before its backward-B",
                            stage=stage,
                        )
                    )
            state[0] = mask | bit
            state[1] = bit
    return issues


# -- stash balance -----------------------------------------------------------

#: Relative tolerance for the per-stage stash accounting.  Deltas are
#: sums/fractions of exactly-representable byte counts, so only a few
#: ulps of slack are needed.
_STASH_REL_TOL = 1e-9


@register_pass(
    "stash-balance",
    description="running stash never negative, zero net at end of iteration",
    category="executability",
)
def check_stash_balance(schedule: Schedule) -> list[PassIssue]:
    """Running stash never negative; zero net stash at end of iteration."""
    issues: list[PassIssue] = []
    for stage, prog in enumerate(schedule.programs):
        deltas = [
            i.stash_delta
            for i in prog
            if type(i) is ComputeInstr or isinstance(i, ComputeInstr)
        ]
        tol = _STASH_REL_TOL * max(1.0, sum([d for d in deltas if d > 0]))
        # runs[k] is the stash after the k-th compute instruction.  A NaN
        # poisons every later entry and never compares below the running
        # minimum, so min() sees exactly the prefix a sequential scan would.
        runs = list(accumulate(deltas, initial=0.0))
        if min(runs) < -tol:
            k = next(k for k, r in enumerate(runs) if r < -tol)
            label = [
                i
                for i in prog
                if type(i) is ComputeInstr or isinstance(i, ComputeInstr)
            ][k - 1].label
            issues.append(
                PassIssue(
                    "stash-balance",
                    f"running stash {runs[k]:.6g} B negative after {label}",
                    stage=stage,
                )
            )
        # The net check is only meaningful when the scan reached the end.
        elif abs(runs[-1]) > tol:
            issues.append(
                PassIssue(
                    "stash-balance",
                    f"net stash {runs[-1]:.6g} B at end of iteration "
                    "(activations leaked or over-released)",
                    stage=stage,
                )
            )
    return issues


# -- pipeline ----------------------------------------------------------------

DEFAULT_PASSES: tuple[PassFn, ...] = (
    check_structure,
    check_deadlock_freedom,
    check_program_order,
    check_stash_balance,
)


def run_passes(
    schedule: Schedule,
    passes: Iterable[PassFn] = DEFAULT_PASSES,
    raise_on_issue: bool = True,
) -> list[PassIssue]:
    """Run the verification pipeline; raise or return the issues found.

    Passes run in order and the pipeline stops at the first pass that
    reports issues -- later passes assume the invariants of earlier ones
    (the deadlock fixed point is meaningless on unpaired tags, say), so
    cascading reports would only be noise.
    """
    for p in passes:
        issues = p(schedule)
        if issues:
            if raise_on_issue:
                raise ScheduleVerificationError(schedule.name, issues)
            return issues
    return []
