"""Verification pass pipeline: clean schedules pass, corrupted ones fail."""

import copy
import dataclasses
import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import Segment, SegmentKind
from repro.schedules.costs import UnitCosts
from repro.schedules.ir import (
    ComputeInstr,
    OpType,
    RecvInstr,
    Schedule,
    SendInstr,
)
from repro.schedules.passes import (
    PassIssue,
    ScheduleVerificationError,
    check_deadlock_freedom,
    check_program_order,
    check_stash_balance,
    check_structure,
    run_passes,
)
from repro.schedules.registry import build_schedule

SEG = Segment(SegmentKind.LAYERS, 0, 1)


def _built_helix():
    return build_schedule("helix", (4, 8), UnitCosts(num_layers=4))


def _compute(op, stage, mb=0, stash=0.0):
    return ComputeInstr(op, stage, mb, SEG, duration=1.0, stash_delta=stash)


class TestCleanSchedules:
    def test_built_schedule_is_pass_clean(self):
        assert run_passes(_built_helix()) == []

    def test_forward_only_fragment_is_clean(self):
        """Fragments without backwards are legal (probes, sim tests)."""
        s = Schedule("frag", 1, 1, [[_compute(OpType.F, 0)]])
        assert run_passes(s) == []


class TestCorruptedSchedules:
    def test_dropped_recv_rejected(self):
        """Removing one RECV from a real schedule must not verify."""
        sched = _built_helix()
        corrupted = copy.deepcopy(sched)
        for prog in corrupted.programs:
            for i, instr in enumerate(prog):
                if isinstance(instr, RecvInstr):
                    del prog[i]
                    break
            else:
                continue
            break
        with pytest.raises(ScheduleVerificationError, match="unpaired"):
            run_passes(corrupted)

    def test_static_deadlock_detected(self):
        """Two stages that each RECV before their SEND: cyclic wait."""
        s = Schedule(
            "cycle", 2, 1,
            [
                [RecvInstr(0, 1, "b", 1.0), SendInstr(0, 1, "a", 1.0)],
                [RecvInstr(1, 0, "a", 1.0), SendInstr(1, 0, "b", 1.0)],
            ],
        )
        issues = check_deadlock_freedom(s)
        assert len(issues) == 2
        assert all(i.pass_name == "deadlock" for i in issues)
        assert "waiting on tag" in issues[0].message
        with pytest.raises(ScheduleVerificationError, match="deadlock"):
            run_passes(s)

    def test_moved_recv_creates_deadlock_in_real_schedule(self):
        """Hoisting a backward-phase RECV to the front of stage 0 blocks
        the whole pipeline: its producer transitively needs stage 0's own
        forward SENDs, which now sit behind the blocked RECV."""
        sched = _built_helix()
        corrupted = copy.deepcopy(sched)
        prog = corrupted.programs[0]
        last_recv = max(
            i for i, x in enumerate(prog) if isinstance(x, RecvInstr)
        )
        prog.insert(0, prog.pop(last_recv))
        issues = run_passes(corrupted, raise_on_issue=False)
        assert issues and issues[0].pass_name == "deadlock"

    def test_backward_before_forward(self):
        s = Schedule(
            "order", 1, 1,
            [[_compute(OpType.B, 0), _compute(OpType.F, 0)]],
        )
        issues = check_program_order(s)
        assert any("before its forward" in i.message for i in issues)

    def test_bw_before_bi(self):
        s = Schedule(
            "order", 1, 1,
            [[_compute(OpType.F, 0), _compute(OpType.BW, 0)]],
        )
        issues = check_program_order(s)
        assert any("before its backward-B" in i.message for i in issues)

    def test_stage_field_mismatch(self):
        s = Schedule("struct", 2, 1, [[_compute(OpType.F, 1)], []])
        issues = check_structure(s)
        assert any("sits in program" in i.message for i in issues)

    def test_stash_leak_detected(self):
        s = Schedule(
            "leak", 1, 1,
            [[_compute(OpType.F, 0, stash=64.0), _compute(OpType.B, 0, stash=-32.0)]],
        )
        issues = check_stash_balance(s)
        assert any("net stash" in i.message for i in issues)

    def test_over_release_detected(self):
        s = Schedule(
            "over", 1, 1,
            [[_compute(OpType.F, 0, stash=32.0), _compute(OpType.B, 0, stash=-64.0)]],
        )
        issues = check_stash_balance(s)
        assert any("negative" in i.message for i in issues)

    def test_run_passes_collect_mode(self):
        s = Schedule("struct", 2, 1, [[_compute(OpType.F, 1)], []])
        issues = run_passes(s, raise_on_issue=False)
        assert issues and issues[0].pass_name == "structure"


# -- pinned findings on a mutation corpus --------------------------------------
#
# Each corpus entry is a built schedule with one deliberate defect.  The
# exact ``(pass_name, message, stage)`` findings of every pass -- run
# alone, and through the fail-fast pipeline -- are pinned in
# ``pass_findings.json``, so an optimisation of a pass must reproduce its
# reports message for message and in the same order.

FINDINGS_FILE = Path(__file__).with_name("pass_findings.json")
CORPUS_SCHEDULES = ("1f1b", "zb1p", "helix")
CORPUS_SIZES = (2, 4)
_BACKWARD = (OpType.B, OpType.BI)
_PASSES = {
    "structure": check_structure,
    "deadlock": check_deadlock_freedom,
    "program-order": check_program_order,
    "stash-balance": check_stash_balance,
}


def _first(prog, *kinds, ops=None):
    return next(
        i for i, x in enumerate(prog)
        if isinstance(x, kinds) and (ops is None or x.op in ops)
    )


def _drop_recv(s):
    prog = s.programs[-1]
    del prog[_first(prog, RecvInstr)]


def _drop_send(s):
    prog = s.programs[0]
    del prog[_first(prog, SendInstr)]


def _recv_ahead_of_dependency(s):
    # Stage 0's last RECV carries a gradient whose SEND transitively
    # needs stage 0's own forward SENDs.
    prog = s.programs[0]
    last = max(i for i, x in enumerate(prog) if isinstance(x, RecvInstr))
    prog.insert(0, prog.pop(last))


def _duplicate_forward(s):
    prog = s.programs[0]
    i = _first(prog, ComputeInstr, ops=(OpType.F,))
    prog.insert(i + 1, prog[i])


def _backward_before_forward(s):
    prog = s.programs[-1]
    prog.insert(0, prog.pop(_first(prog, ComputeInstr, ops=_BACKWARD)))


def _recompute_after_backward(s):
    prog = s.programs[0]
    i = _first(prog, ComputeInstr, ops=_BACKWARD)
    prog.insert(i + 1, dataclasses.replace(prog[i], op=OpType.RC))


def _bw_before_bi(s):
    prog = s.programs[0]
    i = _first(prog, ComputeInstr, ops=_BACKWARD)
    prog.insert(i, dataclasses.replace(prog[i], op=OpType.BW))


def _stage_field_mismatch(s):
    prog = s.programs[0]
    i = _first(prog, ComputeInstr, ops=(OpType.F,))
    prog[i] = dataclasses.replace(prog[i], stage=1)


def _duplicate_send_tag(s):
    prog = s.programs[0]
    i = _first(prog, SendInstr)
    prog.insert(i + 1, prog[i])


def _duplicate_recv_tag(s):
    prog = s.programs[-1]
    i = _first(prog, RecvInstr)
    prog.insert(i + 1, prog[i])


def _endpoint_mismatch(s):
    prog = s.programs[-1]
    i = _first(prog, RecvInstr)
    prog[i] = dataclasses.replace(prog[i], peer=prog[i].stage)


def _size_mismatch(s):
    prog = s.programs[0]
    i = _first(prog, SendInstr)
    prog[i] = dataclasses.replace(prog[i], nbytes=2 * prog[i].nbytes + 1.0)


def _recv_size_mismatch(s):
    prog = s.programs[-1]
    i = _first(prog, RecvInstr)
    prog[i] = dataclasses.replace(prog[i], nbytes=2 * prog[i].nbytes + 1.0)


def _stash_leak(s):
    for prog in s.programs:
        i = _first(prog, ComputeInstr, ops=(OpType.F,))
        prog[i] = dataclasses.replace(prog[i], stash_delta=prog[i].stash_delta + 64.0)


def _over_release(s):
    prog = s.programs[-1]
    i = _first(prog, ComputeInstr, ops=_BACKWARD)
    prog[i] = dataclasses.replace(prog[i], stash_delta=prog[i].stash_delta - 1e6)


MUTATIONS = {
    "clean": lambda s: None,
    "dropped-recv": _drop_recv,
    "dropped-send": _drop_send,
    "recv-ahead-of-dependency": _recv_ahead_of_dependency,
    "duplicate-forward": _duplicate_forward,
    "backward-before-forward": _backward_before_forward,
    "recompute-after-backward": _recompute_after_backward,
    "bw-before-bi": _bw_before_bi,
    "stage-field-mismatch": _stage_field_mismatch,
    "duplicate-send-tag": _duplicate_send_tag,
    "duplicate-recv-tag": _duplicate_recv_tag,
    "endpoint-mismatch": _endpoint_mismatch,
    "size-mismatch": _size_mismatch,
    "recv-size-mismatch": _recv_size_mismatch,
    "stash-leak": _stash_leak,
    "over-release": _over_release,
}


@functools.lru_cache(maxsize=None)
def _built(name, p):
    return build_schedule(name, (p, 2 * p), UnitCosts(num_layers=4))


def mutant(name, p, mutation):
    s = copy.deepcopy(_built(name, p))
    MUTATIONS[mutation](s)
    return s


def corpus_findings(name, p, mutation):
    """Every pass's findings (and the pipeline's) as JSON-ready triples."""
    s = mutant(name, p, mutation)
    runs = {k: fn(s) for k, fn in _PASSES.items()}
    runs["run_passes"] = run_passes(s, raise_on_issue=False)
    return {
        k: [[i.pass_name, i.message, i.stage] for i in issues]
        for k, issues in runs.items()
    }


CORPUS = [
    f"{name}/p{p}/{mutation}"
    for name in CORPUS_SCHEDULES
    for p in CORPUS_SIZES
    for mutation in MUTATIONS
]


@pytest.fixture(scope="module")
def pinned_findings():
    return json.loads(FINDINGS_FILE.read_text())


class TestPinnedFindings:
    def test_corpus_is_pinned(self, pinned_findings):
        assert sorted(pinned_findings) == sorted(CORPUS)

    def test_every_defect_is_reported(self, pinned_findings):
        for key, runs in pinned_findings.items():
            assert bool(runs["run_passes"]) == (not key.endswith("/clean")), key

    @pytest.mark.parametrize("key", CORPUS)
    def test_findings_match_pinned(self, key, pinned_findings):
        name, p, mutation = key.split("/")
        assert corpus_findings(name, int(p[1:]), mutation) == pinned_findings[key]


# -- worklist deadlock pass vs the naive fixed point --------------------------


def naive_deadlock_report(schedule):
    """Reference: sweep every stage until nothing moves, then report."""
    pcs = [0] * schedule.num_stages
    issued = set()
    progress = True
    while progress:
        progress = False
        for stage, prog in enumerate(schedule.programs):
            while pcs[stage] < len(prog):
                instr = prog[pcs[stage]]
                if isinstance(instr, RecvInstr) and instr.tag not in issued:
                    break
                if isinstance(instr, SendInstr):
                    issued.add(instr.tag)
                pcs[stage] += 1
                progress = True
    issues = []
    for stage, prog in enumerate(schedule.programs):
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


@st.composite
def tag_permutations(draw):
    """Random cross-stage messages, each program shuffled independently.
    Some SENDs are dropped, so that a RECV can wait forever, and some
    tags get a second RECV on another stage, so that several stages can
    wait on one tag."""
    p = draw(st.integers(2, 5))
    progs = [[_compute(OpType.F, s)] for s in range(p)]
    for k in range(draw(st.integers(1, 14))):
        src = draw(st.integers(0, p - 1))
        dsts = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2))
        tag = f"t{k}"
        if draw(st.integers(0, 7)):
            progs[src].append(SendInstr(src, dsts[0], tag, 1.0))
        for dst in dsts:
            progs[dst].append(RecvInstr(dst, src, tag, 1.0))
    return Schedule("perm", p, 1, [draw(st.permutations(prog)) for prog in progs])


class TestWorklistDeadlock:
    @settings(max_examples=200, deadline=None)
    @given(tag_permutations())
    def test_matches_naive_fixed_point(self, schedule):
        assert check_deadlock_freedom(schedule) == naive_deadlock_report(schedule)

    @pytest.mark.parametrize("key", CORPUS)
    def test_corpus_matches_naive_fixed_point(self, key):
        name, p, mutation = key.split("/")
        s = mutant(name, int(p[1:]), mutation)
        assert check_deadlock_freedom(s) == naive_deadlock_report(s)


# -- bitmask program-order pass vs the list-of-ops reference -------------------


def naive_program_order_report(schedule):
    """Reference: per (micro batch, segment), the list of ops seen so far."""
    backward = (OpType.B, OpType.BI, OpType.BW)
    issues = []
    for stage, prog in enumerate(schedule.programs):
        seen = {}
        for instr in prog:
            if not isinstance(instr, ComputeInstr):
                continue
            seg = instr.segment
            key = (instr.micro_batch, seg.kind, seg.layer, seg.num_layers)
            ops = seen.setdefault(key, [])
            op = instr.op
            found = []
            if op is OpType.F and ops:
                found.append(f"duplicate forward {instr.label}")
            elif op in backward or op is OpType.RC:
                if OpType.F not in ops:
                    found.append(f"{instr.label} before its forward")
                if op is OpType.RC and ops and ops[-1] in backward:
                    found.append(f"recompute {instr.label} after its backward")
                if op in (OpType.B, OpType.BI) and any(
                    o in (OpType.B, OpType.BI) for o in ops
                ):
                    found.append(f"duplicate backward {instr.label}")
                if op is OpType.BW and OpType.BI not in ops:
                    found.append(f"{instr.label} before its backward-B")
            issues += [PassIssue("program-order", m, stage=stage) for m in found]
            ops.append(op)
    return issues


#: Two equal but distinct segment objects: the pass must key on value.
_ORDER_SEGMENTS = (SEG, Segment(SegmentKind.LAYERS, 0, 1), Segment(SegmentKind.ATTN, 0, 1))


@st.composite
def op_sequences(draw):
    p = draw(st.integers(1, 2))
    compute = st.builds(
        lambda op, mb, seg: (op, mb, seg),
        st.sampled_from(list(OpType)),
        st.integers(0, 1),
        st.sampled_from(_ORDER_SEGMENTS),
    )
    progs = [
        [
            ComputeInstr(op, stage, mb, seg, duration=1.0)
            for op, mb, seg in draw(st.lists(compute, max_size=32))
        ]
        for stage in range(p)
    ]
    if p == 2:
        progs[1].insert(0, SendInstr(1, 0, "x", 1.0))
    return Schedule("ops", p, 3, progs)


class TestBitmaskProgramOrder:
    @settings(max_examples=200, deadline=None)
    @given(op_sequences())
    def test_matches_list_reference(self, schedule):
        assert check_program_order(schedule) == naive_program_order_report(schedule)


# -- vectorised stash pass vs the sequential-scan reference --------------------


def naive_stash_report(schedule):
    """Reference: a running sum that stops at the first negative value."""
    issues = []
    for stage, prog in enumerate(schedule.programs):
        computes = [i for i in prog if isinstance(i, ComputeInstr)]
        tol = 1e-9 * max(1.0, sum(i.stash_delta for i in computes if i.stash_delta > 0))
        running = 0.0
        for instr in computes:
            running += instr.stash_delta
            if running < -tol:
                issues.append(PassIssue(
                    "stash-balance",
                    f"running stash {running:.6g} B negative after {instr.label}",
                    stage=stage,
                ))
                break
        else:
            if abs(running) > tol:
                issues.append(PassIssue(
                    "stash-balance",
                    f"net stash {running:.6g} B at end of iteration "
                    "(activations leaked or over-released)",
                    stage=stage,
                ))
    return issues


@st.composite
def stash_programs(draw):
    """Stash/release pairs whose releases are off by amounts around the
    relative tolerance, interleaved with messages, in a random order."""
    progs = []
    for stage in range(draw(st.integers(1, 3))):
        prog = [SendInstr(stage, stage + 1, f"s{stage}", 1.0)]
        for mb in range(draw(st.integers(0, 5))):
            size = draw(st.sampled_from([1.0, 48.0, 3e9]))
            slack = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-6, -1.0]))
            prog.append(_compute(OpType.F, stage, mb, stash=size))
            prog.append(_compute(OpType.B, stage, mb, stash=-size * (1.0 + slack)))
        progs.append(draw(st.permutations(prog)))
    return Schedule("stash", len(progs), 1, progs)


class TestStashBalanceScan:
    @settings(max_examples=200, deadline=None)
    @given(stash_programs())
    def test_matches_sequential_reference(self, schedule):
        assert check_stash_balance(schedule) == naive_stash_report(schedule)
