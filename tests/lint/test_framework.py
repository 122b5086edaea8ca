"""Pass framework: severities, findings, registries, dependency order, reports.

One framework backs both analyzers, so every behaviour they share is
checked here once per registry: ``SCHEDULE_PASSES`` (``repro lint``)
and ``CODE_PASSES`` (``repro lint-code``).
"""

import copy

import pytest

from repro.devtools.concurrency import CODE_PASSES, run_code_analysis
from repro.model import Segment, SegmentKind
from repro.schedules.analysis import (
    AnalysisContext,
    AnalysisPass,
    AnalysisReport,
    PassIssue,
    Severity,
    available_passes,
    format_issue_table,
    get_pass,
    run_analysis,
)
from repro.schedules.analysis.framework import (
    SCHEDULE_PASSES,
    CodeIssue,
    _dependency_order,
)
from repro.schedules.costs import UnitCosts
from repro.schedules.ir import ComputeInstr, OpType, RecvInstr, Schedule
from repro.schedules.passes import ScheduleVerificationError
from repro.schedules.registry import build_schedule

from tests.devtools.test_model import project

SEG = Segment(SegmentKind.LAYERS, 0, 1)


def _schedule(programs=None, p=1, m=1):
    return Schedule("t", p, m, programs if programs is not None else [[]] * p)


def _compute(stage=0, mb=0, stash=0.0, duration=1.0):
    return ComputeInstr(
        OpType.F, stage, mb, SEG, duration=duration, stash_delta=stash
    )


#: (registry, subject factory, issue type) per analyzer.
ANALYZERS = [
    pytest.param(SCHEDULE_PASSES, _schedule, PassIssue, id="schedule"),
    pytest.param(CODE_PASSES, lambda: project("x = 1"), CodeIssue, id="code"),
]


class TestSeverity:
    def test_total_order(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.ERROR >= Severity.WARNING >= Severity.INFO
        assert Severity.WARNING <= Severity.WARNING
        assert not Severity.INFO > Severity.ERROR
        assert max(Severity.INFO, Severity.ERROR) is Severity.ERROR

    @pytest.mark.parametrize("issue_type", [PassIssue, CodeIssue])
    def test_default_is_error(self, issue_type):
        assert issue_type("p", "m").severity is Severity.ERROR


class TestIssueFormat:
    def test_legacy_error_shape_preserved(self):
        """Error issues keep the `[pass] (stage N) message` shape the
        pre-framework tests and callers match against."""
        assert str(PassIssue("structure", "boom", stage=2)) == (
            "[structure] (stage 2) boom"
        )
        assert str(PassIssue("structure", "boom")) == "[structure] boom"

    def test_structured_context_rendered(self):
        s = str(
            PassIssue(
                "comm-order",
                "raced",
                severity=Severity.WARNING,
                stage=1,
                step=7,
                tag="fwd:mb0:0->1",
            )
        )
        assert "warning" in s
        assert "stage 1" in s and "step 7" in s and "'fwd:mb0:0->1'" in s

    def test_code_issue_shape(self):
        full = CodeIssue(
            "guarded-by", "boom", file="a.py", line=3, function="a.S.f", symbol="S.x"
        )
        assert str(full) == "[guarded-by] a.py:3 [a.S.f] boom"
        assert str(CodeIssue("p", "m", severity=Severity.WARNING, file="a.py")) == (
            "[p] warning: a.py m"
        )
        assert str(CodeIssue("p", "m", line=3)) == "[p] m"

    @pytest.mark.parametrize(
        "issues, header",
        [
            pytest.param(
                [
                    PassIssue("alpha", "first", stage=0, step=12, tag="t0"),
                    PassIssue("beta-longer", "second", severity=Severity.WARNING),
                ],
                ["pass", "severity", "stage", "step", "tag", "message"],
                id="schedule",
            ),
            pytest.param(
                [
                    CodeIssue("guarded-by", "first", file="a.py", line=3),
                    CodeIssue("lock-order", "second", severity=Severity.WARNING),
                ],
                ["pass", "severity", "location", "function", "message"],
                id="code",
            ),
        ],
    )
    def test_issue_table_aligned_and_complete(self, issues, header):
        table = format_issue_table(issues)
        lines = table.splitlines()
        assert lines[0].split() == header
        assert "first" in table and "second" in table
        # Columns align: every "message" starts at the same offset.
        offset = lines[0].index("message")
        assert lines[2][offset:].startswith("first")
        assert lines[3][offset:].startswith("second")

    def test_code_location_column(self):
        table = format_issue_table([CodeIssue("p", "m", file="a.py", line=3)])
        assert "a.py:3" in table


class TestRegistration:
    def test_builtin_passes_registered(self):
        assert {
            "structure",
            "deadlock",
            "program-order",
            "stash-balance",
            "comm-pairing",
            "comm-order",
            "comm-hol",
            "peak-memory",
            "dead-code",
        } <= set(available_passes())
        assert {
            "guarded-by",
            "lock-order",
            "blocking-under-lock",
            "thread-hygiene",
        } <= set(CODE_PASSES.names())

    @pytest.mark.parametrize("registry, subject, issue_type", ANALYZERS)
    def test_duplicate_name_rejected(self, registry, subject, issue_type):
        name = registry.names()[0]
        before = registry.get(name)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(name)(lambda subject: [])
        assert registry.get(name) is before

    @pytest.mark.parametrize("registry, subject, issue_type", ANALYZERS)
    def test_unknown_pass_lookup(self, registry, subject, issue_type):
        with pytest.raises(KeyError, match=f"unknown {registry.kind}"):
            registry.get("no-such-pass")

    def test_single_arg_pass_wrapped(self):
        """Legacy one-argument check functions get the uniform body."""
        ap = get_pass("structure")
        assert ap.run(_schedule()) == []  # no context needed

    def test_metadata_present(self):
        ap = get_pass("comm-hol")
        assert ap.category == "hazard"
        assert "comm-pairing" in ap.requires and "deadlock" in ap.requires


class TestDependencyOrder:
    def test_prerequisites_run_first(self):
        a = AnalysisPass("z-dep", lambda s, c: [], requires=("a-base",))
        b = AnalysisPass("a-base", lambda s, c: [])
        assert [p.name for p in _dependency_order([a, b])] == ["a-base", "z-dep"]

    def test_cycle_degrades_to_given_order(self):
        a = AnalysisPass("x", lambda s, c: [], requires=("y",))
        b = AnalysisPass("y", lambda s, c: [], requires=("x",))
        assert [p.name for p in _dependency_order([a, b])] == ["x", "y"]

    def test_foreign_requires_ignored(self):
        a = AnalysisPass("solo", lambda s, c: [], requires=("not-in-list",))
        assert [p.name for p in _dependency_order([a])] == ["solo"]

    def test_explicit_selection_order_does_not_bypass_requires(self):
        """A dependent named before its prerequisite must still be gated."""
        sched = copy.deepcopy(
            build_schedule("helix", (4, 8), UnitCosts(num_layers=4))
        )
        prog = next(
            p for p in sched.programs if any(isinstance(i, RecvInstr) for i in p)
        )
        prog.remove(next(i for i in prog if isinstance(i, RecvInstr)))
        selection = ["comm-pairing", "comm-order", "comm-hol"]
        forward = run_analysis(sched, passes=selection)
        backward = run_analysis(sched, passes=selection[::-1])
        assert forward.passes_run == backward.passes_run == ("comm-pairing",)
        assert forward.skipped == backward.skipped
        assert set(forward.skipped) == {"comm-order", "comm-hol"}
        assert forward.issues == backward.issues


class TestRunAnalysis:
    def test_clean_schedule_clean_report(self):
        report = run_analysis(_schedule([[_compute()]]))
        assert report.ok
        assert report.issues == []
        assert report.max_severity is None
        assert not report.skipped

    def test_failing_prerequisite_skips_dependents(self):
        # stage field mismatch -> structure errors -> deadlock/dead-code skip
        bad = _schedule([[_compute(stage=3)]])
        report = run_analysis(bad)
        assert not report.ok
        assert "deadlock" in report.skipped
        assert "structure" in report.skipped["deadlock"]
        assert "deadlock" not in report.passes_run

    @pytest.mark.parametrize("registry, subject, issue_type", ANALYZERS)
    def test_requires_skips_after_prereq_errors(self, registry, subject, issue_type):
        broken = AnalysisPass("prereq", lambda s, c: [issue_type("prereq", "boom")])
        gated = AnalysisPass("dependent", lambda s, c: [], requires=("prereq",))
        report = registry.run(subject(), AnalysisReport("t"), [gated, broken])
        assert report.passes_run == ("prereq",)
        assert "prereq" in report.skipped["dependent"]

    def test_explicit_pass_selection(self):
        report = run_analysis(_schedule([[_compute()]]), passes=["stash-balance"])
        assert report.passes_run == ("stash-balance",)

    def test_code_pass_selection(self):
        report = run_code_analysis(project("x = 1"), passes=["lock-order"])
        assert report.passes_run == ("lock-order",)

    @pytest.mark.parametrize(
        "make_report, subject, first_pass, issue_keys",
        [
            pytest.param(
                lambda: run_analysis(_schedule([[_compute(stage=3)]])),
                {"schedule": "t"},
                "structure",
                ["pass", "severity", "stage", "step", "tag", "message"],
                id="schedule",
            ),
            pytest.param(
                lambda: run_code_analysis(
                    project("x = 1"),
                    passes=[
                        AnalysisPass(
                            "guarded-by",
                            lambda m, c: [
                                CodeIssue("guarded-by", "m", file="a.py", line=3)
                            ],
                        )
                    ],
                ),
                {"files": ["mod0.py"]},
                "guarded-by",
                ["pass", "severity", "file", "line", "function", "symbol", "message"],
                id="code",
            ),
        ],
    )
    def test_json_roundtrip_shape(self, make_report, subject, first_pass, issue_keys):
        payload = make_report().to_json_dict()
        assert list(payload) == [*subject, "ok", "passes_run", "skipped", "issues"]
        assert {k: payload[k] for k in subject} == subject
        assert payload["ok"] is False
        issue = payload["issues"][0]
        assert list(issue) == issue_keys
        assert issue["pass"] == first_pass
        assert issue["severity"] == "error"

    def test_code_issue_json_values(self):
        issue = CodeIssue(
            "guarded-by", "msg", file="a.py", line=3, function="a.S.f", symbol="S.x"
        )
        assert issue.to_json_dict() == {
            "pass": "guarded-by",
            "severity": "error",
            "file": "a.py",
            "line": 3,
            "function": "a.S.f",
            "symbol": "S.x",
            "message": "msg",
        }

    def test_context_threaded_to_passes(self):
        ctx = AnalysisContext(static_memory_bytes=0.0, memory_cap_bytes=1.0)
        big = _schedule([[_compute(stash=64.0), _compute(stash=-64.0)]])
        report = run_analysis(big, passes=["peak-memory"], context=ctx)
        assert not report.ok
        assert "exceeds memory cap" in report.issues[0].message


class TestReport:
    @pytest.mark.parametrize("registry, subject, issue_type", ANALYZERS)
    def test_gate_semantics(self, registry, subject, issue_type):
        def report(severity):
            return AnalysisReport("t", issues=[issue_type("p", "x", severity=severity)])

        assert report(Severity.INFO).passes(strict=True)
        warn_only = report(Severity.WARNING)
        assert warn_only.ok and warn_only.passes()
        assert not warn_only.passes(strict=True)
        err = report(Severity.ERROR)
        assert not err.ok
        assert not err.passes() and not err.passes(strict=True)

    @pytest.mark.parametrize("registry, subject, issue_type", ANALYZERS)
    def test_format_orders_by_severity(self, registry, subject, issue_type):
        report = AnalysisReport(
            "subject",
            issues=[
                issue_type("w", "warned", severity=Severity.WARNING),
                issue_type("e", "failed"),
            ],
            passes_run=("w", "e"),
            skipped={"d": "prerequisite pass(es) e reported errors"},
        )
        lines = report.format().splitlines()
        assert lines[0] == "subject: 1 error(s), 1 warning(s), 0 info (2 passes run)"
        assert "failed" in lines[3]
        assert "warned" in lines[4]
        assert lines[-1] == "skipped d: prerequisite pass(es) e reported errors"


class TestVerificationErrorTable:
    def test_format_prints_aligned_table(self):
        err = ScheduleVerificationError(
            "bad",
            [
                PassIssue("structure", "unpaired tag 'x'", stage=0),
                PassIssue("structure", "self-send", stage=1, step=4),
            ],
        )
        text = err.format()
        assert text.startswith("schedule 'bad' failed verification:")
        lines = text.splitlines()
        assert "severity" in lines[1]
        assert len(lines) == 2 + 1 + 2  # header, rule, two rows
