"""The static-analysis pass framework behind ``repro lint`` and ``repro lint-code``.

Two analyzers share it.  The schedule analyzer proves properties of the
schedule IR *before* any simulation (executability, communication-hazard
freedom, static peak memory, instruction hygiene); its passes live in
:mod:`repro.schedules.passes` and the sibling modules of this package.
The code analyzer (:mod:`repro.devtools.concurrency`) proves the lock
discipline of the repo's own threaded sources over a whole
:class:`~repro.devtools.concurrency.model.ProjectModel`.  The framework
is generic over the subject being analysed and the finding type:

* a finding is an :class:`Issue` -- pass name, message and
  :class:`Severity` -- plus structured provenance: :class:`PassIssue`
  anchors to rank/stage, program step and message tag, :class:`CodeIssue`
  to ``file:line``, the enclosing function and the symbol involved.
  Each finding type owns its one-line ``str()``, its sort key and its
  table/JSON columns;
* a :class:`PassRegistry` holds the named :class:`AnalysisPass` records
  of one analyzer: :data:`SCHEDULE_PASSES` here (``register_pass``) and
  ``CODE_PASSES`` in :mod:`repro.devtools.concurrency.driver`
  (``register_code_pass``);
* :meth:`PassRegistry.run` runs a pipeline in dependency order, skipping
  (with a recorded reason) every pass whose ``requires=`` prerequisites
  reported errors -- its own findings would be noise on a malformed
  subject -- and fills an :class:`AnalysisReport`, which renders as an
  aligned table or JSON and carries the one gate rule,
  :meth:`AnalysisReport.passes`.

Writing a new pass
------------------

Register a function taking the subject and returning issues; it becomes
available to the runner and the CLI verb immediately.  A schedule pass
takes ``(schedule)`` or ``(schedule, context)``::

    from repro.schedules.analysis.framework import (
        PassIssue, Severity, register_pass,
    )

    @register_pass(
        "my-pass",
        description="one-line summary for listings",
        category="hazard",          # executability | hazard | memory | hygiene
        requires=("structure",),    # skip when these passes found errors
    )
    def check_my_property(schedule, context):
        issues = []
        for stage, prog in enumerate(schedule.programs):
            for step, instr in enumerate(prog):
                if _violates(instr):
                    issues.append(PassIssue(
                        "my-pass",
                        "what went wrong, in one sentence",
                        severity=Severity.WARNING,
                        stage=stage,
                        step=step,
                        tag=getattr(instr, "tag", None),
                    ))
        return issues

A code pass takes ``(model)`` and returns :class:`CodeIssue` findings::

    from repro.devtools.concurrency.driver import register_code_pass
    from repro.schedules.analysis.framework import CodeIssue, Severity

    @register_code_pass(
        "my-code-pass",
        description="one-line summary for listings",
        category="concurrency",     # concurrency | hygiene
    )
    def check_my_code_property(model):
        return [
            CodeIssue(
                "my-code-pass",
                "what went wrong, in one sentence",
                severity=Severity.WARNING,
                file=fn.file,
                line=fn.line,
                function=fn.qualname,
            )
            for fn in model.all_functions()
            if _violates(fn)
        ]

Passes must be *pure* observers: they may read the subject and context
(code passes may call the model's resolution/fixpoint helpers) but never
mutate either.  Severity semantics: ``ERROR`` findings mean the subject
is wrong (the CLI verbs exit non-zero); ``WARNING`` means a hazard worth
a human look -- for schedules, one that still executes under the IR's
asynchronous tag-matched semantics -- and fails only under ``--strict``;
``INFO`` is advisory.  Code passes respect the allowlist: a finding
whose line -- or whose guarding lock's acquisition line -- carries a
``# lint-code: allow(<pass-name>) -- reason`` comment is suppressed by
convention, via :meth:`ProjectModel.allowed
<repro.devtools.concurrency.model.ProjectModel.allowed>`.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from repro.schedules.ir import Schedule

__all__ = [
    "Severity",
    "Issue",
    "PassIssue",
    "CodeIssue",
    "AnalysisContext",
    "AnalysisPass",
    "PassRegistry",
    "AnalysisReport",
    "SCHEDULE_PASSES",
    "register_pass",
    "get_pass",
    "available_passes",
    "run_analysis",
    "format_issue_table",
]


@functools.total_ordering
class Severity(enum.Enum):
    """How bad a finding is.  Orders ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Issue:
    """One finding of a pass.  Subclasses add their provenance fields
    after these three, which fixes their JSON key order."""

    pass_name: str
    message: str
    severity: Severity = Severity.ERROR

    def _prefix(self) -> str:
        sev = "" if self.severity is Severity.ERROR else f" {self.severity.value}:"
        return f"[{self.pass_name}]{sev}"

    def sort_key(self) -> tuple[Any, ...]:
        """Report order: most severe first."""
        return (-self.severity.rank,)

    def _columns(self) -> dict[str, str]:
        """The provenance columns of :meth:`table_row`."""
        return {}

    def table_row(self) -> dict[str, str]:
        return {
            "pass": self.pass_name,
            "severity": self.severity.value,
            **self._columns(),
            "message": self.message,
        }

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "pass": self.pass_name,
            "severity": self.severity.value,
            **{f.name: getattr(self, f.name) for f in fields(self)[3:]},
            "message": self.message,
        }


@dataclass(frozen=True)
class PassIssue(Issue):
    """A schedule finding with structured provenance.

    ``stage`` is the rank/program the finding anchors to, ``step`` the
    instruction's index within that program, ``tag`` the message tag
    involved (communication findings).  All three are optional --
    schedule-wide findings leave them ``None``.
    """

    stage: int | None = None
    step: int | None = None
    tag: str | None = None

    def __str__(self) -> str:
        ctx = []
        if self.stage is not None:
            ctx.append(f"stage {self.stage}")
        if self.step is not None:
            ctx.append(f"step {self.step}")
        if self.tag is not None:
            ctx.append(f"tag {self.tag!r}")
        where = f" ({', '.join(ctx)})" if ctx else ""
        return f"{self._prefix()}{where} {self.message}"

    def _columns(self) -> dict[str, str]:
        return {
            "stage": "-" if self.stage is None else str(self.stage),
            "step": "-" if self.step is None else str(self.step),
            "tag": "-" if self.tag is None else self.tag,
        }


@dataclass(frozen=True)
class CodeIssue(Issue):
    """A source-code finding with file/line provenance.

    ``function`` is the qualified name of the enclosing function or
    method (``module.Class.method``); ``symbol`` names the field, lock
    or thread the finding is about.  All four are optional --
    module-wide findings leave them ``None``.
    """

    file: str | None = None
    line: int | None = None
    function: str | None = None
    symbol: str | None = None

    def _location(self) -> str | None:
        if self.file is None or self.line is None:
            return self.file
        return f"{self.file}:{self.line}"

    def __str__(self) -> str:
        loc = self._location()
        where = "" if loc is None else f" {loc}"
        fn = f" [{self.function}]" if self.function else ""
        return f"{self._prefix()}{where}{fn} {self.message}"

    def sort_key(self) -> tuple[Any, ...]:
        return (-self.severity.rank, self.file or "", self.line or 0)

    def _columns(self) -> dict[str, str]:
        return {"location": self._location() or "-", "function": self.function or "-"}


IssueT = TypeVar("IssueT", bound=Issue)


def format_issue_table(issues: Iterable[Issue]) -> str:
    """Render issues as an aligned table, rows in the order given."""
    # Lazy: the repro.analysis package pulls in sim and workloads.
    from repro.analysis.report import format_table

    return format_table([i.table_row() for i in issues])


@dataclass
class AnalysisContext:
    """Workload-derived inputs the schedule passes may consult.

    ``static_memory_bytes`` is the per-stage model-state baseline the
    simulator would be given (scalar = same on every stage);
    ``memory_cap_bytes`` the per-GPU capacity the peak-memory pass
    checks against (``None`` disables the capacity check).
    """

    static_memory_bytes: list[float] | float = 0.0
    memory_cap_bytes: float | None = None

    def static_per_stage(self, schedule: Schedule) -> list[float]:
        """The static baseline expanded to one entry per stage."""
        s = self.static_memory_bytes
        if isinstance(s, (int, float)):
            return [float(s)] * schedule.num_stages
        if len(s) != schedule.num_stages:
            raise ValueError(
                f"static_memory_bytes has {len(s)} entries for "
                f"{schedule.num_stages} stages"
            )
        return [float(x) for x in s]


#: A registered pass body: ``(subject, context) -> issues``.
PassBody = Callable[[Any, Any], list[Any]]


@dataclass(frozen=True)
class AnalysisPass(Generic[IssueT]):
    """One registered pass: metadata plus the body.

    ``requires`` names passes whose ERROR findings make this pass
    meaningless (e.g. dataflow over unpaired tags); the runner skips it
    with a recorded reason instead of reporting noise.
    """

    name: str
    fn: PassBody
    description: str = ""
    category: str = "correctness"
    requires: tuple[str, ...] = ()

    def run(self, subject: Any, context: Any = None) -> list[IssueT]:
        """Apply the body; schedule passes that read the context need one."""
        return self.fn(subject, context)


@dataclass
class AnalysisReport(Generic[IssueT]):
    """Everything one pipeline run found.

    ``label`` names the subject in the summary line (``schedule 'x'``,
    ``3 file(s)``); ``subject`` holds the JSON fields identifying it.
    ``skipped`` maps pass name -> reason for passes whose declared
    dependencies reported errors.
    """

    label: str
    subject: dict[str, Any] = field(default_factory=dict)
    issues: list[IssueT] = field(default_factory=list)
    passes_run: tuple[str, ...] = ()
    skipped: dict[str, str] = field(default_factory=dict)

    def by_severity(self, severity: Severity) -> list[IssueT]:
        return [i for i in self.issues if i.severity is severity]

    @property
    def errors(self) -> list[IssueT]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[IssueT]:
        return self.by_severity(Severity.WARNING)

    def passes(self, strict: bool = False) -> bool:
        """The gate: errors always fail; ``strict`` promotes warnings
        to failures; infos never fail."""
        return not self.errors and not (strict and self.warnings)

    @property
    def ok(self) -> bool:
        """No errors (the non-strict gate)."""
        return self.passes()

    @property
    def max_severity(self) -> Severity | None:
        return max((i.severity for i in self.issues), default=None)

    def format(self) -> str:
        lines = [
            f"{self.label}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.by_severity(Severity.INFO))} info "
            f"({len(self.passes_run)} passes run)"
        ]
        if self.issues:
            lines.append(
                format_issue_table(sorted(self.issues, key=lambda i: i.sort_key()))
            )
        for name, reason in self.skipped.items():
            lines.append(f"skipped {name}: {reason}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            **self.subject,
            "ok": self.ok,
            "passes_run": list(self.passes_run),
            "skipped": dict(self.skipped),
            "issues": [i.to_json_dict() for i in self.issues],
        }


def _dependency_order(passes: list[AnalysisPass]) -> list[AnalysisPass]:
    """Stable topological order: prerequisites before dependents.

    Registration order is import-order dependent (whichever pass module
    gets imported first registers first), and an explicit selection is
    in whatever order the caller typed, so every pipeline sorts by
    ``requires`` -- a pass never runs before the passes whose errors
    would gate it.  Ties keep the given order; a dependency cycle (a
    registration bug) degrades to the given order rather than looping.
    """
    names = {p.name for p in passes}
    remaining = list(passes)
    done: set[str] = set()
    ordered: list[AnalysisPass] = []
    while remaining:
        for idx, p in enumerate(remaining):
            if all(r in done or r not in names for r in p.requires):
                ordered.append(p)
                done.add(p.name)
                del remaining[idx]
                break
        else:
            ordered.extend(remaining)
            break
    return ordered


class PassRegistry(Generic[IssueT]):
    """The named passes of one analyzer.

    ``kind`` names a pass in messages ("analysis pass");
    ``builtin_modules`` register the built-in passes on import and are
    imported lazily, at the first lookup, so the registry has no
    import-time dependency on the pass bodies (which import it back).
    """

    def __init__(self, kind: str, builtin_modules: Sequence[str]) -> None:
        self.kind = kind
        self._builtin_modules = tuple(builtin_modules)
        self._builtin_loaded = False
        self._passes: dict[str, AnalysisPass[IssueT]] = {}

    def _ensure_builtin(self) -> None:
        if self._builtin_loaded:
            return
        for mod in self._builtin_modules:
            importlib.import_module(mod)
        # Only after every import succeeded (same discipline as the
        # schedule registry): a failing pass module must fail loudly on
        # the next lookup.
        self._builtin_loaded = True

    def register(
        self,
        name: str,
        *,
        description: str = "",
        category: str = "correctness",
        requires: Sequence[str] = (),
    ) -> Callable[[Callable[..., list[IssueT]]], Callable[..., list[IssueT]]]:
        """Decorator registering a pass under ``name``.

        The decorated function may take ``(subject)`` or
        ``(subject, context)``; single-argument bodies are wrapped so
        every registered body has the uniform two-argument signature.
        The function itself is returned unchanged, so direct calls keep
        working.
        """

        def deco(fn: Callable[..., list[IssueT]]) -> Callable[..., list[IssueT]]:
            if name in self._passes:
                raise ValueError(f"{self.kind} {name!r} already registered")
            params = [
                p
                for p in inspect.signature(fn).parameters.values()
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            if len(params) == 1:
                body: PassBody = lambda subject, context, _fn=fn: _fn(subject)
            else:
                body = fn
            self._passes[name] = AnalysisPass(
                name=name,
                fn=body,
                description=description,
                category=category,
                requires=tuple(requires),
            )
            return fn

        return deco

    def get(self, name: str) -> AnalysisPass[IssueT]:
        """Look up a registered pass by name."""
        self._ensure_builtin()
        try:
            return self._passes[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        """Names of every registered pass, in registration order."""
        self._ensure_builtin()
        return list(self._passes)

    def run(
        self,
        subject: Any,
        report: AnalysisReport[IssueT],
        passes: Sequence[str | AnalysisPass[IssueT]] | None = None,
        context: Any = None,
    ) -> AnalysisReport[IssueT]:
        """Run a pipeline over ``subject`` and collect every finding.

        Runs every selected pass -- ``None`` selects all registered
        ones; names and :class:`AnalysisPass` objects both work -- in
        dependency order, skipping only those whose declared
        ``requires`` dependencies reported errors, and fills ``report``.
        """
        if passes is None:
            selected = [self.get(n) for n in self.names()]
        else:
            selected = [
                p if isinstance(p, AnalysisPass) else self.get(p) for p in passes
            ]
        failed: set[str] = set()
        ran: list[str] = []
        for p in _dependency_order(selected):
            broken = sorted(set(p.requires) & failed)
            if broken:
                report.skipped[p.name] = (
                    f"prerequisite pass(es) {', '.join(broken)} reported errors"
                )
                continue
            issues = p.run(subject, context)
            ran.append(p.name)
            report.issues.extend(issues)
            if any(i.severity is Severity.ERROR for i in issues):
                failed.add(p.name)
        report.passes_run = tuple(ran)
        return report


#: The schedule-IR passes.  Listing order is registration order, which
#: follows whichever pass module a caller imported first (importing
#: this package registers ``peak-memory`` before the rest); runs are
#: dependency-ordered regardless.
SCHEDULE_PASSES: PassRegistry[PassIssue] = PassRegistry(
    "analysis pass",
    (
        "repro.schedules.passes",
        "repro.schedules.analysis.commrace",
        "repro.schedules.analysis.memory",
        "repro.schedules.analysis.deadcode",
    ),
)
register_pass = SCHEDULE_PASSES.register
get_pass = SCHEDULE_PASSES.get
available_passes = SCHEDULE_PASSES.names


def run_analysis(
    schedule: Schedule,
    passes: Sequence[str | AnalysisPass[PassIssue]] | None = None,
    context: AnalysisContext | None = None,
) -> AnalysisReport[PassIssue]:
    """Run the schedule passes and collect every finding.

    Unlike :func:`repro.schedules.passes.run_passes` (which stops at the
    first failing executability pass and raises), this runs *every*
    selected pass and returns the full report.  ``passes`` accepts
    registered names or :class:`AnalysisPass` objects; ``None`` runs
    every registered pass.  Either way the passes run in dependency
    order.
    """
    report: AnalysisReport[PassIssue] = AnalysisReport(
        f"schedule {schedule.name!r}", {"schedule": schedule.name}
    )
    return SCHEDULE_PASSES.run(schedule, report, passes, context or AnalysisContext())
