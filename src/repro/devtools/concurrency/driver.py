"""Entry point tying model extraction and the pass pipeline together.

:func:`lint_code` is what ``repro lint-code`` and CI call: build the
project model over the requested paths (defaulting to the threaded
packages, ``src/repro/service`` and ``src/repro/tuner``), run every
registered code pass (or a chosen subset), and return the report.  The
gate is :meth:`AnalysisReport.passes
<repro.schedules.analysis.framework.AnalysisReport.passes>`, shared with
``repro lint``: ERRORs always fail, ``strict=True`` additionally fails
on WARNINGs.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.devtools.concurrency.model import ProjectModel, build_model
from repro.schedules.analysis.framework import (
    AnalysisPass,
    AnalysisReport,
    CodeIssue,
    PassRegistry,
)

__all__ = [
    "CODE_PASSES",
    "DEFAULT_LINT_PATHS",
    "lint_code",
    "register_code_pass",
    "run_code_analysis",
]

#: The code passes; each body takes the :class:`ProjectModel`.
CODE_PASSES: PassRegistry[CodeIssue] = PassRegistry(
    "code analysis pass",
    (
        "repro.devtools.concurrency.guarded",
        "repro.devtools.concurrency.lockorder",
        "repro.devtools.concurrency.blocking",
        "repro.devtools.concurrency.hygiene",
    ),
)
register_code_pass = CODE_PASSES.register

#: Packages swept by default: everything that runs under the threaded
#: HTTP service.  Extend with ``--paths`` as more of ``src/`` goes
#: multi-threaded.
DEFAULT_LINT_PATHS = (
    os.path.join("src", "repro", "service"),
    os.path.join("src", "repro", "tuner"),
)


def run_code_analysis(
    model: ProjectModel,
    passes: Sequence[str | AnalysisPass[CodeIssue]] | None = None,
) -> AnalysisReport[CodeIssue]:
    """Run the code passes over ``model`` (every registered pass when
    ``passes`` is ``None``) in dependency order."""
    files = [m.path for m in model.modules]
    report: AnalysisReport[CodeIssue] = AnalysisReport(
        f"{len(files)} file(s)", {"files": files}
    )
    return CODE_PASSES.run(model, report, passes)


def lint_code(
    paths: Sequence[str | os.PathLike] | None = None,
    passes: Sequence[str] | None = None,
    *,
    root: str | os.PathLike | None = None,
) -> tuple[AnalysisReport[CodeIssue], ProjectModel]:
    """Sweep ``paths`` with the concurrency passes.

    ``paths`` defaults to :data:`DEFAULT_LINT_PATHS` resolved against
    ``root`` (default: the current working directory).  Returns both the
    report and the extracted model so callers (the runtime cross-check,
    tests) can reuse the static lock graph without re-parsing.
    """
    if paths is None:
        base = os.fspath(root) if root is not None else os.getcwd()
        paths = [os.path.join(base, p) for p in DEFAULT_LINT_PATHS]
    model = build_model(paths)
    return run_code_analysis(model, passes=passes), model
