"""Lock-discipline static analyzer for the repo's threaded packages.

The concurrency sibling of :mod:`repro.schedules.analysis`, built on
the same pass framework (:mod:`repro.schedules.analysis.framework`): an
AST model of the repo's own sources (:mod:`.model`), four built-in
passes (``guarded-by``, ``lock-order``, ``blocking-under-lock``,
``thread-hygiene``), a runtime lock-order verifier (:mod:`.runtime`)
and the ``repro lint-code`` driver with the code-pass registry
(:mod:`.driver`).
"""

from repro.devtools.concurrency.driver import (
    CODE_PASSES,
    DEFAULT_LINT_PATHS,
    lint_code,
    register_code_pass,
    run_code_analysis,
)
from repro.devtools.concurrency.model import (
    ProjectModel,
    build_model,
    parse_module,
)
from repro.devtools.concurrency.runtime import (
    LockOrderRecorder,
    LockOrderVerdict,
    RecordingLock,
    instrument,
    verify_lock_order,
)
from repro.schedules.analysis.framework import CodeIssue, Severity

__all__ = [
    "CODE_PASSES",
    "DEFAULT_LINT_PATHS",
    "lint_code",
    "CodeIssue",
    "Severity",
    "register_code_pass",
    "run_code_analysis",
    "ProjectModel",
    "build_model",
    "parse_module",
    "LockOrderRecorder",
    "LockOrderVerdict",
    "RecordingLock",
    "instrument",
    "verify_lock_order",
]
