"""Static analysis & runtime contracts for the reproduction.

Two layers keep the codebase honest about the properties the paper's
argument rests on:

* **``repro-lint``** (:mod:`repro.analysis.core` + the rule modules) —
  AST-level determinism and dimensional-consistency checks over
  ``src/``, plus golden-schedule verification for ``*schedule*.json``
  files.  Run ``repro-lint src/`` (or ``--json`` for tooling); suppress
  intentional findings with ``# repro-lint: ignore[rule]``.

* **runtime contracts** (:mod:`repro.analysis.contracts`) — the same
  BSP invariants (pairwise symmetry, shared-node coverage) plus the
  exchange-plan, CSR-structure and partition-cover checks, enforced on
  live data when ``REPRO_CONTRACTS=1``.

* **the superstep sanitizer** (:mod:`repro.analysis.sanitizer`) —
  dynamic BSP race detection when ``REPRO_SAN=1``: tracked per-PE
  arrays record every (PE, superstep, phase) read/write dof set, and
  each phase is checked against the ownership map and the exchange
  schedule's happens-before order, with exact (pe, step, phase, dof)
  blame.  The static half (ownership rules + the ``@owns`` /
  ``@exchange_phase`` / ``@reads_ghosts`` vocabulary) lives in
  :mod:`repro.analysis.ownership`.

See DESIGN.md sections 7 and 12 for the rule catalog and the
ownership/happens-before model.
"""

from repro.analysis.contracts import (
    ContractViolation,
    check_csr_contract,
    check_partition_cover_contract,
    check_schedule_contract,
    contracts_enabled,
)
from repro.analysis.core import (
    ALL_RULES,
    Finding,
    lint_file,
    lint_paths,
    pragma_report,
    render_json,
    render_pragma_report,
    render_text,
)
from repro.analysis.ownership import exchange_phase, owns, reads_ghosts
from repro.analysis.sanitizer import (
    SanFinding,
    SanitizerError,
    SuperstepSanitizer,
    TrackedArray,
    sanitizer_enabled,
)
from repro.analysis.schedule_check import (
    ScheduleReport,
    ScheduleViolation,
    check_coverage,
    check_messages,
    check_parity,
    check_payload,
    check_rounds,
    check_schedule,
)

__all__ = [
    "ALL_RULES",
    "ContractViolation",
    "Finding",
    "SanFinding",
    "SanitizerError",
    "ScheduleReport",
    "ScheduleViolation",
    "SuperstepSanitizer",
    "TrackedArray",
    "check_coverage",
    "check_csr_contract",
    "check_messages",
    "check_parity",
    "check_partition_cover_contract",
    "check_payload",
    "check_rounds",
    "check_schedule",
    "check_schedule_contract",
    "contracts_enabled",
    "exchange_phase",
    "lint_file",
    "lint_paths",
    "owns",
    "pragma_report",
    "reads_ghosts",
    "render_json",
    "render_pragma_report",
    "render_text",
    "sanitizer_enabled",
]
