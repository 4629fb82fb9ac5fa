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

Superstep races need neither layer: the superstep layout proves them
absent once, when it is built (:func:`repro.smvp.layout.check_layout`),
and raises :class:`ContractViolation` with the PE and phase at fault.

See DESIGN.md sections 7 and 12 for the rule catalog and race freedom
by construction.
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
    "ScheduleReport",
    "ScheduleViolation",
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
    "lint_file",
    "lint_paths",
    "pragma_report",
    "render_json",
    "render_pragma_report",
    "render_text",
]
