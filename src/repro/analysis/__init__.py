"""Static analysis for the reproduction: the ``repro-lint`` linter.

:mod:`repro.analysis.core` and the rule modules check ``src/`` at the
AST level for determinism and dimensional consistency.  Run
``repro-lint src/`` (or ``--json`` for tooling); suppress intentional
findings with ``# repro-lint: ignore[rule]``.

The properties the paper's exchange rests on are not linted: the
superstep layout proves them once, when it is built
(:func:`repro.smvp.layout.check_layout` — race freedom, and a plan that
moves exactly the schedule's words, each copy summing every other copy
once), and raises :class:`~repro.smvp.layout.ContractViolation` with
the PE and phase at fault.

See DESIGN.md sections 7 and 12 for the rule catalog and race freedom
by construction.
"""

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

__all__ = [
    "ALL_RULES",
    "Finding",
    "lint_file",
    "lint_paths",
    "pragma_report",
    "render_json",
    "render_pragma_report",
    "render_text",
]
