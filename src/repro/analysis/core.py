"""The ``repro-lint`` engine: findings, the rule registry, file walking.

A *rule* inspects one Python file and yields :class:`Finding` objects.
Each source is parsed once and handed to every rule.  Findings on
lines carrying a ``# repro-lint: ignore[...]`` pragma are dropped (see
:mod:`repro.analysis.pragmas`).

The engine is deliberately dependency-free (stdlib ``ast`` + ``json``)
so the lint job can run before the scientific stack is even importable.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis import pragmas


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set ``name``/``description`` and override
    :meth:`check_python`.
    """

    name = "abstract"
    description = ""

    def check_python(
        self, path: str, source: str, tree: ast.AST
    ) -> Iterable[Finding]:
        return ()


#: Registry, in reporting order.  Populated by ``register``.
ALL_RULES: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator adding a rule to :data:`ALL_RULES`."""
    if rule_cls.name in ALL_RULES:
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    ALL_RULES[rule_cls.name] = rule_cls()
    return rule_cls


def _ensure_rules_loaded() -> None:
    """Import the rule modules (registration happens on import)."""
    from repro.analysis import (  # noqa: F401
        api_rules,
        determinism,
        exception_rules,
        print_rules,
        units,
    )


def iter_target_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into the lintable file list.

    Directories are walked recursively for ``.py`` files; explicit file
    arguments are taken as-is.  Hidden directories, ``__pycache__``, and
    ``lint_fixtures`` directories (deliberate-violation corpora —
    lintable only when named as the walk root) are skipped.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if not d.startswith(".")
                and d != "__pycache__"
                and d != "lint_fixtures"
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return out


def lint_file(
    path: str, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the (selected) rules over one file."""
    _ensure_rules_loaded()
    active = [
        rule
        for name, rule in ALL_RULES.items()
        if rules is None or name in rules
    ]
    findings: List[Finding] = []
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    if pragmas.file_skipped(lines):
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax-error",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"cannot parse: {exc.msg}",
            )
        ]
    for rule in active:
        for finding in rule.check_python(path, source, tree):
            if not pragmas.suppressed(lines, finding.rule, finding.line):
                findings.append(finding)
    return findings


def lint_paths(
    paths: Sequence[str], rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every target file under ``paths``; findings sorted by location."""
    _ensure_rules_loaded()
    if rules is not None:
        unknown = sorted(set(rules) - set(ALL_RULES))
        if unknown:
            raise ValueError(
                f"unknown rules {unknown}; available: {sorted(ALL_RULES)}"
            )
    findings: List[Finding] = []
    for path in iter_target_files(paths):
        findings.extend(lint_file(path, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def pragma_report(paths: Sequence[str]) -> Dict[str, object]:
    """Count ``# repro-lint: ignore`` pragmas under ``paths``.

    The *pragma budget*: every suppression is an intentional exception
    and the CI lint job prints this tally so growth is visible in
    review.  Returns ``{"total", "by_rule", "by_file", "skip_files"}``
    (a bare ``ignore`` counts under ``"*"``).
    """
    by_rule: Dict[str, int] = {}
    by_file: Dict[str, int] = {}
    skip_files: List[str] = []
    for path in iter_target_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if pragmas.file_skipped(lines):
            skip_files.append(path)
            continue
        for line in lines:
            rules = pragmas.parse_line_pragma(line)
            if rules is None:
                continue
            by_file[path] = by_file.get(path, 0) + 1
            for rule in sorted(rules):
                by_rule[rule] = by_rule.get(rule, 0) + 1
    return {
        "total": sum(by_file.values()),
        "by_rule": dict(sorted(by_rule.items())),
        "by_file": dict(sorted(by_file.items())),
        "skip_files": sorted(skip_files),
    }


def render_pragma_report(report: Dict[str, object]) -> str:
    """Human-readable pragma-budget tally for the CI lint job."""
    lines = [f"pragma budget: {report['total']} suppression(s)"]
    for rule, count in report["by_rule"].items():  # type: ignore[union-attr]
        lines.append(f"  rule {rule}: {count}")
    for path, count in report["by_file"].items():  # type: ignore[union-attr]
        lines.append(f"  {path}: {count}")
    for path in report["skip_files"]:  # type: ignore[union-attr]
        lines.append(f"  skip-file: {path}")
    return "\n".join(lines) + "\n"


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    lines = [finding.format() for finding in findings]
    lines.append(
        f"repro-lint: {len(findings)} finding(s)"
        if findings
        else "repro-lint: clean"
    )
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (``--json``): stable schema for tooling."""
    return json.dumps(
        {
            "version": 1,
            "count": len(findings),
            "findings": [asdict(finding) for finding in findings],
        },
        indent=2,
        sort_keys=True,
    )
