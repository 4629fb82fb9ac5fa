"""Tests for the ``repro-lint`` static-analysis subsystem.

Covers the acceptance criteria: the purpose-built fixture files under
``tests/lint_fixtures/`` trigger at least six distinct rules at the
expected locations, pragmas suppress, the final source tree lints
clean, and the CLI exit codes / ``--json`` schema behave.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    lint_paths,
    pragma_report,
    render_json,
    render_pragma_report,
    render_text,
)
from repro.analysis.core import _ensure_rules_loaded
from repro.cli import main_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src"
REPO = Path(__file__).parent.parent

# Parametrizing over the catalog needs it populated at collection time.
_ensure_rules_loaded()


@pytest.fixture(scope="module")
def fixture_findings():
    return lint_paths([str(FIXTURES)])


def rules_hit(findings, path_fragment=None):
    return {
        f.rule
        for f in findings
        if path_fragment is None or path_fragment in f.path
    }


class TestFixtureDetection:
    def test_at_least_six_distinct_rules(self, fixture_findings):
        assert len(rules_hit(fixture_findings)) >= 6

    def test_determinism_rules_fire_where_expected(self, fixture_findings):
        det = [f for f in fixture_findings if "det_violations" in f.path]
        by_rule = {}
        for f in det:
            by_rule.setdefault(f.rule, []).append(f.line)
        assert sorted(by_rule["unseeded-random"]) == [16, 17, 18]
        assert sorted(by_rule["numpy-legacy-random"]) == [22, 23]
        assert by_rule["unseeded-default-rng"] == [27]
        assert sorted(by_rule["wall-clock"]) == [31, 32, 33]
        assert sorted(by_rule["unordered-iteration"]) == [38, 39]
        # Dict views are this rule's, not unordered-iteration's; the
        # sorted twin stays clean.
        assert by_rule["bsp-reduction-order"] == [46]

    def test_pragma_suppresses(self, fixture_findings):
        # The `intentional_entropy` body (line 58) carries a pragma.
        det = [f for f in fixture_findings if "det_violations" in f.path]
        assert all(f.line < 54 for f in det)

    def test_units_rule(self, fixture_findings):
        units = [f for f in fixture_findings if "units_violations" in f.path]
        assert {f.rule for f in units} == {"unit-mismatch"}
        assert sorted(f.line for f in units) == [6, 11, 16]
        messages = " ".join(f.message for f in units)
        assert "seconds and bytes/second" in messages
        assert "words and blocks" in messages
        assert "seconds and nanoseconds" in messages

    def test_clock_shim_banned_in_model_code(self, fixture_findings):
        model = [f for f in fixture_findings if "clocked_model" in f.path]
        assert {f.rule for f in model} == {"wall-clock"}
        assert len(model) == 2
        assert all("clock-free" in f.message for f in model)

    def test_no_print_rule(self, fixture_findings):
        hits = [f for f in fixture_findings if "no_print" in f.path]
        assert {f.rule for f in hits} == {"no-print"}
        # Line 17 carries a pragma; the docstring mention is invisible.
        assert sorted(f.line for f in hits) == [8, 25]
        assert all("print() in library code" in f.message for f in hits)

    def test_no_print_exempts_presentation_layers(self):
        cli_py = SRC / "repro" / "cli.py"
        tables_dir = SRC / "repro" / "tables"
        assert lint_paths([str(cli_py)], rules=["no-print"]) == []
        assert lint_paths([str(tables_dir)], rules=["no-print"]) == []

    def test_no_bare_except_rule(self, fixture_findings):
        hits = [
            f for f in fixture_findings if "swallowed_exceptions" in f.path
        ]
        assert {f.rule for f in hits} == {"no-bare-except"}
        # Bare except, two silent broads, one tuple-hidden broad; the
        # observed/narrow/pragma'd handlers stay clean.
        assert sorted(f.line for f in hits) == [10, 17, 24, 33]
        messages = " ".join(f.message for f in hits)
        assert "bare `except:`" in messages
        assert "silently swallows" in messages

    def test_no_bare_except_exempts_cli_and_observed_handlers(self):
        cli_py = SRC / "repro" / "cli.py"
        assert lint_paths([str(cli_py)], rules=["no-bare-except"]) == []
        # Broad handlers that re-raise typed errors (checkpoint loader)
        # are not swallows and must stay clean.
        recovery_py = SRC / "repro" / "faults" / "recovery.py"
        assert (
            lint_paths([str(recovery_py)], rules=["no-bare-except"]) == []
        )

    def test_clean_fixtures_produce_nothing(self, fixture_findings):
        assert not [f for f in fixture_findings if "clean_module" in f.path]

    def test_prepare_purity_fires_where_expected(self, fixture_findings):
        hits = [f for f in fixture_findings if "prepare_impure" in f.path]
        assert {f.rule for f in hits} == {"prepare-purity"}
        assert sorted(f.line for f in hits) == [13, 16, 28]
        assert all("product/prepare" in f.message for f in hits)


class TestSourceTreeClean:
    @pytest.fixture(scope="class")
    def tree_findings(self):
        """One walk of src/, tests/, benchmarks/ and examples/."""
        return lint_paths(
            [
                str(REPO / name)
                for name in ("src", "tests", "benchmarks", "examples")
            ]
        )

    def test_full_tree_lints_clean(self, tree_findings):
        """src/ lints clean, and tests/benchmarks/examples do too."""
        assert tree_findings == [], render_text(tree_findings)

    def test_fixture_dir_pruned_from_tree_walks(
        self, tree_findings, fixture_findings
    ):
        """Walking tests/ skips lint_fixtures; naming it lints it."""
        assert not [f for f in tree_findings if "lint_fixtures" in f.path]
        assert fixture_findings


class TestEngine:
    def test_rule_catalog_is_complete(self):
        expected = {
            "unseeded-random",
            "numpy-legacy-random",
            "unseeded-default-rng",
            "wall-clock",
            "unordered-iteration",
            "unit-mismatch",
            "no-print",
            "no-bare-except",
            "prepare-purity",
            "bsp-reduction-order",
        }
        assert expected == set(ALL_RULES)

    def test_every_rule_has_fixture_coverage(self, fixture_findings):
        """Every registered rule fires somewhere under lint_fixtures/ —
        a rule nothing exercises is a rule nothing proves."""
        fired = {f.rule for f in fixture_findings}
        assert fired == set(ALL_RULES)

    @pytest.mark.parametrize("rule", sorted(ALL_RULES))
    def test_rules_filter_isolates_each_rule(self, rule):
        only = lint_paths([str(FIXTURES)], rules=[rule])
        assert only, f"--rules {rule} found nothing in the fixtures"
        assert {f.rule for f in only} == {rule}

    @pytest.mark.parametrize("rule", sorted(ALL_RULES))
    def test_pragma_suppresses_each_rule(
        self, rule, fixture_findings, tmp_path
    ):
        """Appending `# repro-lint: ignore[rule]` to every finding line
        silences exactly that rule — checked for the whole catalog."""
        hits = [f for f in fixture_findings if f.rule == rule]
        source = Path(hits[0].path)
        lines = source.read_text().splitlines()
        target_lines = {
            f.line for f in hits if Path(f.path) == source
        }
        for line_no in sorted(target_lines):
            lines[line_no - 1] += f"  # repro-lint: ignore[{rule}]"
        copy = tmp_path / source.name
        copy.write_text("\n".join(lines) + "\n")
        # The relocation alone must not hide the findings...
        control = tmp_path / f"control_{source.name}"
        control.write_text(source.read_text())
        assert lint_paths([str(control)], rules=[rule])
        # ...the pragma must.
        assert lint_paths([str(copy)], rules=[rule]) == []

    def test_rule_filter(self):
        only_units = lint_paths([str(FIXTURES)], rules=["unit-mismatch"])
        assert only_units
        assert {f.rule for f in only_units} == {"unit-mismatch"}

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rules"):
            lint_paths([str(FIXTURES)], rules=["no-such-rule"])

    def test_missing_path_rejected(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([str(FIXTURES / "does_not_exist")])

    def test_findings_sorted_and_stable(self, fixture_findings):
        keys = [(f.path, f.line, f.col, f.rule) for f in fixture_findings]
        assert keys == sorted(keys)
        assert fixture_findings == lint_paths([str(FIXTURES)])

    def test_render_json_schema(self, fixture_findings):
        payload = json.loads(render_json(fixture_findings))
        assert payload["version"] == 1
        assert payload["count"] == len(fixture_findings)
        first = payload["findings"][0]
        assert set(first) == {"rule", "path", "line", "col", "message"}


class TestPragmaReport:
    def test_counts_named_bare_and_skip(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import random\n"
            "x = random.random()  # repro-lint: ignore[unseeded-random]\n"
            "y = random.random()  # repro-lint: ignore\n"
        )
        (tmp_path / "b.py").write_text(
            "# repro-lint: skip-file\n"
            "import random\n"
            "z = random.random()\n"
        )
        report = pragma_report([str(tmp_path)])
        assert report["total"] == 2
        assert report["by_rule"] == {"*": 1, "unseeded-random": 1}
        assert report["by_file"] == {str(tmp_path / "a.py"): 2}
        assert report["skip_files"] == [str(tmp_path / "b.py")]

    def test_render(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "pass  # repro-lint: ignore[no-print]\n"
        )
        text = render_pragma_report(pragma_report([str(tmp_path)]))
        assert "pragma budget: 1 suppression(s)" in text
        assert "rule no-print: 1" in text

    def test_cli_pragma_report_flag(self, capsys):
        """Exit 0 and "clean" on the source tree, plus the budget."""
        assert main_lint([str(SRC), "--pragma-report"]) == 0
        out = capsys.readouterr().out
        assert "pragma budget:" in out
        assert "repro-lint: clean" in out

    def test_cli_pragma_budget_gate(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(
            "pass  # repro-lint: ignore\n"
            "pass  # repro-lint: ignore\n"
        )
        assert main_lint([str(tmp_path), "--pragma-budget", "2"]) == 0
        capsys.readouterr()
        assert main_lint([str(tmp_path), "--pragma-budget", "1"]) == 1
        out = capsys.readouterr().out
        assert "pragma budget exceeded: 2 > 1" in out


class TestCli:
    def test_exit_one_on_findings(self, capsys):
        assert main_lint([str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "finding(s)" in out

    def test_json_mode(self, capsys):
        assert main_lint([str(FIXTURES), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] > 0
        assert all("rule" in f for f in payload["findings"])

    def test_list_rules(self, capsys):
        assert main_lint(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out
        assert "unit-mismatch" in out

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main_lint([str(FIXTURES), "--rules", "no-such-rule"])
        assert exc.value.code == 2
