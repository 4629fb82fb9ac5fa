"""Tests for repro.tables (render + every generator)."""

import pytest

from repro.tables.render import Table, format_cell
from repro.tables.report import TABLES, generate


class TestFormatCell:
    def test_ints_get_separators(self):
        assert format_cell(1234567) == "1,234,567"

    def test_floats_three_sig_figs(self):
        assert format_cell(0.123456) == "0.123"
        assert format_cell(3.14159) == "3.14"

    def test_zero_and_bool_and_str(self):
        assert format_cell(0.0) == "0"
        assert format_cell(True) == "True"
        assert format_cell("abc") == "abc"


class TestTable:
    def test_alignment_and_title(self):
        t = Table(title="T", headers=["name", "value"])
        t.add_row("alpha", 12)
        t.add_row("b", 3456)
        text = str(t)
        assert text.startswith("T\n=")
        lines = text.splitlines()
        # Layout: title, rule, header, separator, rows...
        assert "alpha" in lines[4]
        # Numbers right-aligned: the ones digits line up.
        assert lines[4].rstrip().endswith("12")
        assert lines[5].rstrip().endswith("3,456")

    def test_row_width_checked(self):
        t = Table(title="T", headers=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_notes(self):
        t = Table(title="T", headers=["a"])
        t.add_note("hello")
        assert "note: hello" in str(t)


class TestGenerators:
    """Each table generator must run and mention its key content.

    These render real (small-instance) data, so they double as
    integration smoke tests for the whole pipeline.
    """

    @pytest.fixture(autouse=True, scope="class")
    def _warm_caches(self, demo_mesh, sf10e_mesh):
        # Session mesh fixtures warm the instance cache used by tables.
        return None

    def test_registry_complete(self):
        assert set(TABLES) == {
            "fig2",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig9-chart",
            "fig10a",
            "fig10b",
            "fig10-chart",
            "fig11",
            "exflow",
            "memory",
            "tf",
            "validation",
            "prediction",
            "reliability",
            "fault-recovery",
        }

    def test_fig2(self):
        text = generate(["fig2"])
        assert "sf10e" in text and "7,294" in text

    def test_fig6(self):
        text = generate(["fig6"])
        assert "beta" in text
        assert "1.0" in text

    def test_fig7(self):
        text = generate(["fig7"])
        assert "C_max" in text and "838,224" in text

    def test_fig8(self):
        text = generate(["fig8"])
        assert "bisection" in text

    def test_fig9(self):
        text = generate(["fig9"])
        assert "279" in text  # the ~300 MB/s headline cell

    def test_fig10(self):
        text = generate(["fig10a", "fig10b"])
        assert "maximal blocks" in text and "4-word blocks" in text
        assert "infeasible" in text

    def test_fig11(self):
        text = generate(["fig11"])
        assert "half-bandwidth" in text

    def test_exflow(self):
        text = generate(["exflow"])
        assert "EXFLOW" in text and "155" in text

    def test_memory(self):
        text = generate(["memory"])
        assert "450" in text  # paper's sf2 memory example

    def test_validation_table(self):
        text = generate(["validation"])
        assert "True" in text and "beta" in text

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            generate(["fig99"])

    def test_generate_all_smoke(self):
        # Includes the tf measurement (a real timing run); just check it
        # produces every section.
        text = generate()
        for title in ("Figure 2", "Figure 7", "Figure 11", "Section 3.1"):
            assert title in text
