"""Tests for repro.cli and repro.paperdata."""

import pytest

from repro import paperdata
from repro.cli import main_measure, main_quake, main_tables


class TestPaperData:
    def test_fig7_complete(self):
        # Every (application, subdomains) cell present.
        for app in paperdata.APPLICATIONS:
            for p in paperdata.SUBDOMAIN_COUNTS:
                assert (app, p) in paperdata.SMVP_PROPERTIES
                assert (app, p) in paperdata.BETA_BOUNDS

    def test_fig7_internal_consistency(self):
        # The published F/C_max column must match F and C_max (rounded).
        for props in paperdata.SMVP_PROPERTIES.values():
            assert props.f_over_c == round(props.F / props.C_max)

    def test_c_max_invariants(self):
        for props in paperdata.SMVP_PROPERTIES.values():
            assert props.C_max % 2 == 0
            assert props.C_max % 3 == 0

    def test_f_shrinks_with_p(self):
        for app in paperdata.APPLICATIONS:
            fs = [
                paperdata.SMVP_PROPERTIES[(app, p)].F
                for p in paperdata.SUBDOMAIN_COUNTS
            ]
            assert fs == sorted(fs, reverse=True)

    def test_betas_in_range(self):
        for beta in paperdata.BETA_BOUNDS.values():
            assert 1.0 <= beta <= 2.0

    def test_mesh_growth_factor(self):
        # Halving the period increases node count by ~4-13x (the paper's
        # "factor of nearly eight" with boundary effects).
        nodes = [paperdata.MESH_SIZES[a]["nodes"] for a in paperdata.APPLICATIONS]
        ratios = [b / a for a, b in zip(nodes, nodes[1:])]
        assert all(3 < r < 14 for r in ratios)

    def test_period_of(self):
        assert paperdata.period_of("sf10") == 10.0
        assert paperdata.period_of("sf2") == 2.0
        with pytest.raises(ValueError):
            paperdata.period_of("quake")


class TestCliTables:
    def test_single_table(self, capsys):
        assert main_tables(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_unknown_table_errors(self, capsys):
        with pytest.raises(SystemExit):
            main_tables(["nope"])


class TestCliQuake:
    def test_distributed_run(self, capsys):
        assert main_quake(["--instance", "demo", "--pes", "4", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "distributed on 4 PEs" in out
        assert "finite=True" in out

    def test_sequential_run(self, capsys):
        assert (
            main_quake(["--instance", "demo", "--steps", "3", "--sequential"])
            == 0
        )
        out = capsys.readouterr().out
        assert "ran 3 steps" in out


class TestCliMesh:
    def test_report_and_export(self, capsys, tmp_path):
        from repro.cli import main_mesh

        out = tmp_path / "demo.npz"
        text = tmp_path / "demo.txt"
        rc = main_mesh(
            ["--instance", "demo", "--out", str(out), "--out-text", str(text)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "quality:" in printed
        assert out.exists() and text.exists()
        from repro.mesh.io import load_mesh

        mesh = load_mesh(out)
        assert mesh.num_nodes == 3805

    def test_fresh_build_reports_the_stuffing_octree(self, capsys):
        from repro.cli import main_mesh
        from repro.mesh.instances import get_instance

        assert main_mesh(["--instance", "demo", "--no-cache"]) == 0
        _, report = get_instance("demo").build(use_cache=False)
        assert (
            f"(octree stuffing: {report.octree_leaves} leaves, depth "
            f"{report.octree_max_level})"
        ) in capsys.readouterr().out

    def test_gated_instance_errors(self, monkeypatch):
        from repro.cli import main_mesh

        monkeypatch.delenv("REPRO_HUGE", raising=False)
        with pytest.raises(SystemExit):
            main_mesh(["--instance", "sf1e"])


class TestCliMeasure:
    def test_subset(self, capsys):
        rc = main_measure(
            [
                "--instance",
                "demo",
                "--pes",
                "2",
                "--repetitions",
                "1",
                "--kernels",
                "smv0",
                "lmv",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "smv0" in out and "lmv" in out and "MFLOPS" in out

    def test_unknown_kernel_errors(self):
        with pytest.raises(SystemExit):
            main_measure(["--kernels", "bogus"])
