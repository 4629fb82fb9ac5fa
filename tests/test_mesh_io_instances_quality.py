"""Tests for repro.mesh.io, repro.mesh.instances, repro.mesh.quality."""

import numpy as np
import pytest

from repro.mesh.instances import (
    INSTANCES,
    clear_mesh_cache,
    get_instance,
    instance_names,
)
from repro.mesh.io import (
    load_mesh,
    load_mesh_text,
    save_mesh,
    save_mesh_text,
)
from repro.mesh.quality import QualityReport, quality_report


class TestBinaryIO:
    def test_roundtrip(self, two_tet_mesh, tmp_path):
        path = tmp_path / "mesh.npz"
        save_mesh(two_tet_mesh, path)
        loaded = load_mesh(path)
        assert np.array_equal(loaded.points, two_tet_mesh.points)
        assert np.array_equal(loaded.tets, two_tet_mesh.tets)

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError):
            load_mesh(path)

    def test_atomic_write_leaves_no_tmp(self, two_tet_mesh, tmp_path):
        path = tmp_path / "mesh.npz"
        save_mesh(two_tet_mesh, path)
        assert list(tmp_path.iterdir()) == [path]


class TestTextIO:
    def test_roundtrip_exact(self, two_tet_mesh, tmp_path):
        path = tmp_path / "mesh.txt"
        save_mesh_text(two_tet_mesh, path)
        loaded = load_mesh_text(path)
        # repr() round-trips doubles exactly.
        assert np.array_equal(loaded.points, two_tet_mesh.points)
        assert np.array_equal(loaded.tets, two_tet_mesh.tets)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-mesh\n")
        with pytest.raises(ValueError, match="magic"):
            load_mesh_text(path)

    def test_truncated_file(self, two_tet_mesh, tmp_path):
        path = tmp_path / "mesh.txt"
        save_mesh_text(two_tet_mesh, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]))
        with pytest.raises(ValueError):
            load_mesh_text(path)


class TestInstances:
    def test_registry_names(self):
        assert instance_names() == ("demo", "sf10e", "sf5e", "sf2e", "sf1e")
        assert set(INSTANCES) == set(instance_names())

    def test_get_instance_error_lists_options(self):
        with pytest.raises(KeyError, match="sf10e"):
            get_instance("nope")

    def test_gating(self, monkeypatch):
        inst = INSTANCES["sf2e"]
        monkeypatch.delenv("REPRO_LARGE", raising=False)
        assert not inst.is_enabled()
        with pytest.raises(RuntimeError, match="REPRO_LARGE"):
            inst.build()
        monkeypatch.setenv("REPRO_LARGE", "1")
        assert inst.is_enabled()

    def test_enabled_only_filter(self, monkeypatch):
        monkeypatch.delenv("REPRO_LARGE", raising=False)
        monkeypatch.delenv("REPRO_HUGE", raising=False)
        assert instance_names(enabled_only=True) == ("demo", "sf10e", "sf5e")

    def test_memory_cache_returns_same_object(self):
        a, _ = get_instance("demo").build()
        b, _ = get_instance("demo").build()
        assert a is b

    def test_disk_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MESH_CACHE", str(tmp_path))
        clear_mesh_cache()
        try:
            mesh1, report1 = get_instance("demo").build()
            assert report1 is not None  # fresh build
            assert (tmp_path / "demo-seed0.npz").exists()
            clear_mesh_cache()
            mesh2, report2 = get_instance("demo").build()
            assert report2 is None  # disk hit
            assert np.array_equal(mesh1.points, mesh2.points)
        finally:
            clear_mesh_cache()

    def test_paper_mesh_sizes(self):
        assert INSTANCES["sf10e"].paper_mesh_sizes["nodes"] == 7_294
        assert INSTANCES["demo"].paper_mesh_sizes is None

    def test_calibration_close_to_paper(self, sf10e_mesh):
        paper = INSTANCES["sf10e"].paper_mesh_sizes
        assert abs(sf10e_mesh.num_nodes - paper["nodes"]) / paper["nodes"] < 0.15
        assert (
            abs(sf10e_mesh.num_elements - paper["elements"]) / paper["elements"]
            < 0.25
        )


class TestQualityReport:
    def test_demo_quality(self, demo_mesh):
        qr = quality_report(demo_mesh)
        assert qr.num_nodes == demo_mesh.num_nodes
        assert 0 < qr.min_quality <= qr.mean_quality <= 1
        assert qr.p05_quality > 0.1  # no dominating sliver population
        assert 10 < qr.mean_degree < 20  # unstructured-3D-mesh degree
        assert qr.total_volume == pytest.approx(demo_mesh.total_volume())

    def test_str_contains_key_numbers(self, single_tet_mesh):
        text = str(quality_report(single_tet_mesh))
        assert "nodes=4" in text and "elements=1" in text

    @pytest.mark.parametrize("instance", ["demo", "sf10e", "single_tet"])
    def test_equals_the_separate_measures(self, request, instance):
        """One corner gather for both radii and one edge array for the
        longest and shortest edge: the report is, field for field, the
        one composed from a gather per measure."""
        mesh = request.getfixturevalue(f"{instance}_mesh")
        assert quality_report(mesh) == report_by_separate_measures(mesh)


def report_by_separate_measures(mesh):
    """The quality report as composed before its measures shared a
    gather: the oracle."""
    from repro.geometry import (
        tet_circumradii,
        tet_longest_edges,
        tet_shortest_edges,
        tet_volumes,
    )

    p = mesh.points[mesh.tets]
    f = p[:, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]], :]
    u = f[:, :, 1, :] - f[:, :, 0, :]
    v = f[:, :, 2, :] - f[:, :, 0, :]
    area = (np.linalg.norm(np.cross(u, v), axis=2) / 2.0).sum(axis=1)
    vols = tet_volumes(mesh.points, mesh.tets)
    with np.errstate(divide="ignore", invalid="ignore"):
        rin = np.where(area > 0, 3.0 * vols / area, 0.0)
        rcirc = tet_circumradii(mesh.points, mesh.tets)
        q = np.where(np.isfinite(rcirc) & (rcirc > 0), 3.0 * rin / rcirc, 0.0)
    q = np.clip(q, 0.0, 1.0)
    longest = tet_longest_edges(mesh.points, mesh.tets)
    shortest = tet_shortest_edges(mesh.points, mesh.tets)
    with np.errstate(divide="ignore", invalid="ignore"):
        edge_ratio = np.where(shortest > 0, longest / shortest, np.inf)
    degrees = mesh.node_degrees
    return QualityReport(
        num_nodes=mesh.num_nodes,
        num_elements=mesh.num_elements,
        num_edges=mesh.num_edges,
        mean_degree=float(degrees.mean()),
        max_degree=int(degrees.max()),
        min_quality=float(q.min()),
        mean_quality=float(q.mean()),
        p05_quality=float(np.percentile(q, 5)),
        min_volume=float(vols.min()),
        total_volume=float(vols.sum()),
        max_edge_ratio=float(edge_ratio.max()),
    )
