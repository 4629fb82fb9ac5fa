"""The compiled node -> part incidence against its numpy oracle.

``node_part_incidence`` runs ``cut.c``'s ``incidence_rows`` /
``incidence_parts`` (each element's part bit ORed into its corners'
``ceil(p / 64)`` words, then popcount and the set bits); the oracle is
its numpy spelling, ``metrics._incidence_numpy``, which builds the rows
from the sorted distinct ``node * p + part`` keys and runs for labels
the pass does not take (a strided view, here).  Both must give the
same canonical CSR, array for array, and every residency statistic
built on it must stay the same.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.core import TetMesh
from repro.mesh.instances import get_instance
from repro.partition import Partition, metrics, partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.stats import smvp_statistics

#: Both sides of each 64-part word boundary, and more than three words.
PARTS = (1, 2, 3, 63, 64, 65, 128, 200)


def numpy_incidence(mesh, partition):
    """``node_part_incidence`` by its numpy spelling."""
    n, p = mesh.num_nodes, partition.num_parts
    index = np.int32 if max(n * p, 4 * mesh.num_elements) < 2**31 else np.int64
    indptr, parts = metrics._incidence_numpy(
        mesh.tets, partition.parts, n, p, index
    )
    mat = sp.csr_matrix(
        (np.ones(len(parts), dtype=np.int8), parts, indptr), shape=(n, p)
    )
    mat.has_canonical_format = True
    return mat


def strided(partition):
    """``partition`` with its labels a strided view of the same int32s:
    ``node_part_incidence`` runs its numpy path on it."""
    labels = np.repeat(partition.parts, 2)[::2]
    assert labels.dtype == np.int32 and not labels.flags.c_contiguous
    return Partition(labels, partition.num_parts, method=partition.method)


def assert_same_csr(got, want) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.has_canonical_format and want.has_canonical_format


def mesh_of(request, instance):
    if instance == "sf5e":
        return get_instance("sf5e").build()[0]
    return request.getfixturevalue(f"{instance}_mesh")


@pytest.mark.parametrize("instance", ["demo", "sf10e", "sf5e"])
def test_compiled_equals_the_oracle_on_the_instances(request, instance):
    mesh = mesh_of(request, instance)
    for p in PARTS:
        partition = partition_mesh(mesh, p, seed=0)
        got = metrics.node_part_incidence(mesh, partition)
        assert_same_csr(
            got, metrics.node_part_incidence(mesh, strided(partition))
        )
        want = numpy_incidence(mesh, partition)
        assert_same_csr(got, want)
        assert np.array_equal(
            np.diff(got.indptr), np.asarray(want.sum(axis=1)).ravel()
        )


@st.composite
def meshes_and_parts(draw):
    """A mesh whose elements repeat corners and leave some nodes
    untouched (empty rows), and random parts over up to 200 labels."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 60))
    p = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Corners from a subset of the nodes, so the rest have empty rows.
    used = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
    tets = rng.choice(used, size=(m, 4))
    tets[: m // 3, 1] = tets[: m // 3, 0]  # a repeated corner
    mesh = TetMesh(np.zeros((n, 3)), tets)
    return mesh, Partition(rng.integers(0, p, m), p)


@settings(max_examples=150, deadline=None)
@given(meshes_and_parts())
def test_compiled_equals_the_oracle_on_random_meshes(case):
    mesh, partition = case
    got = metrics.node_part_incidence(mesh, partition)
    want = numpy_incidence(mesh, partition)
    assert_same_csr(got, want)
    touched = np.unique(mesh.tets)
    assert np.count_nonzero(np.diff(got.indptr)) == len(touched)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "oracle"])
@pytest.mark.parametrize("corner", [5, -1, 2**40])
def test_a_corner_out_of_range_is_refused_by_element(
    two_tet_mesh, compiled, corner
):
    tets = two_tet_mesh.tets.copy()
    tets[1, 2] = corner
    mesh = TetMesh(two_tet_mesh.points, tets)
    partition = Partition(np.array([1, 0]), 2)
    message = rf"element 1 has a corner outside \[0, 5\): \[.*{corner}.*\]"
    with pytest.raises(ValueError, match=message):
        if compiled:
            metrics.node_part_incidence(mesh, partition)
        else:
            numpy_incidence(mesh, partition)


def test_residency_and_statistics_are_unchanged(demo_mesh, sf10e_mesh):
    for mesh, p in ((demo_mesh, 8), (sf10e_mesh, 64), (sf10e_mesh, 65)):
        partition = partition_mesh(mesh, p, seed=3)
        got_dist = DataDistribution(mesh, partition)
        got_stats = smvp_statistics(mesh, partition)
        got_metrics = metrics.partition_metrics(mesh, partition)
        by_sort = strided(partition)
        want_dist = DataDistribution(mesh, by_sort)
        want_residency = want_dist.node_residency
        want_stats = smvp_statistics(mesh, by_sort)
        want_metrics = metrics.partition_metrics(mesh, by_sort)
        residency = got_dist.node_residency
        assert residency.dtype == want_residency.dtype == np.int64
        assert np.array_equal(residency, want_residency)
        assert np.array_equal(
            residency, np.asarray(got_dist.node_parts.sum(axis=1)).ravel()
        )
        assert np.array_equal(got_dist.shared_nodes, want_dist.shared_nodes)
        assert got_dist.ownership_hash == want_dist.ownership_hash
        for name, value in dataclasses.asdict(want_stats).items():
            assert np.array_equal(getattr(got_stats, name), value), name
        assert got_metrics == want_metrics
