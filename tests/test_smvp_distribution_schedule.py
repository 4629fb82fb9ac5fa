"""Tests for repro.smvp.distribution and repro.smvp.schedule.

``TestVectorizedCounts`` keeps the per-PE definitions of the structural
counts (one ``node_graph`` per PE) and of the pair table (a loop over
shared nodes) as oracles for the vectorized passes.
"""

from typing import Dict, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.topology import node_graph
from repro.partition.base import Partition, partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import (
    BYTES_PER_WORD,
    WORDS_PER_NODE,
    CommSchedule,
    Message,
)


@pytest.fixture()
def two_tet_dist(two_tet_mesh):
    return DataDistribution(two_tet_mesh, Partition(np.array([0, 1]), 2))


@pytest.fixture(scope="module")
def demo_dist(demo_mesh):
    return DataDistribution(demo_mesh, partition_mesh(demo_mesh, 8, seed=0))


class TestDistribution:
    def test_mismatch_rejected(self, two_tet_mesh):
        with pytest.raises(ValueError):
            DataDistribution(two_tet_mesh, Partition(np.zeros(5, dtype=int), 1))

    def test_two_tet_residency(self, two_tet_dist):
        # Face nodes 0, 1, 2 reside on both PEs.
        assert list(two_tet_dist.shared_nodes) == [0, 1, 2]
        assert list(two_tet_dist.node_residency) == [2, 2, 2, 1, 1]

    def test_local_nodes_sorted_and_complete(self, two_tet_dist):
        assert list(two_tet_dist.local_nodes(0)) == [0, 1, 2, 3]
        assert list(two_tet_dist.local_nodes(1)) == [0, 1, 2, 4]

    def test_global_to_local_roundtrip(self, two_tet_dist):
        nodes = np.array([0, 2, 4])
        local = two_tet_dist.global_to_local(1, nodes)
        assert np.array_equal(two_tet_dist.local_nodes(1)[local], nodes)

    def test_global_to_local_rejects_foreign(self, two_tet_dist):
        with pytest.raises(ValueError):
            two_tet_dist.global_to_local(0, np.array([4]))

    def test_local_counts_two_tets(self, two_tet_dist):
        counts = two_tet_dist.local_counts
        assert list(counts["nodes"]) == [4, 4]
        assert list(counts["edges"]) == [6, 6]
        assert list(counts["elements"]) == [1, 1]
        assert list(counts["nonzeros"]) == [9 * (4 + 12)] * 2
        assert list(counts["flops"]) == [2 * 9 * 16] * 2

    def test_pair_shared_counts(self, two_tet_dist):
        mat = two_tet_dist.pair_shared_counts
        assert mat[0, 1] == 3
        assert mat[0, 0] == 4  # diagonal = resident node count

    def test_pair_shared_nodes(self, two_tet_dist):
        pairs = two_tet_dist.pair_shared_nodes
        assert list(pairs) == [(0, 1)]
        assert list(pairs[(0, 1)]) == [0, 1, 2]

    def test_every_node_resides_somewhere(self, demo_dist):
        assert demo_dist.node_residency.min() >= 1

    def test_union_of_local_nodes_is_all(self, demo_dist):
        union = np.unique(
            np.concatenate(
                [demo_dist.local_nodes(p) for p in range(demo_dist.num_parts)]
            )
        )
        assert len(union) == demo_dist.mesh.num_nodes

    def test_flops_vs_global_lower_bound(self, demo_dist):
        # Sum of local flops >= global flops (shared blocks replicated).
        mesh = demo_dist.mesh
        global_flops = 2 * 9 * (mesh.num_nodes + 2 * mesh.num_edges)
        assert demo_dist.local_counts["flops"].sum() >= global_flops


class TestMessage:
    def test_words_and_bytes(self):
        msg = Message(src=0, dst=1, nodes=5)
        assert msg.words == 5 * WORDS_PER_NODE
        assert msg.bytes == msg.words * BYTES_PER_WORD


class TestSchedule:
    def test_two_tet_schedule(self, two_tet_dist):
        sched = CommSchedule(two_tet_dist)
        assert sched.total_blocks == 2  # one each way
        assert sched.c_max == 2 * 3 * WORDS_PER_NODE  # 3 nodes, both dirs
        assert sched.b_max == 2
        assert sched.m_avg == pytest.approx(9.0)
        assert list(sched.neighbors_of(0)) == [1]

    def test_word_matrix_symmetric_zero_diagonal(self, demo_dist):
        mat = CommSchedule(demo_dist).word_matrix
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)

    def test_paper_invariants(self, demo_dist):
        # C_i even (matched messages) and divisible by 3 (3 dof).
        sched = CommSchedule(demo_dist)
        assert np.all(sched.words_per_pe % 6 == 0)
        assert np.all(sched.blocks_per_pe % 2 == 0)

    def test_totals_consistent(self, demo_dist):
        sched = CommSchedule(demo_dist)
        assert sched.total_words == sched.words_per_pe.sum() // 2
        assert sched.total_blocks == sched.blocks_per_pe.sum() // 2
        assert sched.m_avg == pytest.approx(
            sched.total_words / sched.total_blocks
        )

    def test_words_match_shared_counts(self, demo_dist):
        # word_matrix[i, j] = 3 * shared(i, j).
        sched = CommSchedule(demo_dist)
        pair_counts = demo_dist.pair_shared_counts
        for (a, b), nodes in demo_dist.pair_shared_nodes.items():
            assert sched.word_matrix[a, b] == 3 * len(nodes)
            assert pair_counts[a, b] == len(nodes)

    def test_bisection_words(self, demo_dist):
        sched = CommSchedule(demo_dist)
        mat = sched.word_matrix
        p = demo_dist.num_parts
        expected = mat[: p // 2, p // 2 :].sum() + mat[p // 2 :, : p // 2].sum()
        assert sched.bisection_words() == expected
        # Trivial boundaries.
        assert sched.bisection_words(0) == 0
        assert sched.bisection_words(p) == 0
        with pytest.raises(ValueError):
            sched.bisection_words(p + 1)

    @pytest.mark.parametrize("boundary", [-1, -3])
    def test_negative_bisection_boundary_rejected(self, demo_dist, boundary):
        """Only an omitted boundary means ceil(p/2); a negative one is
        an error, not the default."""
        with pytest.raises(ValueError):
            CommSchedule(demo_dist).bisection_words(boundary)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_default_boundary_is_the_root_cut(self, demo_mesh, p):
        """For odd p the root cut leaves ceil(p/2) parts on the left: the
        PEs below the default boundary hold exactly its target_left
        elements."""
        part = partition_mesh(demo_mesh, p, method="geometric", seed=0)
        sched = CommSchedule(DataDistribution(demo_mesh, part))
        target_left = round(demo_mesh.num_elements * ((p + 1) // 2) / p)
        prefix = np.cumsum(part.part_sizes())
        root = int(np.flatnonzero(prefix == target_left)[0]) + 1
        assert sched.bisection_words() == sched.bisection_words(root)
        assert sched.bisection_words() != sched.bisection_words(p // 2)

    def test_pair_table_follows_the_messages(self, demo_dist):
        """``pairs`` lists every sharing pair in ``messages`` order, both
        sides naming the same global dofs; the counts never build it."""
        sched = CommSchedule(demo_dist)
        sched.c_max, sched.b_max, sched.q_max, sched.bisection_words()
        assert "pairs" not in vars(sched)
        forward = sched.messages[::2]
        assert len(sched.pairs) == len(forward)
        for (a, b, dof_a, dof_b), msg in zip(sched.pairs, forward):
            assert (a, b) == (msg.src, msg.dst)
            assert dof_a.size == dof_b.size == msg.words
            glob_a = 3 * demo_dist.local_nodes(a)[dof_a // 3] + dof_a % 3
            glob_b = 3 * demo_dist.local_nodes(b)[dof_b // 3] + dof_b % 3
            assert np.array_equal(glob_a, glob_b)

    def test_bisection_less_than_total(self, demo_dist):
        sched = CommSchedule(demo_dist)
        assert sched.bisection_words() <= 2 * sched.total_words
        # With bisection-ordered parts, the bisection should carry a
        # strict subset of all traffic.
        assert sched.bisection_words() < sched.word_matrix.sum()


class TestBoundaryFlops:
    def test_exact_against_assembled_rows(self, demo_mesh):
        """boundary_flops must equal 2x the nnz of the shared-node rows
        of the actually assembled local matrices."""
        from repro.fem.assembly import assemble_subdomain_stiffness
        from repro.fem.material import ElementMaterials

        partition = partition_mesh(demo_mesh, 6, seed=0)
        dist = DataDistribution(demo_mesh, partition)
        materials = ElementMaterials.homogeneous(demo_mesh.num_elements)
        shared_mask = dist.node_residency >= 2
        for part in range(6):
            nodes = dist.local_nodes(part)
            local_k = assemble_subdomain_stiffness(
                demo_mesh, materials, dist.local_elements(part), nodes
            )
            shared_local = np.flatnonzero(shared_mask[nodes])
            dof = (3 * shared_local[:, None] + np.arange(3)).ravel()
            row_nnz = np.diff(local_k.indptr)
            assert 2 * int(row_nnz[dof].sum()) == dist.boundary_flops[part]

    def test_bounded_by_total_flops(self, demo_mesh):
        partition = partition_mesh(demo_mesh, 16)
        dist = DataDistribution(demo_mesh, partition)
        assert np.all(dist.boundary_flops <= dist.local_counts["flops"])
        assert np.all(dist.boundary_flops > 0)

    def test_single_part_no_boundary(self, demo_mesh):
        from repro.partition.base import Partition

        part = Partition(np.zeros(demo_mesh.num_elements, dtype=np.int32), 1)
        dist = DataDistribution(demo_mesh, part)
        assert dist.boundary_flops[0] == 0


class TestScheduleDelta:
    """ScheduleDelta must report both directions of an eviction:
    communicating pairs removed AND added, plus the contention depth."""

    @pytest.fixture(scope="class")
    def demo_schedules(self, demo_mesh):
        from repro.smvp.distribution import redistribute_after_eviction

        partition = partition_mesh(demo_mesh, 6, seed=0)
        before = CommSchedule(DataDistribution(demo_mesh, partition))
        shrunk, red = redistribute_after_eviction(demo_mesh, partition, 2)
        after_evict = CommSchedule(DataDistribution(demo_mesh, shrunk))
        return before, after_evict, red

    def test_identity_delta_reports_no_pair_churn(self, demo_schedules):
        from repro.smvp.schedule import schedule_delta

        before, *_ = demo_schedules
        delta = schedule_delta(before, before)
        assert delta.pairs_removed == 0
        assert delta.pairs_added == 0
        assert delta.q_max_before == delta.q_max_after == before.q_max

    def test_eviction_removes_dead_pe_pairs(self, demo_schedules):
        from repro.smvp.schedule import schedule_delta

        before, after_evict, red = demo_schedules
        delta = schedule_delta(
            before, after_evict, id_map=red.survivor_map
        )
        dead_pe_pairs = sum(
            1
            for a, b in before.distribution.pair_shared_nodes
            if 2 in (a, b)
        )
        # Every dead-PE link is gone (plus any dissolved by regrowth).
        assert delta.pairs_removed >= dead_pe_pairs >= 1
        assert delta.num_parts_after == delta.num_parts_before - 1

    @pytest.mark.parametrize("dead", range(6))
    def test_eviction_pair_churn_matches_adjacency(self, demo_mesh, dead):
        """Removed and added pairs, counted against the node-sharing
        adjacency of the two distributions under the survivor map."""
        from repro.smvp.distribution import redistribute_after_eviction
        from repro.smvp.schedule import schedule_delta

        partition = partition_mesh(demo_mesh, 6, seed=0)
        before = CommSchedule(DataDistribution(demo_mesh, partition))
        shrunk, red = redistribute_after_eviction(demo_mesh, partition, dead)
        after = CommSchedule(DataDistribution(demo_mesh, shrunk))
        delta = schedule_delta(before, after, id_map=red.survivor_map)
        old_pairs = set(before.distribution.pair_shared_nodes)
        new_pairs = set(after.distribution.pair_shared_nodes)
        to = red.survivor_map
        survived = {
            tuple(sorted((to[a], to[b])))
            for a, b in sorted(old_pairs)
            if dead not in (a, b)
        }
        dead_pairs = len(old_pairs) - len(survived)
        assert dead_pairs >= 1
        assert delta.pairs_removed == dead_pairs + len(survived - new_pairs)
        assert delta.pairs_added == len(new_pairs - survived)
        assert (delta.num_parts_before, delta.num_parts_after) == (6, 5)
        assert delta.q_max_after == after.q_max

    def test_incoming_per_pe_matches_word_matrix(self, demo_dist):
        schedule = CommSchedule(demo_dist)
        expected = (schedule.word_matrix > 0).sum(axis=0)
        assert np.array_equal(schedule.incoming_per_pe, expected)
        assert schedule.q_max == int(expected.max())


def oracle_counts(
    dist: DataDistribution,
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """``local_counts`` and ``boundary_flops`` by their per-PE
    definitions: each PE's sub-mesh edges from one ``node_graph``."""
    p = dist.num_parts
    tets = dist.mesh.tets
    shared_mask = dist.node_residency >= 2
    nodes = np.zeros(p, dtype=np.int64)
    edges = np.zeros(p, dtype=np.int64)
    elements = np.zeros(p, dtype=np.int64)
    boundary = np.zeros(p, dtype=np.int64)
    for part in range(p):
        elem_ids = dist.local_elements(part)
        local_edges = node_graph(tets[elem_ids], dist.mesh.num_nodes).edges()
        local_nodes = dist.local_nodes(part)
        elements[part] = len(elem_ids)
        nodes[part] = len(local_nodes)
        edges[part] = len(local_edges)
        shared_local = shared_mask[local_nodes].sum()
        boundary[part] = 2 * 9 * (
            shared_local + int(shared_mask[local_edges].sum())
        )
    nonzeros = 9 * (nodes + 2 * edges)
    counts = {
        "nodes": nodes,
        "edges": edges,
        "elements": elements,
        "nonzeros": nonzeros,
        "flops": 2 * nonzeros,
    }
    return counts, boundary


def oracle_pairs(dist: DataDistribution) -> Dict[Tuple[int, int], np.ndarray]:
    """``pair_shared_nodes`` as a loop over the shared nodes."""
    csr = dist.node_parts.tocsr()
    indptr, indices = csr.indptr, csr.indices
    out: Dict[Tuple[int, int], List[int]] = {}
    for node in dist.shared_nodes:
        parts = indices[indptr[node] : indptr[node + 1]]
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                key = (int(parts[a]), int(parts[b]))
                out.setdefault(key, []).append(int(node))
    return {
        key: np.array(nodes, dtype=np.int64)
        for key, nodes in sorted(out.items())
    }


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestVectorizedCounts:
    """The one-pass counts equal their per-PE definitions exactly:
    ``random`` gives high residencies, p = 1 no shared node at all."""

    @settings(max_examples=12, deadline=None)
    @given(
        method=st.sampled_from(["geometric", "random"]),
        p=st.sampled_from([1, 2, 3, 7, 16, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_equal_to_the_per_pe_oracles(self, demo_mesh, method, p, seed):
        dist = DataDistribution(
            demo_mesh, partition_mesh(demo_mesh, p, method=method, seed=seed)
        )
        counts, boundary = oracle_counts(dist)
        assert list(dist.local_counts) == list(counts)
        for name, expected in counts.items():
            assert same_array(dist.local_counts[name], expected), name
        assert same_array(dist.boundary_flops, boundary)

        pairs = oracle_pairs(dist)
        got = dist.pair_shared_nodes
        assert list(got) == list(pairs)
        assert all(type(a) is int and type(b) is int for a, b in got)
        for key, nodes in pairs.items():
            assert same_array(got[key], nodes), key
        if p == 1:
            assert got == {}


class TestCompiledEdgeCounts:
    """``edge_counts`` in ``fem/assembly.c`` gives the arrays of
    ``_edge_counts_numpy`` (the sort over every element's shared corner
    pairs) for any labelling: blocks of consecutive elements (a
    partitioner's few shared nodes) or labels at random (residencies up
    to 4), some parts left empty, p = 1 included."""

    @staticmethod
    def with_empty_parts(mesh, partition):
        """A distribution whose parts may be empty: ``__init__`` refuses
        one, the counts do not need it to."""
        dist = object.__new__(DataDistribution)
        dist.mesh, dist.partition = mesh, partition
        return dist

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([1, 2, 3, 7, 16, 64, 300]),
        used=st.floats(0.0, 1.0),
        layout=st.sampled_from(["blocks", "random"]),
        seed=st.integers(0, 2**16),
    )
    def test_equal_to_numpy(self, demo_mesh, p, used, layout, seed):
        rng = np.random.default_rng(seed)
        m = demo_mesh.num_elements
        labels = rng.choice(p, size=max(1, round(used * p)), replace=False)
        if layout == "blocks":
            parts = labels[np.arange(m) * len(labels) // m]
        else:
            parts = labels[rng.integers(0, len(labels), m)]
        dist = self.with_empty_parts(demo_mesh, Partition(parts, p))
        edges, blocks = dist._edge_counts
        want_edges, want_blocks = dist._edge_counts_numpy()
        assert same_array(edges, want_edges)
        assert same_array(blocks, want_blocks)

    @pytest.mark.parametrize("p", [1, 8, 64])
    def test_a_partitioners_counts_take_no_numpy_pass(self, sf10e_mesh, p):
        dist = DataDistribution(
            sf10e_mesh, partition_mesh(sf10e_mesh, p, "geometric", seed=0)
        )
        want = dist._edge_counts_numpy()
        with mock.patch.object(
            DataDistribution, "_edge_counts_numpy", side_effect=AssertionError
        ):
            got = dist._edge_counts
        assert all(same_array(a, b) for a, b in zip(got, want))
