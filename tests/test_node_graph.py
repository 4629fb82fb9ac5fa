"""The mesh's node graph, against its numpy specification.

``TetMesh`` builds one node graph (``repro.mesh.topology.node_graph``:
CSR, neighbours ascending, no self loops) and reads its edges, degrees,
adjacency and connectivity off it.  The graph is a compiled pass in
``fem/assembly.c`` (``node_graph``, after ``assembly_graph``), and a
numpy sort (``topology._numpy_graph``, the path of ids past int32)
gives the same graph:

* compiled == numpy == the old ``np.unique`` edge list (kept here as
  the oracle, its ``(i, i)`` rows dropped) over Hypothesis tet arrays:
  shuffled and repeated ids, repeated corners, unused nodes, a single
  element, no elements;
* the instances' node / element / edge counts pinned, and the
  stiffness pattern's block count equal to n + 2E;
* no ``np.unique`` on the compiled path;
* a corner outside the node numbering refused by element, by both
  spellings, from every topology entry point.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.geometry.tetra import TET_EDGES
from repro.mesh import topology
from repro.mesh.core import TetMesh
from repro.mesh.instances import get_instance
from repro.mesh.topology import NodeGraph, node_graph
from repro.util.native import native


def numpy_node_graph(tets, num_nodes: int) -> NodeGraph:
    """``node_graph`` by its numpy sort, refusals included."""
    tets = np.asarray(tets, dtype=np.int64)
    ptr, nbr, bad = topology._numpy_graph(tets, int(num_nodes))
    if bad >= 0:
        raise ValueError(f"element {bad}: corner outside the node numbering")
    return NodeGraph(ptr, nbr)


#: ``node_graph`` compiled, then its numpy sort.
GRAPHS = (node_graph, numpy_node_graph)


# -- the old definitions, verbatim: the oracle -----------------------------


def old_directed_edges(tets: np.ndarray) -> np.ndarray:
    tets = np.asarray(tets, dtype=np.int64)
    pairs = tets[:, TET_EDGES]  # (m, 6, 2)
    pairs = pairs.reshape(-1, 2)
    return np.sort(pairs, axis=1)


def old_unique_edges(tets: np.ndarray) -> np.ndarray:
    pairs = old_directed_edges(tets)
    if len(pairs) == 0:
        return pairs.reshape(0, 2)
    n = int(pairs.max()) + 1
    keys = pairs[:, 0] * np.int64(n) + pairs[:, 1]
    uniq = np.unique(keys)
    out = np.empty((len(uniq), 2), dtype=np.int64)
    out[:, 0] = uniq // n
    out[:, 1] = uniq % n
    return out


def old_node_adjacency(num_nodes: int, edges: np.ndarray) -> sp.csr_matrix:
    if len(edges) == 0:
        return sp.csr_matrix((num_nodes, num_nodes), dtype=np.int8)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.ones(len(rows), dtype=np.int8)
    return sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))


def old_is_connected(num_nodes: int, edges: np.ndarray) -> bool:
    if num_nodes <= 1:
        return True
    adj = old_node_adjacency(num_nodes, edges)
    ncomp, _ = connected_components(adj, directed=False)
    return int(ncomp) == 1


def oracle_edges(tets: np.ndarray) -> np.ndarray:
    """The old edge list without its self loops (repeated corners)."""
    edges = old_unique_edges(tets)
    return edges[edges[:, 0] != edges[:, 1]]


# -- cases ------------------------------------------------------------------


@st.composite
def tet_arrays(draw):
    """``(tets, num_nodes)``: elements over ``num_nodes`` nodes, with
    ids shuffled by a random relabelling, repeated across elements
    (and, sometimes, within one), and some nodes unused."""
    used = draw(st.integers(1, 24))
    num_nodes = used + draw(st.integers(0, 4))
    m = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if used >= 4 and draw(st.booleans()):
        tets = np.array(
            [rng.choice(used, 4, replace=False) for _ in range(m)],
            dtype=np.int64,
        ).reshape(m, 4)
    else:
        tets = rng.integers(0, used, size=(m, 4))
    relabel = rng.permutation(num_nodes)
    return relabel[tets], num_nodes


def check_graph(graph: NodeGraph, tets: np.ndarray, num_nodes: int) -> None:
    """``graph`` is ``tets``'s node graph by the old definitions."""
    ptr, nbr = graph
    assert ptr.dtype == np.int64 and ptr.shape == (num_nodes + 1,)
    assert nbr.dtype == np.int32 and nbr.shape == (ptr[-1],)
    assert ptr[0] == 0 and np.all(np.diff(ptr) >= 0)
    rows = np.repeat(np.arange(num_nodes), np.diff(ptr))
    assert not np.any(nbr == rows)
    same_row = rows[1:] == rows[:-1]
    assert np.all(nbr[1:][same_row] > nbr[:-1][same_row])

    expected = oracle_edges(tets)
    edges = graph.edges()
    assert edges.dtype == np.int64 and edges.shape == expected.shape
    assert edges.flags.c_contiguous
    assert np.array_equal(edges, expected)

    degrees = np.zeros(num_nodes, dtype=np.int64)
    np.add.at(degrees, expected[:, 0], 1)
    np.add.at(degrees, expected[:, 1], 1)
    assert graph.degrees().dtype == np.int64
    assert np.array_equal(graph.degrees(), degrees)

    adj = graph.adjacency()
    old = old_node_adjacency(num_nodes, expected)
    assert adj.dtype == np.int8 and adj.shape == (num_nodes, num_nodes)
    assert (adj != adj.T).nnz == 0
    assert not adj.diagonal().any()
    assert (adj != old).nnz == 0
    assert np.array_equal(adj.indptr, old.indptr)
    assert np.array_equal(adj.indices, old.indices)
    assert graph.is_connected() == old_is_connected(num_nodes, expected)


class TestAgainstTheOldEdgeList:
    @settings(max_examples=150, deadline=None)
    @given(tet_arrays())
    def test_both_paths(self, case):
        tets, num_nodes = case
        graphs = []
        for build in GRAPHS:
            graph = build(tets, num_nodes)
            check_graph(graph, tets, num_nodes)
            graphs.append(graph)
        for graph in graphs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(graph, graphs[0]))

    @settings(max_examples=60, deadline=None)
    @given(tet_arrays())
    def test_mesh_reads_its_graph(self, case):
        tets, num_nodes = case
        points = np.zeros((num_nodes, 3))
        mesh = TetMesh(points, tets)
        expected = oracle_edges(tets)
        old_adj = old_node_adjacency(num_nodes, expected)
        assert np.array_equal(mesh.edges, expected)
        assert mesh.num_edges == len(expected)
        degrees = mesh.node_graph.degrees()
        assert np.array_equal(mesh.node_degrees, degrees)
        assert (mesh.node_adjacency() != old_adj).nnz == 0
        connected = old_is_connected(num_nodes, expected)
        assert mesh.is_connected() == connected

    def test_repeated_corner_is_no_self_loop(self):
        """The old list held ``(i, i)`` for a repeated corner; the graph
        has no self loops (``validate`` refuses such elements)."""
        tets = np.array([[0, 0, 1, 2]])
        assert [0, 0] in old_unique_edges(tets).tolist()
        for build in GRAPHS:
            graph = build(tets, 3)
            assert graph.edges().tolist() == [[0, 1], [0, 2], [1, 2]]
            assert graph.degrees().tolist() == [2, 2, 2]


class TestSmallCases:
    def test_single_tet(self):
        edges = node_graph(np.array([[0, 1, 2, 3]]), 4).edges()
        assert len(edges) == 6
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_duplicates_collapsed(self):
        tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4]])
        edges = node_graph(tets, 5).edges()
        assert len(edges) == 9

    def test_empty(self):
        graph = node_graph(np.empty((0, 4), dtype=int), 0)
        assert graph.edges().shape == (0, 2)
        assert graph.ptr.tolist() == [0]

    def test_index_order_irrelevant(self):
        a = node_graph(np.array([[3, 2, 1, 0]]), 4).edges()
        b = node_graph(np.array([[0, 1, 2, 3]]), 4).edges()
        assert np.array_equal(a, b)

    def test_node_adjacency_counts(self):
        # The path 0 - 1 - 2.
        graph = NodeGraph(np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]))
        adj = graph.adjacency()
        assert adj[0, 1] == 1 and adj[1, 0] == 1
        assert adj[0, 2] == 0

    def test_node_adjacency_empty(self):
        adj = node_graph(np.empty((0, 4), dtype=int), 3).adjacency()
        assert adj.shape == (3, 3)
        assert adj.nnz == 0

    def test_is_connected_trivial(self):
        assert node_graph(np.empty((0, 4), dtype=int), 1).is_connected()
        assert not node_graph(np.empty((0, 4), dtype=int), 2).is_connected()

    def test_tets_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            node_graph(np.array([[0, 1, 2]]), 3)


#: Nodes, elements and edges of each instance (the paper's Fig. 2
#: columns for the stand-in meshes).
COUNTS = {
    "demo": (3805, 19200, 24124),
    "sf10e": (7150, 37972, 46857),
    "sf5e": (31330, 172860, 210445),
}


class TestInstances:
    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_counts_pinned(self, name):
        mesh, _ = get_instance(name).build()
        fresh = TetMesh(mesh.points, mesh.tets, copy=False)
        counts = (fresh.num_nodes, fresh.num_elements, fresh.num_edges)
        assert counts == COUNTS[name]
        assert np.array_equal(fresh.edges, oracle_edges(mesh.tets))
        by_sort = numpy_node_graph(mesh.tets, mesh.num_nodes)
        graph = fresh.node_graph
        assert all(np.array_equal(a, b) for a, b in zip(by_sort, graph))

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_blocks_are_nodes_plus_twice_the_edges(self, name):
        """``assembly_graph`` with self loops counts the stiffness
        pattern's node blocks: n + 2E."""
        mesh, _ = get_instance(name).build()
        ffi, lib = native()
        n, m = mesh.num_nodes, mesh.num_elements
        tets = np.ascontiguousarray(mesh.tets, dtype=np.int32)
        node_ptr = np.empty(n + 1, np.int64)
        buf = ffi.from_buffer
        bad = lib.assembly_graph(
            n,
            m,
            buf("int32_t[]", tets),
            1,
            buf("int64_t[]", np.empty(n + 1, np.int64)),
            buf("int32_t[]", np.empty(4 * m, np.int32)),
            buf("int64_t[]", node_ptr),
            buf("int32_t[]", np.empty(n, np.int32)),
        )
        assert bad == -1
        nodes, _, edges = COUNTS[name]
        assert node_ptr[n] == nodes + 2 * edges

    def test_no_np_unique_on_the_compiled_path(self, demo_mesh):
        fresh = TetMesh(demo_mesh.points, demo_mesh.tets, copy=False)
        refuse = mock.patch.object(
            np, "unique", side_effect=AssertionError("np.unique called")
        )
        with refuse:
            assert fresh.num_edges == COUNTS["demo"][2]
            fresh.node_degrees
            fresh.node_adjacency()
            assert fresh.is_connected()


class TestCornersOutsideTheNumbering:
    @pytest.mark.parametrize(
        "tets, first",
        [
            ([[0, 1, 2, -1], [1, 2, 3, 4]], 0),
            ([[0, 1, 2, 3], [1, 2, 3, 5]], 1),
            ([[0, 1, 2, 3], [1, 2, 3, 2**40]], 1),
            ([[0, 1, 2, 3], [1, 2, 3, -(2**40)], [9, 1, 2, 3]], 1),
        ],
    )
    def test_refused_by_element(self, tets, first):
        points = np.zeros((5, 3))
        message = f"element {first}: corner outside the node numbering"
        for build in GRAPHS:
            with pytest.raises(ValueError, match=message):
                build(np.array(tets), 5)
        mesh = TetMesh(points, tets)
        for read in (
            lambda: mesh.edges,
            lambda: mesh.num_edges,
            lambda: mesh.node_degrees,
            mesh.node_adjacency,
            mesh.is_connected,
        ):
            with pytest.raises(ValueError, match=message):
                read()
