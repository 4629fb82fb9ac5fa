"""Shared fixtures.

Mesh builds are the expensive part of the suite, so the standard
instances are built once per session.  Tiny hand-built meshes are used
wherever exact values matter.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.material import ElementMaterials, materials_from_model
from repro.geometry import AABB
from repro.mesh.core import TetMesh
from repro.mesh.instances import get_instance
from repro.mesh.stuffing import stuff_octree
from repro.octree.linear import LinearOctree
from repro.partition.base import recursive_bisection
from repro.smvp.kernels import CSR, CsrKernel
from repro.velocity.basin import default_san_fernando_like_model
from repro.velocity.sizing import UniformSizingField


#: The feature flags one superstep pipeline makes freely combinable.
#: ``sink`` is a plain trace sink (phase clock only), ``profile`` is
#: ``profile=True`` *and* a sink (per-PE and wire spans).
SUPERSTEP_FLAGS = ("abft", "profile", "sink", "out")
#: Every subset of them, the empty one included.
FLAG_SUBSETS = [
    subset
    for n in range(len(SUPERSTEP_FLAGS) + 1)
    for subset in itertools.combinations(SUPERSTEP_FLAGS, n)
]


class InputsSeen:
    """A kernel wrapper that records every input its products read."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.name = kernel.name
        self.inputs = []

    def product(self, state, x, out=None):
        self.inputs.append(x)
        return self.kernel.product(state, x, out)


def layout_index_maps(layout):
    """Every index map a superstep over ``layout`` runs on."""
    plan = layout.plan
    return [
        layout.offsets, layout.rows_cat, layout.owner_pos,
        layout.copy_dst, layout.copy_src,
        plan.send_pos, plan.recv_pos, *(dst for dst, _, _ in plan.rounds),
    ]


def shared_word_oracle(distribution):
    """The (p, p) words the exchange must move, from residency alone:
    ``3 · offdiag(Rᵀ R)``, R the (nodes, PEs) residency matrix — every
    node PEs i and j both hold is sent once each way, three words a
    node."""
    residency = distribution.node_parts.astype(np.int64)
    shared = (residency.T @ residency).toarray()
    np.fill_diagonal(shared, 0)
    return 3 * shared


def flagged_multiply(
    mesh, partition, materials, x, backend, flags, kernel="csr"
):
    """One fault-free ``multiply`` with the ``flags`` subset switched on.

    ``profile`` means ``profile=True`` *and* a trace sink; ``sink`` a
    trace sink alone; ``out`` a caller-owned output buffer.  Besides the
    product, checks the race-freedom guards — every input the kernel
    read was a read-only view, every index map is read-only — and what
    each flag promises: the ABFT guard detected nothing, one trace was
    emitted whose host windows tile ``[0, t_smvp]`` (profiled) or whose
    phase times fit inside it (plain sink), the result landed in the
    caller's buffer — and every observer saw every message of the
    exchange: the ABFT guard is handed all of them, a profiled multiply
    records one ``wire`` span per message carrying its words.
    """
    from repro.smvp.executor import DistributedSMVP
    from repro.smvp.trace import TraceLog

    log = TraceLog() if {"profile", "sink"} & set(flags) else None
    out = np.full(x.shape, np.nan) if "out" in flags else None
    with DistributedSMVP(
        mesh,
        partition,
        materials,
        kernel=kernel,
        backend=backend,
        abft="abft" in flags,
        profile="profile" in flags,
        trace_sink=log,
    ) as ds:
        seen = []
        if ds._observer is not None:
            inner = ds._observer.after_exchange

            def counted(x_locals, messages, y_locals):
                seen.append(len(messages))
                return inner(x_locals, messages, y_locals)

            ds._observer.after_exchange = counted
        ds.kernel = kernel = InputsSeen(ds.kernel)
        y = ds.multiply(x, out=out)
        if "out" in flags:
            assert y is out
        assert len(kernel.inputs) == ds.num_parts
        assert not any(a.flags.writeable for a in kernel.inputs)
        assert not any(a.flags.writeable for a in layout_index_maps(ds.layout))
        assert ds.abft_enabled == ("abft" in flags)
        assert ds.sdc_stats.detected_sdc == 0
        assert ds._superstep == 1
        blocks = ds.schedule.total_blocks
        words = ds.schedule.total_words * (x.shape[1] if x.ndim == 2 else 1)
        assert seen == [blocks] * ("abft" in flags)
    if log is not None:
        (trace,) = log.traces
        assert trace.total_blocks == blocks
        checked = "abft" in flags
        assert (trace.t_verify > 0.0) == checked
        if "profile" not in flags:
            assert trace.pe_spans is None
            phases = (
                trace.t_scatter + trace.t_comp + trace.t_comm + trace.t_gather
            )
            assert 0.0 < phases + trace.t_verify <= trace.t_smvp
            return y
        wires = [s for s in trace.pe_spans if s.kind == "wire"]
        assert len(wires) == blocks
        assert sum(s.words for s in wires) == words
        windows = sorted(
            trace.pe_spans.host_windows(), key=lambda w: (w.t_start, w.t_end)
        )
        assert windows[0].t_start == 0.0
        assert windows[-1].t_end == trace.t_smvp
        for before, after in zip(windows, windows[1:]):
            assert before.t_end == after.t_start
        assert ("verify" in {w.kind for w in windows}) == checked
    return y


class ScipyCsr(CsrKernel):
    """``csr`` whose every state is the CSR matrix itself: its products
    run scipy's loop, the bits the packed loop must give (what ``csr``
    does for a matrix without the node structure).  An executor given
    it takes the CSR route for every PE."""

    def prepare(self, matrix):
        return matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()


@pytest.fixture(params=["compiled", "scipy"])
def csr_kernel(request):
    """``csr`` itself (packed states, the compiled node-block loop), or
    :class:`ScipyCsr` (plain CSR states, scipy's loop)."""
    return CSR if request.param == "compiled" else ScipyCsr()


def geometric_recursion(mesh, num_parts, seed, cut, candidates=12):
    """The geometric partitioner's parts by ``recursive_bisection``,
    ``cut`` at every cut (``geometric._cut``, or ``_cut_numpy``: the
    numpy specification), drawing as ``GeometricBisection`` draws."""
    centroids, tets = mesh.element_centroids, mesh.tets

    def bisect(mesh, ids, rng, target_left):
        draws = rng.normal(size=(candidates, 4))
        return cut(centroids, tets, mesh.num_nodes, ids, draws, target_left)[1]

    return recursive_bisection(mesh, num_parts, bisect, seed=seed)


@pytest.fixture(scope="session")
def basin_model():
    return default_san_fernando_like_model()


@pytest.fixture(scope="session")
def demo_mesh():
    """The demo instance (~3.8k nodes), built once."""
    mesh, _ = get_instance("demo").build()
    return mesh


@pytest.fixture(scope="session")
def demo_materials(demo_mesh, basin_model):
    return materials_from_model(demo_mesh, basin_model)


@pytest.fixture(scope="session")
def sf10e_mesh():
    """The sf10e instance (~7k nodes), built once."""
    mesh, _ = get_instance("sf10e").build()
    return mesh


@pytest.fixture()
def single_tet_mesh():
    """The unit right tetrahedron (volume 1/6)."""
    points = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    tets = np.array([[0, 1, 2, 3]])
    return TetMesh(points, tets)


@pytest.fixture()
def two_tet_mesh():
    """Two tets sharing the triangular face (0, 1, 2)."""
    points = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.3, 0.3, -1.0],
        ]
    )
    tets = np.array([[0, 1, 2, 3], [0, 2, 1, 4]])
    return TetMesh(points, tets)


@pytest.fixture()
def cube_mesh():
    """A conforming tet mesh of the unit cube (octree stuffing of one
    root cell: 8 corners + center, 12 tets of volume 1/12 each)."""
    domain = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    tree = LinearOctree(domain, (1, 1, 1))
    mesh, _spacing = stuff_octree(tree)
    return mesh


@pytest.fixture()
def graded_cube_tree():
    """A small balanced octree over the unit cube with mixed levels."""
    domain = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    class CornerSizing(UniformSizingField):
        """Fine near the origin corner, coarse elsewhere."""

        def __init__(self):
            super().__init__(size=0.5)

        def h(self, points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            near = np.linalg.norm(pts, axis=1) < 0.3
            return np.where(near, 0.08, 0.6)

        def h_min(self):
            return 0.08

    return LinearOctree.build(domain, CornerSizing(), base_shape=(1, 1, 1))


@pytest.fixture()
def homogeneous_materials():
    """Factory for uniform materials over any mesh."""

    def make(mesh: TetMesh) -> ElementMaterials:
        return ElementMaterials.homogeneous(mesh.num_elements)

    return make
