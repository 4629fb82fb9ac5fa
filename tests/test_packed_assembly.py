"""Each PE's packed stiffness straight from its elements.

The executor builds every PE's :class:`~repro.smvp.kernels.PackedState`
with one compiled pass over the PE's elements (``packed_fill`` in
``fem/assembly.c``, :func:`~repro.fem.assembly.assemble_subdomain_packed`);
no CSR K_i is assembled and nothing is packed.  The oracle is the CSR
route it replaced, which stays the route of a PE the pass refuses:
``PackedState.of(assemble_subdomain_stiffness(...))``.

* every state array (``ptr``, ``upper``, ``nbr``, ``ref``, ``blocks``)
  is byte-equal to the oracle's, on demo, sf10e and sf5e at p = 1, 2,
  3, 8 and 64, partition seeds 0 and 3, and after a
  ``reconfigure_without``, with the CSR route patched to raise;
* random element subsets, and materials with -0.0 and +-inf in
  ``lam`` / ``mu``: the pass gives the oracle's arrays; with a NaN
  there (three payloads drawn) it leaves the PE to the CSR route,
  whose matrix two payloads can make one bit off symmetric;
* a PE the pass refuses takes the CSR route, and its state still
  matches;
* the global → local map refuses ids outside the node numbering, nodes
  not resident and a ``local_nodes`` not strictly ascending, with the
  messages the searchsorted remap had, through
  ``assemble_subdomain_stiffness``, ``DataDistribution.global_to_local``
  and the executor;
* each PE's elements, from one grouping of the partition, come out
  ascending, as ``flatnonzero`` gives them.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import assembly
from repro.fem.assembly import (
    assemble_subdomain_packed,
    assemble_subdomain_stiffness,
)
from repro.fem.material import ElementMaterials, materials_from_model
from repro.mesh.core import TetMesh
from repro.mesh.instances import get_instance
from repro.partition.base import partition_mesh
from repro.smvp import executor as executor_module
from repro.smvp.distribution import DataDistribution
from repro.smvp.executor import DistributedSMVP
from repro.smvp.kernels import PackedState
from repro.util.native import native
from tests.test_assembly_kernel import element_subsets, resident

FIELDS = ("ptr", "upper", "nbr", "ref", "blocks")


def oracle(mesh, materials, elements, nodes):
    """The CSR route's state (``None``: it keeps the CSR)."""
    matrix = assemble_subdomain_stiffness(mesh, materials, elements, nodes)
    return PackedState.of(matrix)


def assert_same_state(arrays, state):
    assert state is not None
    for name, array in zip(FIELDS, arrays):
        want = getattr(state, name)
        assert array.dtype == want.dtype, name
        assert array.shape == want.shape, name
        assert array.tobytes() == want.tobytes(), name


def in_fresh_thread(check):
    """``check()`` in a new thread, re-raising what it raised.  The
    thread's numbering map is then exactly the mesh's node count long:
    a longer one, left by a larger mesh, would refuse a wrapped id by
    its all -1 tail, not by the bounds test."""
    raised = []

    def run():
        try:
            check()
        except BaseException as err:  # noqa: BLE001 - re-raised below
            raised.append(err)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if raised:
        raise raised[0]


@pytest.fixture
def no_csr_route(monkeypatch):
    """The executor's CSR route raises: every state must come from the
    direct pass."""

    def refused(*args):
        raise AssertionError("a PE took the CSR route")

    monkeypatch.setattr(
        executor_module, "assemble_subdomain_stiffness", refused
    )


@pytest.fixture(scope="module")
def problems(demo_mesh, sf10e_mesh, basin_model):
    sf5e, _ = get_instance("sf5e").build()
    return {
        name: (mesh, materials_from_model(mesh, basin_model))
        for name, mesh in (
            ("demo", demo_mesh), ("sf10e", sf10e_mesh), ("sf5e", sf5e)
        )
    }


def assert_executor_states(ds):
    dist = ds.distribution
    assert len(ds._states) == ds.num_parts
    for pe, state in enumerate(ds._states):
        assert type(state) is PackedState
        want = oracle(
            ds.mesh, ds.materials, dist.local_elements(pe), ds.local_nodes[pe]
        )
        assert state.shape == want.shape and state.nnz == want.nnz
        assert_same_state([getattr(state, name) for name in FIELDS], want)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("name", ["demo", "sf10e", "sf5e"])
    def test_executor_states_are_the_packed_csr(
        self, problems, no_csr_route, name, p, seed
    ):
        mesh, materials = problems[name]
        partition = partition_mesh(mesh, p, method="geometric", seed=seed)
        with DistributedSMVP(mesh, partition, materials) as ds:
            assert_executor_states(ds)

    def test_after_reconfigure_without(self, problems, no_csr_route):
        mesh, materials = problems["sf10e"]
        partition = partition_mesh(mesh, 8, method="geometric", seed=0)
        with DistributedSMVP(mesh, partition, materials) as ds:
            new, _ = ds.reconfigure_without(3)
        with new:
            assert new.num_parts == 7
            assert_executor_states(new)

    @pytest.mark.parametrize("abft", [False, True], ids=["plain", "abft"])
    def test_products_match_the_csr_route(
        self, problems, monkeypatch, abft
    ):
        """The same states, so the same products; ABFT's checksum rows
        read the rebuilt CSR, the same bits as the assembled one."""
        mesh, materials = problems["sf10e"]
        partition = partition_mesh(mesh, 8, method="geometric", seed=0)
        x = np.random.default_rng(0).standard_normal((3 * mesh.num_nodes, 3))
        with DistributedSMVP(mesh, partition, materials, abft=abft) as ds:
            direct = ds.multiply(x)
            rows = ds._guard.checker.w if abft else None
        monkeypatch.setattr(
            executor_module, "assemble_subdomain_packed", lambda *a: None
        )
        with DistributedSMVP(mesh, partition, materials, abft=abft) as ds:
            assert direct.tobytes() == ds.multiply(x).tobytes()
            if abft:
                for mine, theirs in zip(rows, ds._guard.checker.w):
                    assert mine.tobytes() == theirs.tobytes()


#: lam / mu values whose arithmetic a reordered product would change:
#: NaNs of three payloads (x86 keeps the first operand's), infinities
#: and signed zeros.
NANS = tuple(
    np.array([bits], np.uint64).view(np.float64)[0]
    for bits in (0x7FF8000000000000, 0x7FF8000000000123, 0xFFF80000000ABCDE)
)
LAM = st.one_of(
    st.sampled_from(NANS + (np.inf, -np.inf, -0.0, 0.0)),
    st.floats(-1e11, 1e11, allow_nan=False, width=64),
)
MU = st.one_of(
    st.sampled_from(NANS + (np.inf, -0.0, 0.0)),
    st.floats(0.0, 1e11, allow_nan=False, width=64),
)


class TestRandomSubsets:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["demo", "sf10e"]), st.data())
    def test_direct_pass_is_the_oracle(self, problems, name, data):
        mesh, materials = problems[name]
        ids, rng, extra = data.draw(element_subsets(mesh.num_elements))
        nodes = np.sort(resident(mesh, ids, extra))
        special = data.draw(st.integers(0, 8))
        lam, mu = materials.lam.copy(), materials.mu.copy()
        if len(ids) and special:
            hit = rng.choice(ids, size=min(special, len(ids)), replace=False)
            lam[hit] = data.draw(st.lists(LAM, min_size=len(hit), max_size=len(hit)))
            mu[hit] = data.draw(st.lists(MU, min_size=len(hit), max_size=len(hit)))
        materials = ElementMaterials(lam, mu, materials.rho)
        arrays = assemble_subdomain_packed(mesh, materials, ids, nodes)
        if np.isnan(lam[ids]).any() or np.isnan(mu[ids]).any():
            # Two NaN payloads meet in some sums: the CSR route's bits.
            assert arrays is None
        else:
            assert_same_state(arrays, oracle(mesh, materials, ids, nodes))

    def test_resident_nodes_with_empty_rows(self, problems):
        mesh, materials = problems["demo"]
        ids = np.array([7, 400])
        nodes = np.sort(resident(mesh, ids, 4))
        arrays = assemble_subdomain_packed(mesh, materials, ids, nodes)
        assert_same_state(arrays, oracle(mesh, materials, ids, nodes))

    def test_no_elements(self, problems):
        mesh, materials = problems["demo"]
        nodes = np.arange(5)
        arrays = assemble_subdomain_packed(mesh, materials, [], nodes)
        assert_same_state(arrays, oracle(mesh, materials, [], nodes))


class TestCsrRoute:
    def test_a_refused_pe_takes_the_csr_route(self, problems, monkeypatch):
        """A PE whose pass reports failure — here it is told it has one
        block fewer than its upper entries — is assembled as CSR and
        packed; the other PEs keep their direct states, and all match."""
        mesh, materials = problems["demo"]
        partition = partition_mesh(mesh, 4, method="geometric", seed=0)
        dist = DataDistribution(mesh, partition)
        ffi, lib = native()
        refused = partition.elements_of(1)
        calls = []

        class OneShort:
            """The library, with PE 1's (the second) fill short."""

            def __getattr__(self, name):
                return getattr(lib, name)

            @staticmethod
            def packed_fill(*args):
                n_block = 10  # the argument's position
                args = list(args)
                calls.append(args[0])
                if len(calls) == 2:
                    args[n_block] -= 1
                return lib.packed_fill(*args)

        monkeypatch.setattr(assembly, "native", lambda: (ffi, OneShort()))
        for part in range(4):
            arrays = assemble_subdomain_packed(
                mesh, materials, dist.local_elements(part), dist.local_nodes(part)
            )
            assert (arrays is None) == (part == 1)
        calls.clear()
        routed = []

        def assemble(mesh, materials, elements, nodes):
            routed.append(np.array_equal(elements, refused))
            return assemble_subdomain_stiffness(mesh, materials, elements, nodes)

        monkeypatch.setattr(
            executor_module, "assemble_subdomain_stiffness", assemble
        )
        with DistributedSMVP(mesh, partition, materials) as ds:
            assert routed == [True]
            assert_executor_states(ds)

    def test_a_nan_material_takes_the_csr_route(self, problems):
        """A PE whose element has a NaN ``lam`` holds what the CSR route
        gives it — here the CSR itself, two payloads meeting in it —
        and every other PE its direct state."""
        mesh, materials = problems["demo"]
        partition = partition_mesh(mesh, 4, method="geometric", seed=0)
        element = int(partition.elements_of(2)[5])
        lam, mu = materials.lam.copy(), materials.mu.copy()
        lam[element], mu[element] = NANS[1], NANS[2]
        bent = ElementMaterials(lam, mu, materials.rho)
        with DistributedSMVP(mesh, partition, bent) as ds:
            dist = ds.distribution
            for pe, state in enumerate(ds._states):
                matrix = assemble_subdomain_stiffness(
                    mesh, bent, dist.local_elements(pe), ds.local_nodes[pe]
                )
                if pe == 2:
                    assert type(state) is type(matrix)
                    for name in ("indptr", "indices", "data"):
                        mine, theirs = getattr(state, name), getattr(matrix, name)
                        assert mine.tobytes() == theirs.tobytes(), name
                else:
                    want = PackedState.of(matrix)
                    assert_same_state(
                        [getattr(state, name) for name in FIELDS], want
                    )


class TestTypedRefusals:
    """A dense map wraps a negative id and reads an unsorted
    ``local_nodes`` without complaint; each such input is refused."""

    @pytest.fixture
    def case(self, problems):
        mesh, materials = problems["demo"]
        ids = np.array([0, 1, 2])
        nodes = np.unique(mesh.tets[ids])
        return mesh, materials, ids, nodes

    def bad_local_nodes(self, mesh, nodes):
        """``local_nodes`` with an id outside the numbering, one node
        dropped, or out of order."""
        n = mesh.num_nodes
        last = nodes.copy()
        last[-1] = n  # past the end
        negative = np.concatenate([[-1], nodes[1:]])
        swapped = nodes.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        repeated = np.sort(np.concatenate([nodes, nodes[:1]]))
        return {
            "past-the-end": last,
            "negative": negative,
            "not-resident": nodes[1:],
            "unsorted": swapped,
            "repeated": repeated,
        }

    @pytest.mark.parametrize("route", ["csr", "packed"])
    def test_assembly_refuses(self, case, route):
        mesh, materials, ids, nodes = case
        assemble = (
            assemble_subdomain_stiffness
            if route == "csr"
            else assemble_subdomain_packed
        )
        for label, bad in self.bad_local_nodes(mesh, nodes).items():
            with pytest.raises(
                ValueError, match="element touches a node not in local_nodes"
            ):
                assemble(mesh, materials, ids, bad)

    @pytest.mark.parametrize("route", ["csr", "packed"])
    def test_corner_outside_the_numbering_does_not_wrap(self, case, route):
        """A corner id of -1 must not read the map's last slot, even
        with the last node resident, nor one of n its slot past the
        end."""
        mesh, materials, ids, nodes = case
        n = mesh.num_nodes
        assemble = (
            assemble_subdomain_stiffness
            if route == "csr"
            else assemble_subdomain_packed
        )
        def check():
            for corner in (-1, n):
                tets = mesh.tets.copy()
                tets[0, 0] = corner
                bent = TetMesh(mesh.points, tets)
                resident = np.union1d(nodes, [n - 1])
                with pytest.raises(ValueError, match="not in local_nodes"):
                    assemble(bent, materials, ids, resident)

        in_fresh_thread(check)

    def test_global_to_local_refuses(self, problems):
        mesh, _ = problems["demo"]
        partition = partition_mesh(mesh, 4, seed=0)
        dist = DataDistribution(mesh, partition)
        n = mesh.num_nodes
        mine = dist.local_nodes(1)
        foreign = np.setdiff1d(np.arange(n), mine)[:1]
        # The PE holding node n - 1, onto which -1 would wrap.
        last = int(dist.node_parts.tocsr()[n - 1].indices[0])

        def check():
            for ids in ([-1], [n], [n + 10], foreign):
                with pytest.raises(ValueError, match="node not resident on PE 1"):
                    dist.global_to_local(1, np.asarray(ids))
            with pytest.raises(
                ValueError, match=f"node not resident on PE {last}"
            ):
                dist.global_to_local(last, np.array([-1]))
            local = dist.global_to_local(1, mine)
            assert local.dtype == np.int64
            assert np.array_equal(local, np.arange(mine.size))

        in_fresh_thread(check)
        unsorted = mine.copy()
        unsorted[[0, 1]] = unsorted[[1, 0]]
        dist._part_nodes[1] = unsorted
        with pytest.raises(ValueError, match="node not resident on PE 1"):
            dist.global_to_local(1, mine[:3])

    @pytest.mark.parametrize(
        "label", ["past-the-end", "negative", "not-resident", "unsorted"]
    )
    def test_executor_refuses(self, problems, monkeypatch, csr_kernel, label):
        """A layout whose PE 1 lists bad ``local_nodes``: the executor's
        assembly refuses it on either route."""
        mesh, materials = problems["demo"]
        partition = partition_mesh(mesh, 4, seed=0)
        layout_class = executor_module.SuperstepLayout
        cases = self.bad_local_nodes

        class Bent(layout_class):
            def __init__(self, schedule):
                super().__init__(schedule)
                self.local_nodes = list(self.local_nodes)
                self.local_nodes[1] = cases(mesh, self.local_nodes[1])[label]

        monkeypatch.setattr(executor_module, "SuperstepLayout", Bent)
        with pytest.raises(
            ValueError, match="element touches a node not in local_nodes"
        ):
            DistributedSMVP(mesh, partition, materials, kernel=csr_kernel)


class TestElementGrouping:
    @pytest.mark.parametrize("p", [1, 5, 64])
    def test_groups_are_the_ascending_scans(self, problems, p):
        mesh, _ = problems["sf10e"]
        partition = partition_mesh(mesh, p, method="geometric", seed=1)
        groups = DataDistribution(mesh, partition).elements_by_part()
        assert len(groups) == p
        for part, got in enumerate(groups):
            want = np.flatnonzero(partition.parts == part)
            assert got.dtype == want.dtype and np.array_equal(got, want)
