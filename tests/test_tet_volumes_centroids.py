"""Signed volumes and centroids without a corner gather, against their
numpy specification.

``tet_signed_volumes`` (the mesher's orientation and jitter decisions,
``TetMesh.validate`` / ``volumes()``, the quality report) and
``tet_centroids`` (``TetMesh.element_centroids``: material sampling and
the partitioners) are one compiled pass each in ``fem/assembly.c``
(``element_signed_volumes``, ``element_centroids``), each corner read
through the element's node ids.  numpy spells out the same order, one
(m, 3) corner column at a time (``tetra._numpy_signed_volumes`` /
``_numpy_centroids``; the tests call them directly):

* compiled == numpy == the old definitions (an (m, 4, 3) gather, then
  numpy's ``einsum`` / ``mean``; kept here as the oracle) over
  Hypothesis meshes: shuffled and repeated ids, reflected tets, -0.0,
  NaN and ±inf coordinates.  Bits are compared except for a NaN's sign,
  which x86 takes from whichever operand comes first;
* a corner outside the node numbering, negative ids included (the
  gather wrapped them), refused by element with one message;
* the mesher's ``points`` / ``tets`` bytes pinned by CRC-32 on demo,
  sf10e and sf5e (sf2e under ``REPRO_LARGE=1``), with the numpy
  spellings equal to the passes on each mesh, and sf1e's counts and
  bits under ``REPRO_HUGE=1``;
* no corner gather anywhere from the mesh build to the executor;
* ``materials_from_model`` (one pass over the basin) equal to the old
  composition of ``lame_parameters`` and ``rho`` (four sediment masks,
  two densities).
"""

import os
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import element
from repro.fem.material import materials_from_model
from repro.geometry import tet_centroids, tet_signed_volumes, tet_volumes
from repro.geometry import tetra
from repro.mesh.core import TetMesh
from repro.mesh.instances import get_instance
from repro.partition.base import partition_mesh
from repro.pipeline import Problem
from repro.util.native import native
from repro.velocity.basin import BasinModel


def numpy_spelling(numpy_pass):
    """The public function of ``numpy_pass``, refusals included."""

    def run(points, tets):
        out, bad = numpy_pass(*tetra._operands(points, tets))
        if bad >= 0:
            raise ValueError(f"element {bad}: corner outside the node numbering")
        return out

    return run


#: Each measure compiled, then its numpy spelling.
VOLUMES = (tet_signed_volumes, numpy_spelling(tetra._numpy_signed_volumes))
CENTROIDS = (tet_centroids, numpy_spelling(tetra._numpy_centroids))


# -- the old definitions, verbatim: the oracle -----------------------------


def old_signed_volumes(points, tets):
    p = np.asarray(points, dtype=float)[np.asarray(tets, dtype=np.int64)]
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    c = p[:, 3] - p[:, 0]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


def old_centroids(points, tets):
    p = np.asarray(points, dtype=float)[np.asarray(tets, dtype=np.int64)]
    return p.mean(axis=1)


# -- comparing ------------------------------------------------------------


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bits, a NaN's sign and payload aside."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return a[~nan].tobytes() == b[~nan].tobytes()


def outcome(run):
    """``run()``'s array, or its ``ValueError`` message."""
    try:
        return run()
    except ValueError as err:
        return str(err)


def agree(x, y) -> bool:
    if isinstance(x, str) or isinstance(y, str):
        return x == y
    return same_bits(x, y)


# -- cases ------------------------------------------------------------------


@st.composite
def corner_cases(draw):
    """``(points, tets)``: a small mesh at one scale with some corners
    -0.0, NaN or ±inf, ids shuffled by a random relabelling, repeated
    across elements (and sometimes within one), some tets reflected, and
    sometimes one id outside the node numbering."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-100, 1e-3, 1.0, 1e5, 1e100]))
    n = draw(st.integers(4, 12))
    m = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    points = scale * rng.standard_normal((n, 3))
    for value, rate in ((-0.0, 0.2), (np.nan, 0.03), (np.inf, 0.03)):
        if draw(st.booleans()):
            points[rng.random((n, 3)) < rate] = value
            points[rng.random((n, 3)) < rate] *= -1.0
    if draw(st.booleans()):
        tets = np.array(
            [rng.choice(n, 4, replace=False) for _ in range(m)], np.int64
        ).reshape(m, 4)
    else:
        tets = rng.integers(0, n, size=(m, 4))
    flip = rng.random(m) < 0.5
    tets[flip, 2:] = tets[flip, 3:1:-1]
    tets = rng.permutation(n)[tets]
    if m and draw(st.booleans()):
        bad = draw(st.sampled_from([-1, -n, n, n + 7, 2**40, -(2**40)]))
        tets[rng.integers(m), rng.integers(4)] = bad
    return points, tets


class TestBothPathsAgree:
    @settings(max_examples=200, deadline=None)
    @given(corner_cases())
    def test_volumes_and_centroids(self, case):
        points, tets = case
        inside = bool(np.all((tets >= 0) & (tets < len(points))))
        for spellings, old in (
            (VOLUMES, old_signed_volumes),
            (CENTROIDS, old_centroids),
        ):
            results = [outcome(lambda: fn(points, tets)) for fn in spellings]
            assert all(agree(r, results[0]) for r in results[1:])
            if inside:
                with np.errstate(invalid="ignore", over="ignore"):
                    expect = old(points, tets)
                assert agree(results[0], expect)
            else:
                bad = int(
                    np.flatnonzero(
                        ((tets < 0) | (tets >= len(points))).any(axis=1)
                    )[0]
                )
                message = f"element {bad}: corner outside the node numbering"
                assert results[0] == message

    def test_negative_zero_sums_to_positive_zero(self):
        """numpy's accumulators start at +0.0, and so do both passes."""
        points = np.full((4, 3), -0.0)
        tets = np.array([[0, 1, 2, 3]])
        for volumes, centroids in zip(VOLUMES, CENTROIDS):
            volume = volumes(points, tets)
            centroid = centroids(points, tets)
            assert not np.signbit(volume).any()
            assert not np.signbit(centroid).any()
            assert same_bits(volume, old_signed_volumes(points, tets))
            assert same_bits(centroid, old_centroids(points, tets))

    def test_reflection_flips_the_sign(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((30, 3))
        tets = np.array([rng.choice(30, 4, replace=False) for _ in range(50)])
        for volumes in VOLUMES:
            volume = volumes(points, tets)
            reflected = volumes(points, tets[:, [0, 1, 3, 2]])
            assert np.allclose(reflected, -volume, rtol=1e-12, atol=0)

    def test_empty(self):
        points, tets = np.zeros((0, 3)), np.zeros((0, 4), np.int64)
        for volumes, centroids in zip(VOLUMES, CENTROIDS):
            assert volumes(points, tets).shape == (0,)
            assert centroids(points, tets).shape == (0, 3)

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="tets must have shape"):
            tet_signed_volumes(np.zeros((4, 3)), np.array([[0, 1, 2]]))
        with pytest.raises(ValueError, match="points must have shape"):
            tet_centroids(np.zeros((4, 2)), np.array([[0, 1, 2, 3]]))


class TestCornersOutsideTheNumbering:
    @pytest.mark.parametrize(
        "tets, first",
        [
            ([[0, 1, 2, -1], [1, 2, 3, 4]], 0),
            ([[0, 1, 2, 3], [1, 2, 3, 5]], 1),
            ([[0, 1, 2, 3], [1, 2, 3, -5]], 1),
            ([[0, 1, 2, 3], [1, 2, 3, 2**40], [9, 1, 2, 3]], 1),
        ],
    )
    def test_refused_by_element(self, tets, first):
        """A negative id no longer wraps round to a node at the end."""
        points = np.zeros((5, 3))
        message = f"element {first}: corner outside the node numbering"
        mesh = TetMesh(points, tets)
        for read in (
            *(lambda fn=fn: fn(points, tets) for fn in VOLUMES + CENTROIDS),
            lambda: tet_volumes(points, tets),
            mesh.volumes,
            lambda: mesh.element_centroids,
        ):
            with pytest.raises(ValueError, match=message):
                read()


class TestCompiledPass:
    def test_entries_present(self):
        _, lib = native()
        assert hasattr(lib, "element_signed_volumes")
        assert hasattr(lib, "element_centroids")

    def test_numpy_spelling_not_reached(self, demo_mesh):
        with mock.patch.object(
            tetra, "_numpy_signed_volumes", side_effect=AssertionError
        ), mock.patch.object(
            tetra, "_numpy_centroids", side_effect=AssertionError
        ):
            tet_signed_volumes(demo_mesh.points, demo_mesh.tets)
            tet_centroids(demo_mesh.points, demo_mesh.tets)


# -- the mesher's bits ------------------------------------------------------

#: CRC-32 of each instance's ``points`` and ``tets`` bytes, unchanged
#: since the volumes came from ``einsum`` over a corner gather.
MESH_CRCS = {
    "demo": (0x1EF0340D, 0x337D8CEE),
    "sf10e": (0xB7C94056, 0x1FF7E3E7),
    "sf5e": (0xB767FB36, 0x2002F9EE),
    "sf2e": (0x8E49DF7D, 0x402646BA),
}


def mesh_crcs(name: str):
    """The CRCs of ``name``'s freshly built mesh, whose volumes and
    centroids the numpy spellings give bit for bit."""
    mesh, _ = get_instance(name).build(use_cache=False)
    for spellings in (VOLUMES, CENTROIDS):
        compiled, by_numpy = (fn(mesh.points, mesh.tets) for fn in spellings)
        assert same_bits(compiled, by_numpy)
    return zlib.crc32(mesh.points.tobytes()), zlib.crc32(mesh.tets.tobytes())


class TestMeshBitsPinned:
    @pytest.mark.parametrize("name", ["demo", "sf10e", "sf5e"])
    def test_instance(self, name):
        assert mesh_crcs(name) == MESH_CRCS[name]

    @pytest.mark.large
    @pytest.mark.skipif(
        os.environ.get("REPRO_LARGE") != "1", reason="needs REPRO_LARGE=1"
    )
    def test_sf2e(self):
        assert mesh_crcs("sf2e") == MESH_CRCS["sf2e"]


#: sf1e's nodes, elements and edges, and the CRC-32 of its ``points``
#: and ``tets`` bytes.
SF1E_PINS = (2_597_529, 14_969_338, 17_885_565, (0xD9755A09, 0xA020AF86))


@pytest.mark.huge
@pytest.mark.skipif(
    os.environ.get("REPRO_HUGE") != "1", reason="needs REPRO_HUGE=1"
)
def test_sf1e_counts_and_bits_pinned():
    mesh, report = get_instance("sf1e").build(use_cache=False)
    crcs = zlib.crc32(mesh.points.tobytes()), zlib.crc32(mesh.tets.tobytes())
    got = (mesh.num_nodes, mesh.num_elements, report.num_edges, crcs)
    assert got == SF1E_PINS


# -- no corner gather on the set-up path ------------------------------------


class NoCornerGather(np.ndarray):
    """Node coordinates that refuse to be indexed by a 2-D id array (a
    ``points[tets]`` gather)."""

    def __getitem__(self, key):
        keys = key if isinstance(key, tuple) else (key,)
        for k in keys:
            ids = isinstance(k, np.ndarray) and k.dtype.kind in "iu"
            if ids and k.ndim >= 2:
                raise AssertionError(f"corner gather of shape {k.shape}")
        return super().__getitem__(key)


def refuse_take(take):
    def guarded(a, indices, *args, **kwargs):
        if np.ndim(indices) >= 2:
            raise AssertionError("corner gather through np.take")
        return take(a, indices, *args, **kwargs)

    return guarded


class TestNoCornerGather:
    def test_guard_catches_a_gather(self, demo_mesh):
        points = demo_mesh.points.view(NoCornerGather)
        with pytest.raises(AssertionError, match="corner gather"):
            points[demo_mesh.tets]
        assert points[demo_mesh.tets[:, 0]].shape == (demo_mesh.num_elements, 3)

    def test_build_to_executor(self):
        """sf10e built, its materials sampled, partitioned (the
        pipeline's and the characterization's methods) and distributed
        with every (m, 4, 3) gather refused."""
        init = TetMesh.__init__

        def guarded_init(self, points, tets, copy=True):
            init(self, points, tets, copy=copy)
            self.points = self.points.view(NoCornerGather)

        refuse = AssertionError("corner gather")
        with mock.patch.object(
            TetMesh, "__init__", guarded_init
        ), mock.patch.object(
            tetra, "_corner_coords", side_effect=refuse
        ), mock.patch.object(
            element, "_corners", side_effect=refuse
        ), mock.patch.object(
            np, "take", refuse_take(np.take)
        ):
            mesh, _ = get_instance("sf10e").build(use_cache=False)
            assert isinstance(mesh.points, NoCornerGather)
            problem = Problem(get_instance("sf10e"), mesh)
            problem.materials
            problem.dt
            problem.mass
            partition_mesh(mesh, 16, method="geometric", seed=0)
            with problem.executor(8) as smvp:
                assert smvp.num_parts == 8
        expect = materials_from_model(
            TetMesh(mesh.points, mesh.tets), problem.model
        )
        assert np.array_equal(problem.materials.lam, expect.lam)


# -- materials: one pass over the basin -------------------------------------


def old_property(model, name, points):
    """``BasinModel.vs`` / ``vp`` / ``rho`` as they were: the depth and
    the sediment mask found again for each property."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    depth = np.maximum(-pts[:, 2], 0.0)
    sed = model.in_sediment(pts)
    out = np.empty(pts.shape[0], dtype=float)
    if np.any(sed):
        out[sed] = getattr(model.sediment, name)(depth[sed])
    if np.any(~sed):
        out[~sed] = getattr(model.rock, name)(depth[~sed])
    return out


class TestMaterialsSampleTheBasinOnce:
    def test_equal_to_the_old_composition(self, sf10e_mesh, basin_model):
        """The old ``lame_parameters`` (``vs``, ``vp``, ``rho``) then
        ``rho`` again, each finding the mask and depths anew."""
        centroids = sf10e_mesh.element_centroids
        sed = basin_model.in_sediment(centroids)
        assert np.any(sed) and not np.all(sed)
        vs, vp, rho = (
            old_property(basin_model, name, centroids)
            for name in ("vs", "vp", "rho")
        )
        mu = rho * vs**2
        lam = rho * (vp**2 - 2.0 * vs**2)
        with mock.patch.object(
            BasinModel,
            "in_sediment",
            autospec=True,
            side_effect=BasinModel.in_sediment,
        ) as spy:
            materials = materials_from_model(sf10e_mesh, basin_model)
        assert spy.call_count == 1
        assert np.array_equal(materials.lam, lam)
        assert np.array_equal(materials.mu, mu)
        assert np.array_equal(materials.rho, rho)
        for name, expect in (("vs", vs), ("vp", vp), ("rho", rho)):
            assert np.array_equal(getattr(basin_model, name)(centroids), expect)
