"""Element geometry in closed form, against its numpy specification.

The shape-function gradients and volumes (``shape_gradients``,
``element_lumped_mass``) and the shortest-edge time behind
``stable_timestep`` are one compiled pass each in ``fem/assembly.c``;
``element._numpy_geometry`` and ``element._numpy_edge_time`` spell out
the same operations in numpy, and the tests call them directly:

* compiled == numpy, bit for bit, over random, shuffled and repeated
  element ids, both orientations, magnitudes 1e-100 … 1e100 and either
  side of the 1e-30 determinant floor (refusals included);
* the closed form against LAPACK's ``inv`` / ``det`` on sf10e;
* sf10e's ``dt`` pinned bit for bit;
* no ``np.linalg`` call anywhere on the set-up path;
* NaN and ±inf coordinates refused by name, not passed on as NaN.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import assembly, element
from repro.fem.assembly import (
    assemble_lumped_mass,
    assemble_stiffness,
    assemble_subdomain_stiffness,
)
from repro.fem.element import element_lumped_mass, shape_gradients
from repro.fem.material import ElementMaterials, materials_from_model
from repro.fem.timestepper import stable_timestep
from repro.mesh.core import TetMesh
from repro.partition.base import partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.util.native import native


def numpy_gradients(mesh, element_ids=None, want_grads=True):
    """``shape_gradients`` by its numpy spelling, refusals included."""
    ids = element._element_ids(mesh, element_ids)
    grads, volumes, bad = element._numpy_geometry(mesh, ids, want_grads)
    if bad >= 0:
        raise element._reject(mesh, bad if ids is None else int(ids[bad]))
    return grads, volumes


def numpy_timestep(mesh, materials, safety=0.5):
    """``stable_timestep`` by the numpy spelling of the edge time."""
    speed = np.ascontiguousarray(materials.vp(), dtype=np.float64)
    best, bad = element._numpy_edge_time(mesh, speed)
    if bad >= 0:
        raise element._reject(mesh, bad)
    return float(safety * best)


#: ``shape_gradients`` compiled, then its numpy spelling.
GRADIENTS = (shape_gradients, numpy_gradients)


def outcome(run):
    """``run()``'s arrays as raw bits, or its ``ValueError`` message."""
    try:
        result = run()
    except ValueError as err:
        return str(err)
    if isinstance(result, float):
        return result.hex()
    return [np.asarray(a).view(np.uint64).tobytes() for a in result]




@st.composite
def random_meshes(draw):
    """A small random mesh at one scale, some elements reflected, and
    element ids drawn with repeats in a shuffled order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-100, 1e-11, 1e-10, 1e-9, 1.0, 1e100]))
    n, m = draw(st.integers(4, 12)), draw(st.integers(1, 20))
    points = scale * rng.standard_normal((n, 3))
    tets = np.array([rng.choice(n, 4, replace=False) for _ in range(m)])
    flip = rng.random(m) < 0.5
    tets[flip, 2:] = tets[flip, 3:1:-1]
    ids = rng.choice(m, size=draw(st.integers(0, 2 * m)), replace=True)
    return TetMesh(points, tets), ids


class TestBothPathsAgree:
    @settings(max_examples=120, deadline=None)
    @given(random_meshes())
    def test_gradients_and_volumes(self, case):
        mesh, ids = case
        materials = ElementMaterials.homogeneous(mesh.num_elements)
        for subset in (None, ids, ids[::-1]):
            assert outcome(lambda: shape_gradients(mesh, subset)) == outcome(
                lambda: numpy_gradients(mesh, subset)
            )
            # The volumes alone (the lumped mass's pass).
            assert outcome(
                lambda: element._geometry(mesh, subset, False)[1:]
            ) == outcome(lambda: numpy_gradients(mesh, subset, False)[1:])
        assert outcome(lambda: numpy_timestep(mesh, materials)) == outcome(
            lambda: stable_timestep(mesh, materials)
        )

    def test_determinant_floor(self):
        """|det| = 1e-30 is an element; the next float below is not."""
        for e1x, refused in ((1e-30, False), (np.nextafter(1e-30, 0), True)):
            points = np.vstack([np.zeros(3), np.eye(3)])
            points[1, 0] = e1x
            mesh = TetMesh(points, [[0, 1, 2, 3]])
            for gradients in GRADIENTS:
                if refused:
                    with pytest.raises(ValueError, match="degenerate"):
                        gradients(mesh)
                else:
                    _, volumes = gradients(mesh)
                    assert volumes[0] == 1e-30 / 6

    def test_orientation(self, single_tet_mesh):
        """Swapping two corners flips ``det``'s sign and swaps their
        gradients exactly; the volume does not move."""
        flipped = TetMesh(single_tet_mesh.points, [[0, 1, 3, 2]])
        for gradients in GRADIENTS:
            grads, vols = gradients(single_tet_mesh)
            grads_f, vols_f = gradients(flipped)
            assert np.array_equal(grads_f[0, 1:], grads[0, [1, 3, 2]])
            assert np.allclose(grads_f[0, 0], grads[0, 0], rtol=1e-15)
            assert np.array_equal(vols_f, vols)

    def test_element_ids_checked(self, single_tet_mesh):
        for gradients in GRADIENTS:
            with pytest.raises(IndexError, match="outside the mesh"):
                gradients(single_tet_mesh, [1])

    def test_compiled_pass_runs_by_default(self, demo_mesh, demo_materials):
        """The numpy spelling is never reached."""
        with mock.patch.object(
            element, "_numpy_geometry", side_effect=AssertionError
        ), mock.patch.object(
            element, "_numpy_edge_time", side_effect=AssertionError
        ):
            shape_gradients(demo_mesh)
            element_lumped_mass(demo_mesh, demo_materials)
            stable_timestep(demo_mesh, demo_materials)

    def test_geometry_entries_present(self):
        _, lib = native()
        assert hasattr(lib, "element_geometry")
        assert hasattr(lib, "element_edge_time")


class TestAgainstLapack:
    def test_sf10e(self, sf10e_mesh):
        """Within 1e-13 of ``inv`` / ``det``, relative per element."""
        p = sf10e_mesh.points[sf10e_mesh.tets]
        edge = p[:, 1:4] - p[:, 0:1]
        det = np.linalg.det(edge)
        expect = np.empty((len(edge), 4, 3))
        expect[:, 1:4] = np.transpose(np.linalg.inv(edge), (0, 2, 1))
        expect[:, 0] = -expect[:, 1:4].sum(axis=1)
        scale = np.abs(expect).max(axis=(1, 2))
        for gradients in GRADIENTS:
            grads, volumes = gradients(sf10e_mesh)
            err = np.abs(grads - expect).max(axis=(1, 2))
            assert np.all(err <= 1e-13 * scale)
            vol = np.abs(det) / 6.0
            assert np.all(np.abs(volumes - vol) <= 1e-13 * vol)


class TestTimestepPinned:
    #: sf10e's ``dt`` under the basin model, unchanged since the edge
    #: lengths were numpy's ``linalg.norm``.
    DT_HEX = "0x1.2927d650b8a23p-5"

    def test_sf10e(self, sf10e_mesh, basin_model):
        materials = materials_from_model(sf10e_mesh, basin_model)
        for timestep in (stable_timestep, numpy_timestep):
            assert timestep(sf10e_mesh, materials).hex() == self.DT_HEX


class TestNoLapack:
    """Set-up runs with ``np.linalg.inv`` / ``det`` unusable."""

    def test_setup_path(self, demo_mesh, demo_materials):
        partition = partition_mesh(demo_mesh, 4, seed=0)
        dist = DataDistribution(demo_mesh, partition)
        refuse = mock.Mock(side_effect=AssertionError("LAPACK called"))
        with mock.patch.object(np.linalg, "inv", refuse), mock.patch.object(
            np.linalg, "det", refuse
        ):
            assemble_stiffness(demo_mesh, demo_materials)
            assemble_subdomain_stiffness(
                demo_mesh,
                demo_materials,
                dist.local_elements(1),
                dist.local_nodes(1),
            )
            assemble_lumped_mass(demo_mesh, demo_materials)
            stable_timestep(demo_mesh, demo_materials)
            # The numpy specifications of the same passes.
            numpy_gradients(demo_mesh)
            numpy_timestep(demo_mesh, demo_materials)
            assembly._numpy_assembly(
                demo_mesh, demo_materials, None, demo_mesh.tets,
                demo_mesh.num_nodes,
            )
        refuse.assert_not_called()


class TestNonFiniteCoordinates:
    """A NaN or infinite coordinate is refused, naming the element —
    NaN compares false, so ``|det| < 1e-30`` alone let it through."""

    @staticmethod
    def two_tets(bad):
        points = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], float
        )
        points[4, 1] = bad
        mesh = TetMesh(points, [[0, 1, 2, 3], [1, 2, 3, 4]])
        return mesh, ElementMaterials.homogeneous(2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_by_name(self, bad):
        mesh, materials = self.two_tets(bad)
        for run in (
            lambda: shape_gradients(mesh),
            lambda: shape_gradients(mesh, [0, 1]),
            lambda: element_lumped_mass(mesh, materials),
            lambda: stable_timestep(mesh, materials),
            lambda: assemble_stiffness(mesh, materials),
            lambda: assemble_lumped_mass(mesh, materials),
            lambda: numpy_gradients(mesh),
            lambda: numpy_gradients(mesh, [0, 1]),
            lambda: numpy_gradients(mesh, None, False),
            lambda: numpy_timestep(mesh, materials),
        ):
            with pytest.raises(
                ValueError, match="element 1: non-finite coordinate"
            ):
                run()
        # The sound element alone is fine.
        for gradients in GRADIENTS:
            grads, _ = gradients(mesh, [0])
            assert np.all(np.isfinite(grads))
