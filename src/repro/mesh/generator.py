"""End-to-end mesh generation pipeline.

``generate_mesh`` is the reproduction's stand-in for the Archimedes tool
chain's meshing stage: ground model in, unstructured tetrahedral mesh
out, with resolution graded by the local seismic wavelength for a given
wave period (the "10" in sf10 etc.).

The mesh is a conforming template tetrahedralization of the balanced
octree (:mod:`repro.mesh.stuffing`), followed by a volume-preserving
node jitter.  It runs in linear time, which is what makes the sf2e/sf1e
scales (0.4M / 2.5M nodes) practical.

Calibration
-----------
A physically accurate simulation needs ~8-10 nodes per shear
wavelength; meshing our synthetic basin at that density would vastly
overshoot the paper's node counts (the real San Fernando model has far
less soft sediment than a worst-case synthetic bowl).  Each named
instance therefore carries an *effective* ``points_per_wavelength``
(between ~1.1 and ~2.9) calibrated so node counts land on the paper's
Figure 2 — i.e., the meshes are uniformly coarser than physical, with
identical grading *structure*.  Architectural statistics (node degree,
surface-to-volume of partitions, the O(n^{2/3}) communication scaling)
depend only on that structure; see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.mesh.core import TetMesh
from repro.mesh.stuffing import jitter_mesh, stuff_octree
from repro.octree import LinearOctree
from repro.telemetry.registry import get_registry
from repro.util.clock import now
from repro.velocity.basin import BasinModel
from repro.velocity.sizing import SizingField, WavelengthSizingField


@dataclass(frozen=True)
class MeshBuildReport:
    """Provenance and cost record for one generated mesh."""

    period: float
    points_per_wavelength: float
    size_factor: float
    octree_leaves: int
    octree_max_level: int
    num_nodes: int
    num_elements: int
    num_edges: int
    seconds_octree: float
    seconds_mesh: float

    @property
    def seconds_total(self) -> float:
        return self.seconds_octree + self.seconds_mesh


def generate_mesh(
    model: BasinModel,
    period: float,
    points_per_wavelength: float = 1.35,
    size_factor: float = 1.0,
    dither: bool = True,
    base_shape: Tuple[int, int, int] = (5, 5, 1),
    max_level: int = 12,
    jitter: float = 0.15,
    seed: int = 0,
    sizing: Optional[SizingField] = None,
) -> Tuple[TetMesh, MeshBuildReport]:
    """Generate a wavelength-graded unstructured tet mesh of ``model``.

    Parameters
    ----------
    model:
        The ground (velocity) model to mesh.
    period:
        Shortest resolved wave period in seconds; halving it roughly
        multiplies the node count by eight (paper, Section 2.1).
    points_per_wavelength:
        Physical sizing target (nodes per shear wavelength).
    size_factor:
        Calibration: cells stop refining once their edge is within this
        factor of the physical target size.  The named instances carry
        per-instance values matched to the paper's node counts.
    dither:
        Smooth the power-of-two size quantization with deterministic
        probabilistic refinement (recommended; see
        :meth:`repro.octree.LinearOctree.refine`).
    base_shape:
        Root grid of cubic octree cells tiling the domain.
    max_level:
        Hard cap on octree depth.
    jitter:
        Node perturbation amplitude as a fraction of local spacing; 0
        leaves nodes on the octree lattice.
    seed:
        Seed for all deterministic randomness (dither and jitter).
    sizing:
        Override the sizing field entirely (``period`` and
        ``points_per_wavelength`` are then only recorded, not used).

    Returns
    -------
    (TetMesh, MeshBuildReport)
    """
    if sizing is None:
        sizing = WavelengthSizingField(
            model, period=period, points_per_wavelength=points_per_wavelength
        )
    t0 = now()
    tree = LinearOctree.build(
        model.domain,
        sizing,
        base_shape=base_shape,
        max_level=max_level,
        size_factor=size_factor,
        dither=dither,
        dither_seed=seed,
    )
    t1 = now()
    mesh, spacing = stuff_octree(tree)
    if jitter:
        mesh = jitter_mesh(mesh, spacing, amplitude=jitter, seed=seed)
    t2 = now()
    report = MeshBuildReport(
        period=float(period),
        points_per_wavelength=float(points_per_wavelength),
        size_factor=float(size_factor),
        octree_leaves=tree.leaf_count,
        octree_max_level=tree.max_level,
        num_nodes=mesh.num_nodes,
        num_elements=mesh.num_elements,
        num_edges=mesh.num_edges,
        seconds_octree=t1 - t0,
        seconds_mesh=t2 - t1,
    )
    reg = get_registry()
    if reg is not None:
        reg.counter("repro_mesh_builds_total", "meshes generated").inc()
        reg.gauge("repro_mesh_nodes", "last mesh node count").set(
            mesh.num_nodes
        )
        reg.gauge("repro_mesh_elements", "last mesh element count").set(
            mesh.num_elements
        )
        # Re-exports the pipeline's own clock reads; none happen here.
        reg.add_span("mesh.octree", t0, t1, track="mesh")
        reg.add_span("mesh.stuffing", t1, t2, track="mesh")
    return mesh, report
