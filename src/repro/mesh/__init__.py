"""Unstructured tetrahedral meshes.

This subpackage provides the mesh data structure and the generation
pipeline that stands in for the paper's Archimedes/Pyramid mesher:

* :mod:`~repro.mesh.core` — :class:`TetMesh`, the central mesh type
  (node coordinates + tetrahedra), with cached topology.
* :mod:`~repro.mesh.topology` — edge extraction, adjacency graphs,
  surface faces, connectivity checks (all vectorized).
* :mod:`~repro.mesh.stuffing` — conforming template tetrahedralization
  of a balanced octree (octree stuffing) and the node jitter.
* :mod:`~repro.mesh.generator` — the full velocity-model -> sizing ->
  octree -> stuffing pipeline.
* :mod:`~repro.mesh.quality` — element quality statistics.
* :mod:`~repro.mesh.io` — binary (.npz) and portable text formats.
* :mod:`~repro.mesh.instances` — the named Quake-like problem instances
  (sf10e, sf5e, sf2e, sf1e) calibrated against the paper's Figure 2.
"""

from repro.mesh.core import TetMesh
from repro.mesh.generator import MeshBuildReport, generate_mesh
from repro.mesh.instances import (
    QuakeInstance,
    INSTANCES,
    get_instance,
    instance_names,
)
from repro.mesh.io import load_mesh, save_mesh, load_mesh_text, save_mesh_text
from repro.mesh.quality import QualityReport, quality_report
from repro.mesh.stuffing import jitter_mesh, stuff_octree

__all__ = [
    "TetMesh",
    "MeshBuildReport",
    "generate_mesh",
    "QuakeInstance",
    "INSTANCES",
    "get_instance",
    "instance_names",
    "load_mesh",
    "save_mesh",
    "load_mesh_text",
    "save_mesh_text",
    "QualityReport",
    "quality_report",
    "jitter_mesh",
    "stuff_octree",
]
