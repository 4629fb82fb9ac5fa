"""Finite element machinery for the Quake-style simulations.

Linear (4-node) tetrahedral elements with isotropic linear elasticity,
exactly the discretization behind the paper's stiffness matrices: K is
``3n x 3n`` with a 3x3 block for every node pair connected by a mesh
edge (plus diagonal blocks), each node carrying x/y/z displacement
degrees of freedom.

* :mod:`~repro.fem.material` — isotropic elastic materials, sampled per
  element from a :class:`~repro.velocity.BasinModel`.
* :mod:`~repro.fem.element` — vectorized 12x12 element stiffness and
  lumped mass matrices.
* :mod:`~repro.fem.assembly` — sort-free node-block assembly into
  CSR (a compiled pass, or numpy with the same bits).
* :mod:`~repro.fem.source` — Ricker-wavelet point sources.
* :mod:`~repro.fem.timestepper` — the explicit central-difference
  integrator (the paper's "explicit time-stepping method" that makes
  the SMVP the only communicating operation).
* :mod:`~repro.fem.memory` — the runtime memory model behind the
  paper's "1.2 KByte per node" rule.
"""

from repro.fem.material import ElementMaterials, materials_from_model
from repro.fem.element import element_stiffness, element_lumped_mass
from repro.fem.assembly import (
    assemble_stiffness,
    assemble_lumped_mass,
    assemble_subdomain_stiffness,
)
from repro.fem.boundary import SpongeLayer
from repro.fem.source import RickerWavelet, PointSource
from repro.fem.timestepper import ExplicitTimeStepper, stable_timestep
from repro.fem.memory import MemoryModel, memory_model

__all__ = [
    "ElementMaterials",
    "materials_from_model",
    "element_stiffness",
    "element_lumped_mass",
    "assemble_stiffness",
    "assemble_lumped_mass",
    "assemble_subdomain_stiffness",
    "SpongeLayer",
    "RickerWavelet",
    "PointSource",
    "ExplicitTimeStepper",
    "stable_timestep",
    "MemoryModel",
    "memory_model",
]
