"""One way to build a run.

The paper's applications are a *family*: one pipeline — instance →
mesh → materials → assemble → partition → distribute → SMVP supersteps
— that differs only by instance and PE count, and the Spark98 kernels
are cuts through that same pipeline.  :class:`Problem` owns the build
order and hands out the rest of a run, so every command, table and
harness states *what* it runs (instance, p, kernel, backend, faults)
and none of them spells out *how* it is assembled::

    problem = Problem.from_instance("sf10e")
    with problem.executor(8, backend="threaded") as smvp:
        problem.stepper(smvp).run(100, force_at=problem.point_source())

Everything expensive is computed on first use and kept: a run that
only needs the partition (the BSP-simulator drift check) never samples
materials, and one that only multiplies never assembles the global
stiffness.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.faults import FaultConfig, FaultInjector
from repro.fem import (
    ElementMaterials,
    ExplicitTimeStepper,
    PointSource,
    RickerWavelet,
    assemble_lumped_mass,
    assemble_stiffness,
    materials_from_model,
    stable_timestep,
)
from repro.mesh.core import TetMesh
from repro.mesh.instances import QuakeInstance, get_instance
from repro.partition.base import Partition, partition_mesh
from repro.smvp.executor import DistributedSMVP
from repro.velocity.basin import BasinModel


def link_fault_injector(
    fault_rate: float, seed: int = 0, **extra_faults
) -> Optional[FaultInjector]:
    """The uniform link-fault mix behind every ``--fault-rate`` flag.

    Each directed block is dropped, bit-flipped in flight, or
    duplicated at ``fault_rate``.  ``extra_faults`` are further
    :class:`~repro.faults.FaultConfig` fields riding on the same seed
    (the chaos harness's SDC flip rates and sticky PEs).  Returns
    ``None`` when nothing could be injected, which keeps the executor's
    exchange free of fault middleware, bit for bit the fault-free path.
    """
    config = FaultConfig(
        seed=seed,
        drop_rate=fault_rate,
        bitflip_rate=fault_rate,
        duplicate_rate=fault_rate,
        **extra_faults,
    )
    return FaultInjector(config) if config.enabled else None


class Problem:
    """A named instance and everything a run builds from it.

    ``mesh`` is built eagerly (every run needs it); ``materials``, the
    global ``stiffness``, the lumped ``mass`` and the stable ``dt`` are
    computed on first use and cached on the object.
    """

    def __init__(self, instance: QuakeInstance, mesh: TetMesh) -> None:
        self.instance = instance
        self.mesh = mesh

    @classmethod
    def from_instance(cls, name: str) -> "Problem":
        """Build (or fetch from the mesh cache) the named instance.

        Raises ``KeyError`` for an unknown name and ``RuntimeError``
        for a gated instance whose environment variable is unset.
        """
        instance = get_instance(name)
        mesh, _ = instance.build()
        return cls(instance, mesh)

    @property
    def num_dofs(self) -> int:
        """Length of a global displacement / force vector (3 per node)."""
        return 3 * self.mesh.num_nodes

    @cached_property
    def model(self) -> BasinModel:
        return self.instance.model()

    @cached_property
    def materials(self) -> ElementMaterials:
        return materials_from_model(self.mesh, self.model)

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        return assemble_stiffness(self.mesh, self.materials)

    @cached_property
    def mass(self) -> np.ndarray:
        return assemble_lumped_mass(self.mesh, self.materials)

    @cached_property
    def dt(self) -> float:
        return stable_timestep(self.mesh, self.materials)

    # -- the rest of a run -------------------------------------------------

    def partition(self, pes: int, seed: int = 0) -> Partition:
        """The mesh's geometric partition into ``pes`` subdomains."""
        return partition_mesh(self.mesh, pes, seed=seed)

    def executor(
        self,
        pes: Union[int, Partition],
        backend: str = "serial",
        fault_rate: float = 0.0,
        seed: int = 0,
        **executor_options,
    ) -> DistributedSMVP:
        """The distributed SMVP on ``pes`` PEs.

        ``pes`` is a PE count (partitioned geometrically) or a
        ready :class:`~repro.partition.base.Partition` (a resumed or
        non-default layout).  ``fault_rate`` > 0 routes the exchange
        through :func:`link_fault_injector` seeded with ``seed``; pass
        ``injector=`` instead to share one injector between executors.
        Remaining keywords (``abft``, ``profile``,
        ``trace_sink``, ``pe_ids``) go to :class:`DistributedSMVP`
        unchanged.  The caller closes the executor.
        """
        partition = pes if isinstance(pes, Partition) else self.partition(pes)
        if "injector" not in executor_options:
            executor_options["injector"] = link_fault_injector(fault_rate, seed)
        return DistributedSMVP(
            self.mesh,
            partition,
            self.materials,
            backend=backend,
            **executor_options,
        )

    def stepper(
        self,
        smvp: Optional[DistributedSMVP] = None,
        rhs: int = 1,
        damping_alpha: float = 0.0,
    ) -> ExplicitTimeStepper:
        """The explicit time integrator over ``smvp`` (``None`` = the
        sequential global product) with ``rhs`` lock-step scenarios.
        Over an ``smvp`` the global stiffness is never assembled: the
        executor holds every PE's share of it."""
        return ExplicitTimeStepper(
            self.stiffness if smvp is None else None,
            self.mass,
            self.dt,
            damping_alpha=damping_alpha,
            smvp=smvp,
            rhs=rhs,
        )

    def constant_force(self) -> Callable[[float], np.ndarray]:
        """``repro-chaos``'s ``force_at`` load: a constant 1e9 N on the
        first 300 dofs.  ``repro-trace`` runs :meth:`point_source`."""
        force = np.zeros(self.num_dofs)
        force[: min(300, force.size)] = 1e9
        return lambda t: force

    def point_source(self) -> Callable[[float], np.ndarray]:
        """The earthquake as a ``force_at`` load: a Ricker-wavelet point
        source at the instance's period, 4 km under the basin centre."""
        source = PointSource.at_point(
            self.mesh,
            (self.model.center_x, self.model.center_y, -4000.0),
            RickerWavelet(
                frequency=1.0 / self.instance.period, amplitude=1e12
            ),
        )
        num_nodes = self.mesh.num_nodes  # the load must not pin the Problem
        return lambda t: source.force(t, num_nodes)
