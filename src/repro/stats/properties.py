"""Per-(instance, PE count) SMVP properties — the paper's Figure 7.

Everything is derived from the mesh and partition alone (no machine
parameters):

* ``F`` — flops per PE per SMVP: 2 flops per stored nonzero of the
  largest local matrix, ``nnz = 9 (n_local + 2 e_local)``.
* ``C_max`` — maximum words sent+received by any PE (3 words per shared
  node per neighbor, both directions).
* ``B_max`` — maximum messages sent+received by any PE, blocks maximal
  (one message per neighbor per direction).
* ``M_avg`` — total volume over total messages.
* ``F / C_max`` — the computation/communication ratio.
* ``beta`` — the Section 3.4 error bound (Figure 6).
* ``bisection_words`` — words crossing the PE-number bisection
  (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mesh.core import TetMesh
from repro.partition.base import Partition, partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import CommSchedule
from repro.stats.beta import beta_bound


@dataclass(frozen=True)
class SmvpStats:
    """One row of the reproduction's Figure 7 (plus extras)."""

    num_parts: int
    partition_method: str
    F: int
    c_max: int
    b_max: int
    m_avg: float
    beta: float
    bisection_words: int
    total_words: int
    total_blocks: int
    f_per_pe: np.ndarray
    c_per_pe: np.ndarray
    b_per_pe: np.ndarray

    @property
    def f_over_c(self) -> float:
        """Computation/communication ratio F / C_max."""
        return self.F / self.c_max if self.c_max else float("inf")

    def __str__(self) -> str:
        return (
            f"p={self.num_parts}: F={self.F} C_max={self.c_max} "
            f"B_max={self.b_max} M_avg={self.m_avg:.0f} "
            f"F/C={self.f_over_c:.0f} beta={self.beta:.2f}"
        )


def smvp_statistics(
    mesh: TetMesh,
    partition: Optional[Partition] = None,
    num_parts: int = 0,
    seed: int = 0,
) -> SmvpStats:
    """Compute the Figure 7 quantities for one partitioned mesh.

    Pass either a ready ``partition`` or a ``num_parts`` (the mesh is
    then partitioned geometrically, the default of
    :func:`~repro.partition.base.partition_mesh`).
    """
    if partition is None:
        if num_parts < 1:
            raise ValueError("provide a partition or num_parts >= 1")
        partition = partition_mesh(mesh, num_parts, seed=seed)
    dist = DataDistribution(mesh, partition)
    sched = CommSchedule(dist)
    flops = dist.local_counts["flops"]
    return SmvpStats(
        num_parts=partition.num_parts,
        partition_method=partition.method,
        F=int(flops.max()),
        c_max=sched.c_max,
        b_max=sched.b_max,
        m_avg=sched.m_avg,
        beta=beta_bound(sched.words_per_pe, sched.blocks_per_pe),
        bisection_words=sched.bisection_words(),
        total_words=sched.total_words,
        total_blocks=sched.total_blocks,
        f_per_pe=flops,
        c_per_pe=sched.words_per_pe,
        b_per_pe=sched.blocks_per_pe,
    )
