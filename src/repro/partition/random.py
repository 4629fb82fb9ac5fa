"""Balanced random partitioner: the no-locality baseline.

The partitioner ablation (``benchmarks/test_ablation_partitioners.py``)
sets the paper's geometric bisection beside it to show how much
locality the sphere cuts buy.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.core import TetMesh
from repro.partition.base import Partition, Partitioner


class RandomPartition(Partitioner):
    """Balanced random scatter — the worst-case baseline.

    Elements are randomly permuted and dealt into equal blocks; there is
    no locality at all, so nearly every node is shared.  Useful to show
    how much the locality-aware partitioner actually buys.
    """

    name = "random"

    def partition(
        self, mesh: TetMesh, num_parts: int, seed: int = 0
    ) -> Partition:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(mesh.num_elements)
        parts = np.empty(mesh.num_elements, dtype=np.int32)
        # Deal permuted elements into num_parts near-equal blocks.
        bounds = np.linspace(0, mesh.num_elements, num_parts + 1).astype(int)
        for part in range(num_parts):
            parts[perm[bounds[part] : bounds[part + 1]]] = part
        return Partition(parts, num_parts, method=self.name)
