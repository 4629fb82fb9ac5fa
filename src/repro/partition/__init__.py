"""Mesh partitioners.

The paper's Archimedes tool chain partitions each mesh's *elements* into
``p`` disjoint subdomains (one per PE) using recursive geometric
bisection (Miller-Teng-Thurston-Vavasis), dividing elements equally
while minimizing the number of mesh nodes shared between subdomains.

This subpackage provides that algorithm and a no-locality baseline
behind one interface:

* :class:`~repro.partition.base.Partition` — the result type (an
  element-to-part assignment).
* :func:`~repro.partition.base.partition_mesh` — front door, dispatching
  on method name.
* Methods: ``geometric`` (MTTV-style sphere cuts, the default) and
  ``random`` (scattered baseline).

The geometric method numbers the parts so the first bisection separates
parts ``0..p/2-1`` from ``p/2..p-1`` — the split the paper's bisection-
bandwidth measure (Section 4.2) assumes.
"""

from repro.partition.base import (
    Partition,
    PartitionError,
    Partitioner,
    partition_mesh,
    PARTITIONERS,
    recursive_bisection,
)
from repro.partition.geometric import GeometricBisection
from repro.partition.metrics import PartitionMetrics, partition_metrics
from repro.partition.random import RandomPartition

PARTITIONERS.update(
    (cls.name, cls) for cls in (GeometricBisection, RandomPartition)
)

__all__ = [
    "Partition",
    "PartitionError",
    "Partitioner",
    "partition_mesh",
    "PARTITIONERS",
    "recursive_bisection",
    "PartitionMetrics",
    "partition_metrics",
]
