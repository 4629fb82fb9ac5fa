"""Shared plumbing for the table generators.

Statistics for one (instance, subdomain count) pair are used by several
tables, so they are computed once and memoized here.  Every table
partitions with :func:`~repro.partition.base.partition_mesh`'s default,
the MTTV-style geometric bisection of the paper's Archimedes tool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import paperdata
from repro.mesh.instances import INSTANCES, QuakeInstance, instance_names
from repro.partition.base import partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.stats.exflow import ExflowStyleStats, exflow_style_stats
from repro.stats.properties import SmvpStats, smvp_statistics

#: The subdomain counts of Figures 6 and 7.
SUBDOMAIN_COUNTS = paperdata.SUBDOMAIN_COUNTS

_STATS_CACHE: Dict[Tuple[str, int], SmvpStats] = {}
_EXFLOW_CACHE: Dict[Tuple[str, int], ExflowStyleStats] = {}


def paper_instances() -> List[QuakeInstance]:
    """The sf*e instances (not demo), smallest first, gated or not."""
    return [INSTANCES[n] for n in instance_names() if n != "demo"]


def enabled_paper_instances() -> List[QuakeInstance]:
    """The sf*e instances currently enabled by environment gates."""
    return [inst for inst in paper_instances() if inst.is_enabled()]


def instance_stats(instance: QuakeInstance, num_parts: int) -> SmvpStats:
    """Memoized Figure-7 statistics for one instance/partition."""
    key = (instance.name, num_parts)
    if key not in _STATS_CACHE:
        mesh, _ = instance.build()
        _STATS_CACHE[key] = smvp_statistics(mesh, num_parts=num_parts)
    return _STATS_CACHE[key]


def instance_exflow_stats(
    instance: QuakeInstance, num_parts: int
) -> ExflowStyleStats:
    """Memoized Section-1 comparison stats for one instance/partition."""
    key = (instance.name, num_parts)
    if key not in _EXFLOW_CACHE:
        mesh, _ = instance.build()
        partition = partition_mesh(mesh, num_parts)
        dist = DataDistribution(mesh, partition)
        stats = instance_stats(instance, num_parts)
        _EXFLOW_CACHE[key] = exflow_style_stats(stats, dist)
    return _EXFLOW_CACHE[key]


def clear_caches() -> None:
    """Drop memoized statistics (tests use this)."""
    _STATS_CACHE.clear()
    _EXFLOW_CACHE.clear()


def gate_note(instance: QuakeInstance) -> Optional[str]:
    """Human-readable note when an instance is gated off."""
    if instance.is_enabled():
        return None
    return (
        f"{instance.name} disabled (set {instance.gate}=1); paper values "
        "shown alone"
    )
