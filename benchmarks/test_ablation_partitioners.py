"""Ablation bench: the geometric partitioner against a random scatter.

The paper relies on the partitioner doing "an excellent job of
distributing computation evenly" and a good job minimizing shared
nodes.  This bench sets the paper's geometric bisection beside the
no-locality baseline on those terms (and on the model quantities
C_max/B_max) at sf10e/32.
"""

import pytest

from repro.mesh.instances import get_instance
from repro.partition import PARTITIONERS, partition_mesh, partition_metrics
from repro.stats import smvp_statistics
from repro.tables.render import Table

METHODS = sorted(PARTITIONERS)


@pytest.mark.parametrize("method", METHODS)
def test_partition_speed(benchmark, method):
    mesh, _ = get_instance("sf10e").build()
    part = benchmark.pedantic(
        lambda: partition_mesh(mesh, 32, method=method, seed=0),
        rounds=2,
        iterations=1,
    )
    assert part.imbalance() < 1.01


def test_ablation_partitioners(emit):
    mesh, _ = get_instance("sf10e").build()
    table = Table(
        title="Ablation: partitioners on sf10e/32 (lower C_max/shared is better)",
        headers=[
            "method",
            "imbalance",
            "shared nodes",
            "replication",
            "cut faces",
            "C_max",
            "B_max",
            "F/C",
            "beta",
        ],
    )
    shared_by_method = {}
    for method in METHODS:
        part = partition_mesh(mesh, 32, method=method, seed=0)
        metrics = partition_metrics(mesh, part)
        stats = smvp_statistics(mesh, partition=part)
        shared_by_method[method] = metrics.shared_nodes
        table.add_row(
            method,
            round(metrics.imbalance, 3),
            metrics.shared_nodes,
            round(metrics.replication, 3),
            metrics.cut_faces,
            stats.c_max,
            stats.b_max,
            round(stats.f_over_c, 1),
            round(stats.beta, 2),
        )
    table.add_note("random is the no-locality baseline geometric must beat")
    emit("ablation_partitioners", table)
    assert shared_by_method["geometric"] < 0.7 * shared_by_method["random"]
