"""Section 3.1 — measuring T_f on this host.

The paper measured 30 ns/flop (T3D) and 14 ns/flop (T3E) for the local
SMVP.  This table measures the same quantity, the same way (elapsed
time over 2 flops per stored nonzero), for the ``csr`` kernel on the
host machine, using a realistic local stiffness matrix — once over a
vector and once over an n x 16 block, whose T_f is per column (the
block workload's product).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import paperdata
from repro.fem.assembly import assemble_stiffness
from repro.fem.material import materials_from_model
from repro.mesh.instances import get_instance
from repro.smvp.kernels import TfMeasurement, measure_tf
from repro.tables.render import Table

#: Block width of the per-column ``csr`` row.
BLOCK_RHS = 16


@dataclass(frozen=True)
class TfRow:
    measurement: TfMeasurement
    instance: str
    rhs: int = 1


def compute_tf_measurements(
    instance: str = "sf10e", repetitions: int = 5
) -> List[TfRow]:
    """Measure ``csr``'s T_f on a named instance at r = 1 and r = 16."""
    inst = get_instance(instance)
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    csr = assemble_stiffness(mesh, materials)
    return [
        TfRow(
            measurement=measure_tf(csr, repetitions=repetitions, rhs=rhs),
            instance=instance,
            rhs=rhs,
        )
        for rhs in (1, BLOCK_RHS)
    ]


def table_sec3_tf(instance: str = "sf10e") -> Table:
    table = Table(
        title="Section 3.1: measured T_f for the local SMVP (this host)",
        headers=["kernel", "instance", "nnz", "T_f (ns)", "MFLOPS"],
    )
    for row in compute_tf_measurements(instance):
        m = row.measurement
        table.add_row(
            m.kernel if row.rhs == 1 else f"{m.kernel}, r={row.rhs} (per column)",
            row.instance,
            m.nnz,
            m.tf_ns,
            round(m.mflops),
        )
    for name, tf in paperdata.T_F_MEASURED_NS.items():
        table.add_row(f"paper: {name}", "sf*", "-", tf, round(1e3 / tf))
    table.add_note(
        "the paper's T3E sustained 70 MFLOPS = 12% of its 600 MFLOPS peak "
        "on this kernel"
    )
    return table
