"""Section 3.1 — measuring T_f on this host.

The paper measured 30 ns/flop (T3D) and 14 ns/flop (T3E) for the local
SMVP.  This table measures the same quantity, the same way (elapsed
time over 2 flops per stored nonzero), for each kernel in our suite on
the host machine, using a realistic local stiffness matrix — plus
``csr`` over an n x 16 block, whose T_f is per column (the block
workload's product).
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

#: Kernels measured by default; the pure-Python kernel runs on a tiny
#: instance separately because it is ~1000x slower.
FAST_KERNELS = ("csr", "bsr3x3", "symmetric-upper")
#: Block width of the per-column ``csr`` row.
BLOCK_RHS = 16


@dataclass(frozen=True)
class TfRow:
    measurement: TfMeasurement
    instance: str
    rhs: int = 1


def compute_tf_measurements(
    instance: str = "sf10e",
    kernels=FAST_KERNELS,
    repetitions: int = 5,
    include_python: bool = True,
) -> List[TfRow]:
    """Measure T_f for each kernel on a named instance."""
    inst = get_instance(instance)
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    csr = assemble_stiffness(mesh, materials, fmt="csr")
    bsr = assemble_stiffness(mesh, materials, fmt="bsr")
    rows = []
    for kernel in kernels:
        matrix = bsr if kernel == "bsr3x3" else csr
        rows.append(
            TfRow(
                measurement=measure_tf(matrix, kernel, repetitions=repetitions),
                instance=instance,
            )
        )
    if "csr" in kernels:
        block = measure_tf(csr, "csr", repetitions=repetitions, rhs=BLOCK_RHS)
        rows.append(TfRow(measurement=block, instance=instance, rhs=BLOCK_RHS))
    if include_python:
        demo = get_instance("demo")
        demo_mesh, _ = demo.build()
        demo_mat = materials_from_model(demo_mesh, demo.model())
        demo_csr = assemble_stiffness(demo_mesh, demo_mat)
        rows.append(
            TfRow(
                measurement=measure_tf(demo_csr, "python-csr", repetitions=1),
                instance="demo",
            )
        )
    return rows


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
