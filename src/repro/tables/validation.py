"""Sections 3.3-3.4 — analytic model vs simulated execution.

For each (instance, p) the barrier-mode BSP simulator executes the
phase structure on Cray T3E communication constants, and the table
shows Equation (2)'s T_comm prediction, the simulated T_comm, their
ratio, and the β bound — demonstrating ``1 <= ratio <= beta``
everywhere (the Section 3.4 guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.mesh.instances import QuakeInstance
from repro.model.machine import CRAY_T3E, Machine
from repro.partition.base import partition_mesh
from repro.simulate.validate import ModelValidation, validate_model
from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import CommSchedule
from repro.tables.common import (
    SUBDOMAIN_COUNTS,
    enabled_paper_instances,
    instance_stats,
)
from repro.tables.render import Table


@dataclass(frozen=True)
class ValidationRow:
    instance: str
    num_parts: int
    validation: ModelValidation


def compute_validation(
    machine: Machine = CRAY_T3E,
    instances: List[QuakeInstance] = None,
) -> List[ValidationRow]:
    if instances is None:
        instances = enabled_paper_instances()[:2]  # keep the table fast
    rows = []
    for inst in instances:
        mesh, _ = inst.build()
        for p in SUBDOMAIN_COUNTS:
            stats = instance_stats(inst, p)
            partition = partition_mesh(mesh, p)
            schedule = CommSchedule(DataDistribution(mesh, partition))
            rows.append(
                ValidationRow(
                    instance=inst.name,
                    num_parts=p,
                    validation=validate_model(
                        stats.f_per_pe, schedule, machine
                    ),
                )
            )
    return rows


def table_validation(machine: Machine = CRAY_T3E) -> Table:
    table = Table(
        title=f"Model vs simulation ({machine.name} constants): "
        "1 <= modeled/simulated <= beta",
        headers=[
            "instance",
            "p",
            "modeled T_comm (us)",
            "simulated T_comm (us)",
            "ratio",
            "beta",
            "holds",
        ],
    )
    for row in compute_validation(machine):
        v = row.validation
        table.add_row(
            row.instance,
            row.num_parts,
            round(v.modeled_t_comm * 1e6, 1),
            round(v.simulated_t_comm * 1e6, 1),
            round(v.ratio, 3),
            round(v.beta, 3),
            v.model_holds,
        )
    return table
