"""Reliability sweep — the experiment axis the paper never ran.

The paper's Equations (1)/(2) predict SMVP time on a *perfect* machine:
no stragglers, no lost blocks, no restarts.  This table sweeps a seeded
fault rate through the BSP simulator (barrier mode, the paper's model)
and reports, per instance, how runtime and efficiency degrade relative
to the fault-free Equation (1)/(2) prediction — quantifying how much
the paper's 6000-superstep efficiency story depends on the
perfect-network assumption.

A companion table exercises the *data* path: the distributed executor
runs its checksummed retransmitting exchange under injected faults and
reports detection/recovery counts plus the end-to-end residual against
the global sequential product.

CLI: ``repro-tables reliability fault-recovery`` (both tables at their
defaults).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro import paperdata
from repro.faults import FaultConfig, FaultInjector
from repro.faults.detection import FaultStats, residual_relative_error
from repro.mesh.instances import INSTANCES
from repro.model.machine import CRAY_T3E, Machine
from repro.partition.base import partition_mesh
from repro.pipeline import Problem
from repro.simulate.bsp import BspSimulator
from repro.smvp.abft import verify_flops_per_pe
from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import CommSchedule
from repro.tables.render import Table

#: Fault rates swept by default (0 = the paper's perfect machine).
DEFAULT_RATES: Tuple[float, ...] = (0.0, 0.001, 0.01, 0.05)

#: Instances swept by default — both build in seconds.
DEFAULT_INSTANCES: Tuple[str, ...] = ("sf10e", "sf5e")

_SETUP_CACHE: Dict[
    Tuple[str, int], Tuple[np.ndarray, CommSchedule, np.ndarray]
] = {}


def _setup(
    instance_name: str, num_parts: int
) -> Tuple[np.ndarray, CommSchedule, np.ndarray]:
    """Memoized (flops, schedule, abft verify flops) per instance."""
    key = (instance_name, num_parts)
    if key not in _SETUP_CACHE:
        mesh, _ = INSTANCES[instance_name].build()
        partition = partition_mesh(mesh, num_parts)
        dist = DataDistribution(mesh, partition)
        schedule = CommSchedule(dist)
        _SETUP_CACHE[key] = (
            dist.local_counts["flops"].astype(np.float64),
            schedule,
            verify_flops_per_pe(dist, schedule),
        )
    return _SETUP_CACHE[key]


def clear_caches() -> None:
    """Drop memoized setups (tests use this)."""
    _SETUP_CACHE.clear()


@dataclass(frozen=True)
class ReliabilityPoint:
    """Aggregated simulation of one (instance, fault rate) cell."""

    instance: str
    num_parts: int
    rate: float
    t_step: float  # mean simulated seconds per SMVP superstep
    efficiency: float  # aggregate T_comp / T_smvp over the sampled steps
    slowdown: float  # t_step / fault-free t_step
    retransmits_per_step: float
    stragglers_per_step: float
    pe_failures_per_step: float
    sdc_per_step: float = 0.0  # injected silent corruptions
    sdc_detected_per_step: float = 0.0

    def total_seconds(self, num_steps: int = paperdata.NUM_TIME_STEPS) -> float:
        """Extrapolated whole-run time (the paper's 6000 supersteps)."""
        return self.t_step * num_steps


def simulate_reliability(
    instance: str,
    num_parts: int,
    rate: float,
    machine: Machine = CRAY_T3E,
    num_steps: int = 20,
    seed: int = 0,
) -> ReliabilityPoint:
    """Sample ``num_steps`` supersteps at one fault rate and aggregate.

    ``rate`` drives :meth:`FaultConfig.uniform`; rate 0 runs the exact
    fault-free simulator path, so the baseline row *is* the seed
    behaviour, not a degenerate fault run.
    """
    flops, schedule, verify_flops = _setup(instance, num_parts)
    injector = None
    if rate > 0:
        injector = FaultInjector(FaultConfig.uniform(rate, seed=seed))
    sim = BspSimulator(
        flops,
        schedule,
        machine,
        injector=injector,
        # With faults in play the machine runs ABFT-protected (the
        # T_verify overhead is part of the honest cost of surviving);
        # rate 0 models the paper's unprotected perfect machine and
        # stays bit-identical to the seed simulator.
        abft_flops_per_pe=verify_flops if injector is not None else None,
    )
    baseline = BspSimulator(flops, schedule, machine).run("barrier")
    total_comp = total_smvp = 0.0
    stats = FaultStats()
    for step in range(num_steps):
        times = sim.run("barrier", step=step)
        total_comp += times.t_comp
        total_smvp += times.t_smvp
        if times.faults is not None:
            stats = stats.merge(times.faults)
    t_step = total_smvp / num_steps
    return ReliabilityPoint(
        instance=instance,
        num_parts=num_parts,
        rate=rate,
        t_step=t_step,
        efficiency=total_comp / total_smvp if total_smvp else 1.0,
        slowdown=t_step / baseline.t_smvp if baseline.t_smvp else 1.0,
        retransmits_per_step=stats.retransmits / num_steps,
        stragglers_per_step=stats.straggler_events / num_steps,
        pe_failures_per_step=stats.pe_failures / num_steps,
        sdc_per_step=stats.injected_sdc / num_steps,
        sdc_detected_per_step=stats.detected_sdc / num_steps,
    )


def table_reliability(
    instances: Sequence[str] = DEFAULT_INSTANCES,
    num_parts: int = 32,
    rates: Sequence[float] = DEFAULT_RATES,
    machine: Machine = CRAY_T3E,
    num_steps: int = 20,
    seed: int = 0,
) -> Table:
    """Render the fault-rate × efficiency/runtime reliability sweep."""
    machine.require_comm("the reliability sweep")
    table = Table(
        title=(
            f"Reliability: fault-rate sweep on {machine.name} "
            f"(p={num_parts}, {num_steps} sampled supersteps)"
        ),
        headers=[
            "instance",
            "rate",
            "t_step ms",
            "E",
            "slowdown",
            "retx/step",
            "stragglers/step",
            "sdc/step",
            "run(6000) s",
        ],
    )
    for name in instances:
        inst = INSTANCES[name]
        if not inst.is_enabled():
            table.add_note(
                f"{name} disabled (set {inst.gate}=1); skipped"
            )
            continue
        for rate in rates:
            point = simulate_reliability(
                name,
                num_parts,
                rate,
                machine=machine,
                num_steps=num_steps,
                seed=seed,
            )
            table.add_row(
                name,
                rate,
                1e3 * point.t_step,
                round(point.efficiency, 3),
                round(point.slowdown, 3),
                round(point.retransmits_per_step, 2),
                round(point.stragglers_per_step, 2),
                round(point.sdc_per_step, 2),
                round(point.total_seconds(), 1),
            )
    table.add_note(
        "rate 0 is the paper's perfect machine (Equations (1)/(2) "
        "regime); slowdown is vs that baseline"
    )
    table.add_note(
        "faults per FaultConfig.uniform(rate): stragglers+drops at rate, "
        "corruption/duplication at rate/2, PE crashes at rate/10, "
        "SDC bit-flips in kernel outputs at rate/2"
    )
    table.add_note(
        "faulty rows run ABFT-protected: every modeled SDC is detected "
        "and recomputed, and T_verify is included in their t_step"
    )
    return table


def table_fault_recovery(
    instance: str = "demo",
    num_parts: int = 8,
    rate: float = 0.05,
    num_exchanges: int = 5,
    seed: int = 0,
) -> Table:
    """Render the data-path detection/recovery check (executor level).

    Runs the distributed executor's full verified superstep — ABFT
    checks on, the checksummed exchange, and the kernel-output flips of
    :meth:`FaultConfig.uniform` — for several supersteps, and shows
    that every injected fault (in flight *and* in compute) was detected
    and recovered, with the product still matching the global
    sequential SMVP.
    """
    problem = Problem.from_instance(instance)
    stiffness = problem.stiffness
    smvp = problem.executor(
        problem.partition(num_parts),
        injector=FaultInjector(FaultConfig.uniform(rate, seed=seed)),
        abft=True,
    )

    rng = np.random.default_rng(seed)
    max_err = 0.0
    for _ in range(num_exchanges):
        x = rng.standard_normal(problem.num_dofs)
        err = residual_relative_error(smvp.multiply(x), stiffness @ x)
        max_err = max(max_err, err)
    # In-flight faults accumulate on the transport side, compute
    # corruption on the SDC side; one merged tally covers both paths.
    stats = smvp.transport_stats.merge(smvp.sdc_stats)

    table = Table(
        title=(
            f"Fault recovery: {instance}/p={num_parts} executor, "
            f"rate={rate}, {num_exchanges} exchanges"
        ),
        headers=["quantity", "value"],
    )
    table.add_row("blocks dropped (injected)", stats.injected_drops)
    table.add_row("  detected by timeout", stats.detected_missing)
    table.add_row("blocks corrupted (injected)", stats.injected_corruptions)
    table.add_row("  detected by checksum", stats.detected_corrupt)
    table.add_row("blocks duplicated (injected)", stats.injected_duplicates)
    table.add_row("  deduplicated at receiver", stats.duplicates_ignored)
    table.add_row("retransmissions", stats.retransmits)
    table.add_row("words retransmitted", stats.words_retransmitted)
    table.add_row("SDC bit-flips (injected)", stats.injected_sdc)
    table.add_row("  detected by ABFT checksum", stats.detected_sdc)
    table.add_row("  healed by recompute", stats.recomputed_sdc)
    table.add_row("  escaped undetected", stats.escaped_sdc)
    table.add_row("every fault recovered", stats.fully_recovered())
    table.add_row("every SDC contained", stats.sdc_contained)
    table.add_row("max residual vs global SMVP", max_err)
    table.add_note(
        "residual is bit-identical to the fault-free product whenever "
        "recovery succeeds (retransmits resend the intact partial; ABFT "
        "recomputes heal corrupted products exactly)"
    )
    return table
