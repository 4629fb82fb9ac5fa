"""Model-versus-simulation validation (Sections 3.3-3.4).

``validate_model`` runs the barrier-mode simulator on a real schedule
and compares the simulated communication phase against Equation (2)'s
prediction ``T_comm = B_max T_l + C_max T_w``.  The paper proves the
prediction can only overestimate, by at most the factor β of Section
3.4; both properties are checked here (and asserted by tests across
meshes, partitioners, and machines).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.machine import Machine
from repro.simulate.bsp import BspSimulator
from repro.smvp.schedule import CommSchedule
from repro.stats.beta import beta_bound


@dataclass(frozen=True)
class ModelValidation:
    """Outcome of one model-vs-simulation comparison."""

    modeled_t_comm: float
    simulated_t_comm: float
    beta: float

    @property
    def ratio(self) -> float:
        """modeled / simulated (1 <= ratio <= beta when the model holds)."""
        if self.simulated_t_comm == 0:
            return 1.0
        return self.modeled_t_comm / self.simulated_t_comm

    @property
    def model_holds(self) -> bool:
        """The Section 3.4 guarantee: never underestimates, never
        overestimates by more than β (tiny float slack allowed)."""
        return 1.0 - 1e-12 <= self.ratio <= self.beta + 1e-9


def validate_model(
    flops_per_pe: np.ndarray,
    schedule: CommSchedule,
    machine: Machine,
) -> ModelValidation:
    """Compare Equation (2) against the simulated communication phase."""
    sim = BspSimulator(flops_per_pe, schedule, machine)
    times = sim.run("barrier")
    latency, bandwidth = schedule.eq2_terms(machine)
    beta = beta_bound(schedule.words_per_pe, schedule.blocks_per_pe)
    return ModelValidation(
        modeled_t_comm=latency + bandwidth,
        simulated_t_comm=times.t_comm,
        beta=beta,
    )
