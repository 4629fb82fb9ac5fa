"""The BSP phase simulator.

Machine model (paper Figure 5): each PE is a processor + memory + a
network interface with one input and one output link; the
interconnection network itself has infinite capacity and constant
latency (the paper argues this is reasonable for tightly coupled
systems), so *all* communication cost accrues at the PEs.

Three execution modes:

``barrier``
    The paper's model: a global barrier separates the phases.  The
    computation phase ends when the slowest PE finishes (``max_i F_i
    T_f``); during the communication phase each PE's interface
    serializes its own blocks (``max_i (B_i T_l + C_i T_w)``).

``skewed``
    No barrier: each PE starts communicating as soon as its own local
    product is done.  A block transfer from i to j starts when i has
    finished computing and both interfaces are free, and occupies both
    for ``T_l + words T_w``.  Scheduled greedily (earliest-ready
    first) — a classic list simulation with an event heap.

``overlap``
    The footnote-1 extension: a PE's *interior* flops (rows not touched
    by any shared node) can overlap communication; only the *boundary*
    flops must precede the exchange.  Per PE:
    ``T_i = max(F_i T_f, F_i^boundary T_f + B_i T_l + C_i T_w)`` and the
    SMVP ends at ``max_i T_i``.

With a :class:`~repro.faults.FaultInjector` attached, ``barrier`` mode
additionally models an imperfect machine: straggler PEs stretch the
computation phase (everyone waits at the barrier), transient PE
failures restart-and-recompute their step, and dropped or corrupted
blocks are retransmitted after a timeout with exponential backoff —
all in simulated time, all deterministic under the injector's seed.
With injection disabled the code path (and therefore every timing, bit
for bit) is identical to the fault-free simulator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.faults.detection import FaultStats
from repro.faults.injector import FaultInjector
from repro.faults.recovery import retransmit_penalty
from repro.model.machine import Machine
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import PhaseBreakdown
from repro.telemetry.registry import get_registry, record_fault_stats

#: Execution modes accepted by :meth:`BspSimulator.run`.
MODES = ("barrier", "skewed", "overlap")


@dataclass(frozen=True)
class PhaseTimes(PhaseBreakdown):
    """Simulated timing of one SMVP.

    Extends the shared :class:`~repro.smvp.trace.PhaseBreakdown` core
    (t_comp / t_comm / t_smvp / efficiency) — the same fields the real
    executor's measured :class:`~repro.smvp.trace.SuperstepTrace`
    carries — with what only the simulator knows: the execution mode
    and each PE's modeled communication busy time.
    """

    mode: str
    per_pe_comm: np.ndarray  # each PE's own communication busy time
    faults: Optional[FaultStats] = None  # injected-fault tally, if any
    t_verify: float = 0.0  # modeled ABFT check time (0.0 when off)


@dataclass(frozen=True)
class ReconfigurationCost:
    """Modeled cost of an online eviction/reconfiguration.

    Priced against the same machine vocabulary as Eq. (2): the survivor
    PEs spend ``repartition_flops`` growing their regions into the dead
    PE's territory (charged at T_f), then the orphaned element data and
    newly replicated state rows migrate as ``migrated_blocks`` bulk
    messages carrying ``migrated_words`` words (charged at
    ``B T_l + C T_w``).  ``recomputed_supersteps`` counts supersteps
    replayed after a checkpoint rollback (the shadow-splice path
    replays none); their cost is modeled separately by re-running the
    simulator on the survivor schedule.
    """

    repartition_flops: int
    migrated_words: int
    migrated_blocks: int
    t_repartition: float
    t_migration: float
    recomputed_supersteps: int = 0

    @property
    def t_total(self) -> float:
        return self.t_repartition + self.t_migration


def model_reconfiguration(
    repartition_flops: int,
    migrated_words: int,
    migrated_blocks: int,
    machine: Machine,
    recomputed_supersteps: int = 0,
) -> ReconfigurationCost:
    """Price one reconfiguration on a (T_f, T_l, T_w) machine.

    ``T_repartition = repartition_flops * T_f`` and ``T_migration =
    migrated_blocks * T_l + migrated_words * T_w`` — the state
    migration is one more irregular communication phase, so it takes
    the Eq. (2) form with the migration traffic in place of the
    exchange schedule's C/B.
    """
    machine.require_comm("the reconfiguration cost model")
    return ReconfigurationCost(
        repartition_flops=int(repartition_flops),
        migrated_words=int(migrated_words),
        migrated_blocks=int(migrated_blocks),
        t_repartition=float(repartition_flops) * machine.tf,
        t_migration=(
            float(migrated_blocks) * machine.tl
            + float(migrated_words) * machine.tw
        ),
        recomputed_supersteps=int(recomputed_supersteps),
    )


def modeled_critical_path(
    flops_per_pe: np.ndarray,
    schedule: CommSchedule,
    machine: Machine,
    rhs: int = 1,
) -> dict:
    """The analytic prediction in the profiler's blame vocabulary.

    Splits the barrier-mode superstep into the same buckets the
    critical-path profiler attributes measured wall time to, so
    modeled and measured breakdowns render side by side: ``compute``
    is the *mean* per-PE product time (``mean_i F_i T_f r``),
    ``imbalance`` the slowest-PE excess the barrier exposes
    (``(max_i - mean_i) F_i T_f r``), and ``latency`` / ``bandwidth``
    the Eq. (2) terms ``B_max T_l`` / ``C_max (T_w r)`` (summing to
    ``eq2_t_comm``).  The model has no verify/recovery/overhead
    costs, so those buckets are zero.  Deterministic and clock-free.
    """
    machine.require_comm("the modeled critical path")
    if rhs < 1:
        raise ValueError("rhs must be >= 1")
    flops = np.asarray(flops_per_pe, dtype=np.float64)
    tf = machine.tf * rhs
    f_max = float(flops.max()) if len(flops) else 0.0
    f_mean = float(flops.mean()) if len(flops) else 0.0
    latency, bandwidth = schedule.eq2_terms(machine, rhs)
    buckets = {
        "compute": f_mean * tf,
        "imbalance": (f_max - f_mean) * tf,
        "latency": latency,
        "bandwidth": bandwidth,
        "verify": 0.0,
        "recovery": 0.0,
        "overhead": 0.0,
    }
    buckets["total"] = sum(buckets.values())
    return buckets


class BspSimulator:
    """Simulate one SMVP on a (T_f, T_l, T_w) machine.

    Parameters
    ----------
    flops_per_pe:
        F_i for each PE (from the distribution or the executor).
    schedule:
        The communication schedule (messages with word counts).
    machine:
        Must have ``tl`` and ``tw`` set.
    boundary_flops_per_pe:
        Only needed for ``overlap`` mode: the flops that must complete
        before the exchange can start.
    injector:
        Optional fault injector; when enabled, ``barrier`` runs model
        stragglers, transient PE failures, block retransmits, and —
        when SDC modes are configured — silent-data-corruption
        detection and recomputation.
    abft_flops_per_pe:
        Per-PE flop cost of the ABFT verification
        (:func:`repro.smvp.abft.verify_flops_per_pe`).  When given,
        every mode charges the checks as extra compute (the ``T_verify``
        term), and faulty barrier runs model SDC detections as one
        recompute of the afflicted PE's product.  ``None`` (default)
        models no verification and leaves every timing bit-identical
        to the pre-ABFT simulator.
    rhs:
        Number of right-hand-side columns per superstep (default 1).
        A block superstep traverses the matrix once but performs
        ``rhs`` times the flops and ships ``rhs`` words per shared dof,
        while the *block count* (and hence the latency term ``B_i T_l``)
        is unchanged — that is exactly Eq. (2) with an r-aware volume
        term: ``T_comm = max_i (B_i T_l + r C_i T_w)``.  Modeled by
        scaling the effective per-word and per-flop costs, so ``rhs=1``
        is bit-identical to the historical simulator (``x * 1`` is
        exact in IEEE-754).  ABFT verification checks every column, so
        ``T_verify`` scales with ``rhs`` too.
    """

    def __init__(
        self,
        flops_per_pe: np.ndarray,
        schedule: CommSchedule,
        machine: Machine,
        boundary_flops_per_pe: Optional[np.ndarray] = None,
        injector: Optional[FaultInjector] = None,
        abft_flops_per_pe: Optional[np.ndarray] = None,
        rhs: int = 1,
    ) -> None:
        machine.require_comm("the BSP simulator")
        if rhs < 1:
            raise ValueError("rhs must be >= 1")
        self.rhs = int(rhs)
        self.flops = np.asarray(flops_per_pe, dtype=np.float64)
        self.schedule = schedule
        self.machine = machine
        if self.flops.shape != (schedule.num_parts,):
            raise ValueError("flops_per_pe length must equal PE count")
        self.boundary_flops = (
            None
            if boundary_flops_per_pe is None
            else np.asarray(boundary_flops_per_pe, dtype=np.float64)
        )
        self.abft_flops = (
            None
            if abft_flops_per_pe is None
            else np.asarray(abft_flops_per_pe, dtype=np.float64)
        )
        if (
            self.abft_flops is not None
            and self.abft_flops.shape != self.flops.shape
        ):
            raise ValueError("abft_flops_per_pe length must equal PE count")
        self.injector = injector
        # Effective per-column costs: a block superstep does r times the
        # flops and ships r times the words per block, at unchanged
        # latency.  Exact at rhs=1 (multiplying a float by 1 is lossless).
        self._tf = self.machine.tf * self.rhs
        self._tw = self.machine.tw * self.rhs

    # -- modes -------------------------------------------------------------

    def run(self, mode: str = "barrier", step: int = 0) -> PhaseTimes:
        """Simulate one SMVP in the given mode.

        ``step`` is the superstep index; it only matters with a fault
        injector attached, where it selects that superstep's (seeded)
        fault draws so a multi-step run sees an evolving fault history.
        """
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        faulty = self.injector is not None and self.injector.enabled
        if mode == "barrier":
            result = (
                self._run_barrier_faulty(step)
                if faulty
                else self._run_barrier()
            )
        elif faulty:
            raise ValueError(
                "fault injection is only modeled in 'barrier' mode "
                f"(requested {mode!r})"
            )
        elif mode == "skewed":
            result = self._run_skewed()
        else:
            result = self._run_overlap()
        reg = get_registry()
        if reg is not None:
            reg.counter(
                "repro_bsp_runs_total", "simulated SMVPs"
            ).inc(mode=mode)
            reg.gauge(
                "repro_bsp_t_smvp_seconds", "last simulated T_smvp"
            ).set(result.t_smvp, mode=mode)
            record_fault_stats(result.faults, "simulator")
        return result

    def _verify_times(self) -> Tuple[np.ndarray, float]:
        """Per-PE ABFT check time and the reported T_verify (its max)."""
        if self.abft_flops is None:
            zeros = np.zeros_like(self.flops)
            return zeros, 0.0
        verify = self.abft_flops * self._tf
        return verify, float(verify.max()) if len(verify) else 0.0

    def _run_barrier(self) -> PhaseTimes:
        verify, t_verify = self._verify_times()
        t_comp = float(((self.flops * self._tf) + verify).max())
        busy = self.schedule.comm_busy(self.machine, self.rhs)
        t_comm = float(busy.max()) if len(busy) else 0.0
        return PhaseTimes(
            mode="barrier",
            t_comp=t_comp,
            t_comm=t_comm,
            t_smvp=t_comp + t_comm,
            per_pe_comm=busy,
            t_verify=t_verify,
        )

    def _run_barrier_faulty(self, step: int) -> PhaseTimes:
        """Barrier mode on an imperfect machine.

        Computation phase: each PE's nominal ``F_i T_f`` is stretched by
        its straggler factor; a transiently failed PE restarts and
        recomputes the step (time doubles) plus a fixed restart penalty.
        The barrier makes every PE wait for the slowest.

        Communication phase: each directed block is re-decided per
        attempt; a failed attempt costs its wire time plus a timeout
        (with exponential backoff) before the retransmit, and occupies
        both endpoints' interfaces — exactly the accounting of
        :func:`repro.faults.recovery.retransmit_penalty`.
        """
        injector = self.injector
        cfg = injector.config
        tf, tl, tw = self._tf, self.machine.tl, self._tw
        stats = FaultStats()
        verify, t_verify = self._verify_times()
        abft_on = self.abft_flops is not None

        comp = self.flops * tf
        for pe in range(len(comp)):
            factor = injector.straggler_factor(pe, step)
            if factor > 1.0:
                stats.straggler_events += 1
                comp[pe] *= factor
            if injector.pe_failed(pe, step):
                stats.pe_failures += 1
                comp[pe] = 2.0 * comp[pe] + cfg.pe_restart_penalty
            if injector.sdc_enabled:
                sticky = injector.sticky(pe, step)
                events = int(injector.flipped(pe, step)) + int(sticky)
                if events:
                    stats.injected_sdc += events
                    if not abft_on:
                        # Nothing watching: the corruption commits.
                        stats.escaped_sdc += events
                    elif sticky:
                        # The one inline recompute is re-corrupted, then
                        # the supervisor restarts the superstep.
                        stats.detected_sdc += events
                        stats.recomputed_sdc += 1
                        comp[pe] += (
                            self.flops[pe] * tf + cfg.pe_restart_penalty
                        )
                    else:
                        # One recompute of the local product heals it.
                        stats.detected_sdc += events
                        stats.recomputed_sdc += events
                        comp[pe] += events * self.flops[pe] * tf
        comp = comp + verify
        t_comp = float(comp.max()) if len(comp) else 0.0

        busy = np.zeros(self.schedule.num_parts, dtype=np.float64)
        for msg in self.schedule.messages:
            outcome = injector.transmission_outcome(msg.src, msg.dst, step)
            base = tl + msg.words * tw
            # Failed attempts are contiguous from attempt 0 (the retry
            # loop stops at the first success), so the k-th stall takes
            # the k-th seeded jitter factor for this link and step.
            jitters = None
            if outcome.failures and cfg.backoff_jitter > 0.0:
                jitters = [
                    injector.backoff_jitter(msg.src, msg.dst, step, k)
                    for k in range(outcome.failures)
                ]
            cost = base + retransmit_penalty(
                base,
                outcome.failures,
                cfg.timeout_factor,
                cfg.backoff_factor,
                jitters=jitters,
            )
            cost += outcome.duplicates * base
            stats.injected_drops += outcome.drops
            stats.detected_missing += outcome.drops
            stats.injected_corruptions += outcome.corruptions
            stats.detected_corrupt += outcome.corruptions
            stats.injected_duplicates += outcome.duplicates
            stats.duplicates_ignored += outcome.duplicates
            stats.retransmits += outcome.failures
            stats.words_retransmitted += outcome.failures * msg.words * self.rhs
            if not outcome.delivered:
                # Retry budget exhausted: the run would fail over to a
                # checkpoint restart; charge the restart penalty to both
                # endpoints instead of dying silently.
                cost += cfg.pe_restart_penalty
            busy[msg.src] += cost
            busy[msg.dst] += cost
        t_comm = float(busy.max()) if len(busy) else 0.0
        return PhaseTimes(
            mode="barrier",
            t_comp=t_comp,
            t_comm=t_comm,
            t_smvp=t_comp + t_comm,
            per_pe_comm=busy,
            faults=stats,
            t_verify=t_verify,
        )

    def _run_skewed(self) -> PhaseTimes:
        tf, tl, tw = self._tf, self.machine.tl, self._tw
        verify, t_verify = self._verify_times()
        # The compute check gates each PE's sends, so verification time
        # delays communication readiness like compute does.
        ready = self.flops * tf + verify  # when each PE may communicate
        free = ready.copy()  # when each PE's interface is next free
        # Transfers, each occupying both endpoints' interfaces.
        pending: List[Tuple[float, int, int, int, float]] = []
        for k, msg in enumerate(self.schedule.messages):
            duration = tl + msg.words * tw
            start_lb = max(ready[msg.src], ready[msg.dst])
            heapq.heappush(pending, (start_lb, k, msg.src, msg.dst, duration))
        finish = ready.copy()
        while pending:
            start_lb, k, src, dst, duration = heapq.heappop(pending)
            start = max(start_lb, free[src], free[dst])
            if start > start_lb:
                # Both interfaces were not actually free yet; requeue
                # with the tightened bound so earliest-ready runs first.
                heapq.heappush(pending, (start, k, src, dst, duration))
                continue
            end = start + duration
            free[src] = end
            free[dst] = end
            finish[src] = max(finish[src], end)
            finish[dst] = max(finish[dst], end)
        t_comp = float(ready.max())
        t_smvp = float(finish.max())
        return PhaseTimes(
            mode="skewed",
            t_comp=t_comp,
            t_comm=t_smvp - t_comp,
            t_smvp=t_smvp,
            per_pe_comm=finish - ready,
            t_verify=t_verify,
        )

    def _run_overlap(self) -> PhaseTimes:
        if self.boundary_flops is None:
            raise ValueError("overlap mode needs boundary_flops_per_pe")
        if np.any(self.boundary_flops > self.flops):
            raise ValueError("boundary flops exceed total flops")
        tf = self._tf
        busy = self.schedule.comm_busy(self.machine, self.rhs)
        verify, t_verify = self._verify_times()
        # Interior flops overlap communication, but the compute check
        # must finish before the exchange starts — it rides with the
        # boundary flops on the critical path.
        per_pe = np.maximum(
            self.flops * tf + verify,
            self.boundary_flops * tf + verify + busy,
        )
        t_smvp = float(per_pe.max())
        t_comp = float((self.flops * tf + verify).max())
        return PhaseTimes(
            mode="overlap",
            t_comp=t_comp,
            t_comm=t_smvp - t_comp,
            t_smvp=t_smvp,
            per_pe_comm=busy,
            t_verify=t_verify,
        )
