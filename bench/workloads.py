"""The four workloads and the one trial each of them runs.

A trial is: set up (timed from outside, stage spans when traced) ->
output checks -> timed work for ``--seconds`` -> metrics.  The
end-to-end path touches only the public surface listed in README.md
("Pinned public API"); everything else lives in :mod:`probes` and is
guarded per metric.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.fem import (
    ExplicitTimeStepper,
    PointSource,
    RickerWavelet,
    assemble_lumped_mass,
    assemble_stiffness,
    materials_from_model,
    stable_timestep,
)
from repro.mesh.instances import get_instance
from repro.model import (
    CRAY_T3E,
    ModelInputs,
    half_bandwidth_targets,
    sustained_bandwidth_bytes,
)
from repro.partition.base import partition_mesh
from repro.simulate import validate_model
from repro.smvp.distribution import DataDistribution
from repro.smvp.executor import DistributedSMVP
from repro.smvp.schedule import CommSchedule
from repro.stats import smvp_statistics

import checks
import probes
from harness import (
    END_TO_END,
    NO_TRACE,
    PER_LAYER,
    SWEEP_PES,
    Metrics,
    StageClock,
    Tracer,
    ms,
    p50,
    p95,
    peak_rss_mib,
)

DAMPING = 0.03
WARMUP_STEPS = 5
#: Target efficiency for the Eq.(1) evaluations of the characterize sweep.
EFFICIENCY = 0.9
#: Fewest timed blocks / whole sweeps a run reports a median over.
MIN_BLOCKS = 5
MIN_SWEEPS = 1
#: Stage spans of the quake set-up chain; metric ``<stage>_s`` each.
SETUP_STAGES = (
    "mesh.build", "material.build", "partition.geometric",
    "assembly.global", "executor.construct", "executor.warmup",
)
E2E_TABLE = {name: (unit, "measured") for name, (unit, _) in END_TO_END.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "quake" (time loop) or "characterize" (p-sweep)
    instance: str
    pes: int = 0
    backend: str = "serial"
    rhs: int = 1
    steps: int = 0  # nominal N: solve_s is the time for this many steps
    block: int = 0  # steps per timed block
    check_steps: int = 0  # trajectory compared against global K @ u here
    setups: int = 1  # set-ups per run; setup_s is their median
    variants: bool = False  # traced pass also times every kernel,
    # backend and feature path (ABFT, profiled) on this workload


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="quake-sf5e-p8",
            why="compute-dominant time loop (local SMVP ~80% of the "
            "superstep): kernel/backend/superstep changes show here; "
            "set-up is about half of time-to-solution",
            kind="quake", instance="sf5e", pes=8,
            steps=1000, block=25, check_steps=50, variants=True,
        ),
        Workload(
            name="quake-sf10e-p64",
            why="exchange-dominant (B_max=40, M_avg~60 words; the "
            "paper's block-latency regime): exchange/schedule changes "
            "show here and barely on quake-sf5e-p8",
            kind="quake", instance="sf10e", pes=64,
            steps=2000, block=50, check_steps=50, setups=3,
        ),
        Workload(
            name="block-sf5e-p8-r16-overlap",
            why="same layers used differently: SpMM at r=16, 2-D "
            "scatter/gather, boundary/interior overlap path, stepper "
            "update a third of the step",
            kind="quake", instance="sf5e", pes=8, backend="overlap",
            rhs=16, steps=150, block=5, check_steps=20,
        ),
        Workload(
            name="characterize-sf5e",
            why="the paper's own use (Figs 6-7, Eq.(1)/(2) tables) over "
            "p=4..128, no time loop: ~90% partitioner; superstep layers "
            "do nothing",
            kind="characterize", instance="sf5e", setups=5,
        ),
    )
}

QUICK_INSTANCE = "demo"


class Quake:
    """One warmed, ready-to-run pipeline of workloads 1-3."""

    def __init__(self, w: Workload, seed: int, tr: Tracer, instance: str):
        inst = get_instance(instance)
        with tr.span("mesh.build", kernel=True):
            mesh, _ = inst.build(use_cache=False)
        model = inst.model()
        with tr.span("material.build", kernel=True):
            materials = materials_from_model(mesh, model)
        with tr.span("partition.geometric", kernel=True):
            partition = partition_mesh(
                mesh, w.pes, method="geometric", seed=seed
            )
        with tr.span("assembly.global", kernel=True):
            stiffness = assemble_stiffness(mesh, materials)
            mass = assemble_lumped_mass(mesh, materials)
            dt = stable_timestep(mesh, materials)
        with tr.span("executor.construct", kernel=True):
            smvp = DistributedSMVP(
                mesh, partition, materials, kernel="csr", backend=w.backend
            )
        self.workload = w
        self.mesh, self.materials, self.partition = mesh, materials, partition
        self.stiffness, self.mass, self.dt = stiffness, mass, dt
        self.smvp = smvp
        # Step spans belong to the time loop, so warm-up steps record
        # none: the live tracer takes over once set-up is done.
        self.tr = NO_TRACE
        self.stepper = ExplicitTimeStepper(
            stiffness, mass, dt, damping_alpha=DAMPING, smvp=smvp, rhs=w.rhs
        )
        # Seeded inputs: one Ricker point source per right-hand side.
        rng = np.random.default_rng(seed)
        lo, hi = mesh.points.min(axis=0), mesh.points.max(axis=0)
        wavelet = RickerWavelet(frequency=1.0 / inst.period, amplitude=1e12)
        self.sources = [
            PointSource.at_point(mesh, lo + rng.random(3) * (hi - lo), wavelet)
            for _ in range(w.rhs)
        ]
        self._force_block: Optional[np.ndarray] = None
        with tr.span("executor.warmup", kernel=True):
            self.advance(WARMUP_STEPS)
        self.tr = tr

    def force(self, t: float, column: Optional[int] = None) -> np.ndarray:
        """Forcing at time ``t``: (3n,) for one scenario, (3n, r) for all."""
        n = self.mesh.num_nodes
        if column is not None:
            return self.sources[column].force(t, n)
        if len(self.sources) == 1:
            return self.sources[0].force(t, n)
        # A point source loads its own node's three dofs only, so the
        # block keeps its zeros and takes just those rows per column.
        if self._force_block is None:
            self._force_block = np.zeros((3 * n, len(self.sources)))
        for j, source in enumerate(self.sources):
            rows = slice(3 * source.node, 3 * source.node + 3)
            self._force_block[rows, j] = source.force(t, n)[rows]
        return self._force_block

    def step(self) -> bool:
        """One time step; True when the new state is finite."""
        tr = self.tr
        with tr.span("timestepper.step"):
            with tr.span("source.force"):
                f = self.force(self.stepper.time)
            rec = self.stepper.step(f)
        return math.isfinite(rec.max_displacement)

    def advance(self, steps: int) -> int:
        """Run ``steps`` steps; returns how many went non-finite."""
        bad = 0
        for _ in range(steps):
            bad += not self.step()
        return bad

    def close(self) -> None:
        self.smvp.close()


def _median_setup(setups: int, make, teardown):
    """Set up ``setups`` times on fresh objects; keep the last."""
    clocks: List[StageClock] = []
    state = None
    for _ in range(setups):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        with StageClock() as clock:
            state = make()
        clocks.append(clock)
    return state, clocks


def _timed_blocks(seconds: float, min_blocks: int, run_block, traced: bool):
    """Run blocks until ``seconds`` have passed (and ``min_blocks`` ran).

    A traced trial alternates untraced and traced blocks, so both sides
    of ``trace.overhead_frac`` see the same process and host drift.
    Returns ({False: [block times], True: [...]}, non-finite steps).
    """
    times: Dict[bool, List[float]] = {False: [], True: []}
    bad = 0
    need = min_blocks * (2 if traced else 1)
    deadline = time.perf_counter() + seconds
    done = 0
    while done < need or time.perf_counter() < deadline:
        with_trace = traced and done % 2 == 1
        t0 = time.perf_counter()
        bad += run_block(with_trace)
        times[with_trace].append(time.perf_counter() - t0)
        done += 1
    return times, bad


def _raw(clocks, loop_clock, times) -> dict:
    """The samples behind the medians, kept in the trial record."""
    return {
        "setups": [
            {"wall": c.wall, "kernel": c.kernel, "net": c.net} for c in clocks
        ],
        "timed_wall_s": loop_clock.wall,
        "timed_kernel_s": loop_clock.kernel,
        "untraced_block_s": times[False],
        "traced_block_s": times[True],
    }


def _finish(result: dict, e2e: Metrics, layer: Metrics, trace: bool) -> dict:
    layer.fill_missing("not measured on this workload")
    result["metrics"] = (layer if trace else e2e).entries
    result["failed"] += sum(not c["ok"] for c in result["checks"])
    result["attempted"] += len(result["checks"])
    result["correct"] = result["failed"] == 0
    return result


def run_quake(w: Workload, seed: int, seconds: float, trace: bool,
              quick: bool) -> dict:
    tr = Tracer(w.name, 0, enabled=trace)  # one traced pass: trial 0
    instance = QUICK_INSTANCE if quick else w.instance
    e2e, layer = Metrics(E2E_TABLE), Metrics(PER_LAYER)
    result = {"checks": [], "attempted": 0, "failed": 0, "errors": []}

    q, clocks = _median_setup(
        1 if trace else w.setups,
        lambda: Quake(w, seed, tr, instance),
        Quake.close,
    )
    try:
        tr.enabled = False  # checks and untraced blocks run clock-free
        result["checks"] = checks.quake_checks(q, bit_identity=trace)

        plain = q.smvp
        traced_multiply = probes.TracedMultiply(q, tr) if trace else None

        def run_block(with_trace: bool) -> int:
            tr.enabled = with_trace
            q.stepper.rebind_smvp(traced_multiply if with_trace else plain)
            if traced_multiply is not None:
                traced_multiply.attach(with_trace)
            try:
                return q.advance(w.block)
            finally:
                tr.enabled = False

        try:
            with StageClock() as loop_clock:
                times, bad = _timed_blocks(
                    seconds, MIN_BLOCKS, run_block, trace
                )
        except Exception as exc:  # a raising step is a failed operation
            result["errors"].append(f"timed loop: {type(exc).__name__}: {exc}")
            times, bad = {False: [], True: []}, 1
        steps = w.block * (len(times[False]) + len(times[True]))
        result["attempted"] += max(steps, 1)
        result["failed"] += bad
        result["raw"] = _raw(clocks, loop_clock, times)

        if times[False]:
            per_step = p50(times[False]) / w.block
            e2e.put("setup_s", p50([c.net for c in clocks]))
            e2e.put("solve_s", per_step * w.steps)
            e2e.put("peak_rss_mb", peak_rss_mib())
        if trace:
            layer.put("setup.wall_s", clocks[-1].wall)
            layer.put("setup.kernel_s", clocks[-1].kernel)
            for stage in SETUP_STAGES:
                layer.put(f"{stage}_s", tr.durations(stage)[0])
            layer.put("mesh.nodes", q.mesh.num_nodes)
            layer.put("mesh.elements", q.mesh.num_elements)
            layer.put("partition.imbalance", q.partition.imbalance())
            layer.put("assembly.global_nnz", q.stiffness.nnz)
            _timeloop_metrics(layer, tr, traced_multiply, times, w)
            probes.quake_probes(layer, q)
            result["spans"] = tr.to_record()
            result["phase_source"] = traced_multiply.source
    finally:
        q.close()
    return _finish(result, e2e, layer, trace)


def _timeloop_metrics(layer: Metrics, tr: Tracer, tm, times, w) -> None:
    steps = tr.durations("timestepper.step")
    if not steps:
        return
    layer.put("timeloop.steps", w.block * (len(times[False]) + len(times[True])))
    layer.put("timeloop.step_ms_p50", ms(p50(steps)))
    layer.put("timeloop.step_ms_p95", ms(p95(steps)))
    layer.put("source.force_ms_p50", ms(p50(tr.durations("source.force"))))
    layer.put(
        "timestepper.update_ms_p50",
        ms(p50(tr.self_durations("timestepper.step"))),
    )
    layer.put(
        "executor.multiply_ms_p50", ms(p50(tr.durations("executor.multiply")))
    )
    if times[False] and times[True]:
        layer.put(
            "trace.overhead_frac", p50(times[True]) / p50(times[False]) - 1.0
        )
    phase_names = (
        "executor.scatter_ms_p50", "backend.compute_ms_p50",
        "exchange.comm_ms_p50", "executor.gather_ms_p50",
        "executor.unattributed_frac", "exchange.words_per_step",
        "exchange.blocks_per_step", "kernel.gflops",
    )
    layer.guard(phase_names, lambda: tm.phase_metrics(w.rhs))


def run_characterize(w: Workload, seed: int, seconds: float, trace: bool,
                     quick: bool) -> dict:
    tr = Tracer(w.name, 0, enabled=trace)
    inst = get_instance(QUICK_INSTANCE if quick else w.instance)
    e2e, layer = Metrics(E2E_TABLE), Metrics(PER_LAYER)
    result = {"checks": [], "attempted": 0, "failed": 0, "errors": []}

    def make():
        with tr.span("mesh.build", kernel=True):
            mesh, _ = inst.build(use_cache=False)
        return mesh

    mesh, clocks = _median_setup(
        1 if trace else w.setups, make, lambda mesh: None
    )
    tr.enabled = False
    rows: Dict[int, dict] = {}

    def sweep(with_trace: bool) -> int:
        tr.enabled = with_trace
        try:
            for p in SWEEP_PES:
                with tr.span(f"partition.geometric.p{p}", kernel=True):
                    part = partition_mesh(
                        mesh, p, method="geometric", seed=seed
                    )
                with tr.span("stats.compute", kernel=True):
                    stats = smvp_statistics(mesh, part)
                with tr.span("model.eval", kernel=True):
                    inputs = ModelInputs.from_stats(stats)
                    sustained_bandwidth_bytes(inputs, EFFICIENCY, CRAY_T3E)
                    half_bandwidth_targets(inputs, EFFICIENCY, CRAY_T3E)
                with tr.span("sim.host", kernel=True):
                    schedule = CommSchedule(DataDistribution(mesh, part))
                    validation = validate_model(
                        stats.f_per_pe, schedule, CRAY_T3E
                    )
                rows[p] = {
                    "stats": stats, "schedule": schedule,
                    "validation": validation, "partition": part,
                }
        finally:
            tr.enabled = False
        return 0

    try:
        with StageClock() as loop_clock:
            times, _ = _timed_blocks(
                seconds, MIN_SWEEPS, sweep, trace
            )
    except Exception as exc:
        result["errors"].append(f"sweep: {type(exc).__name__}: {exc}")
        times = {False: [], True: []}
        result["failed"] += 1
    result["raw"] = _raw(clocks, loop_clock, times)
    sweeps = len(times[False]) + len(times[True])
    result["attempted"] += max(sweeps, 1) * len(SWEEP_PES)
    if len(rows) == len(SWEEP_PES):
        result["checks"] = checks.characterize_checks(
            mesh, rows, seed, pinned=not quick
        )

    if times[False]:
        e2e.put("setup_s", p50([c.net for c in clocks]))
        e2e.put("solve_s", p50(times[False]))
        e2e.put("peak_rss_mb", peak_rss_mib())
    if trace and times[True]:
        n_traced = len(times[True])
        layer.put("setup.wall_s", clocks[-1].wall)
        layer.put("setup.kernel_s", clocks[-1].kernel)
        layer.put("mesh.build_s", tr.durations("mesh.build")[0])
        layer.put("mesh.nodes", mesh.num_nodes)
        layer.put("mesh.elements", mesh.num_elements)
        total_partition = 0.0
        for p in SWEEP_PES:
            seconds_p = p50(tr.durations(f"partition.geometric.p{p}"))
            total_partition += seconds_p
            row = rows[p]
            layer.put(f"partition.geometric_s.p{p}", seconds_p)
            layer.put(f"schedule.c_max_words.p{p}", row["schedule"].c_max)
            layer.put(f"schedule.b_max_blocks.p{p}", row["schedule"].b_max)
            layer.put(
                f"sim.t_comm_us.p{p}", 1e6 * row["validation"].simulated_t_comm
            )
            layer.put(
                f"model.eq2_t_comm_us.p{p}",
                1e6 * row["validation"].modeled_t_comm,
            )
        layer.put("partition.geometric_s", total_partition)
        for metric, span in (
            ("stats.compute_s", "stats.compute"),
            ("model.eval_s", "model.eval"),
            ("sim.host_s", "sim.host"),
        ):
            layer.put(metric, sum(tr.durations(span)) / n_traced)
        layer.put(
            "trace.overhead_frac", p50(times[True]) / p50(times[False]) - 1.0
        )
        probes.host_fit_probe(layer, inst, mesh, rows)
        result["spans"] = tr.to_record()
    return _finish(result, e2e, layer, trace)


def run_trial(name: str, seed: int, seconds: float, trace: bool,
              quick: bool = False) -> dict:
    """One trial of one workload in this process."""
    w = WORKLOADS[name]
    run = run_quake if w.kind == "quake" else run_characterize
    result = run(w, seed, seconds, trace, quick)
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, quick=quick
    )
    return result
