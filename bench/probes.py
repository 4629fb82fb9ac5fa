"""Per-layer probes of the traced pass.

Everything here is optional evidence: each probe is guarded per
metric (``Metrics.guard``), so an API this file reaches for that a
later refactor removes turns into ``null`` + reason for that metric
and never into a failed operation or a changed end-to-end number.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from harness import (
    BACKENDS, KERNELS, SWEEP_PES, Metrics, StageClock, ms, p50,
)

#: Steps timed on each feature path (ABFT, profiled) of quake-sf5e-p8.
FEATURE_STEPS = 100
#: Executed supersteps per PE count behind the host Eq.(2) fit.
FIT_SUPERSTEPS = 30
#: Untimed leading steps / supersteps of every executed probe.
FIT_WARMUP = 5
COMPUTE_REPS = 30


class TracedMultiply:
    """Bench-instrumented stand-in for ``DistributedSMVP.multiply``.

    On a separable backend it drives scatter -> compute_phase ->
    communication_phase -> gather itself (the very calls the plain
    ``multiply`` makes; checked ``array_equal`` once) with a span round
    each.  The overlapped path cannot be split from outside, so there
    the phases come from the executor's own public ``trace_sink``
    records and are set against the bench's outer multiply span.
    """

    def __init__(self, q, tr) -> None:
        self.smvp = q.smvp
        self.tr = tr
        self.traces: List = []
        self.words: List[int] = []
        self.blocks: List[int] = []
        self.source, self.reason = self._choose(q)

    def _choose(self, q):
        if q.workload.backend == "overlap":
            return "trace_sink", "overlapped path is not separable from outside"
        shape = (3 * q.mesh.num_nodes,) + ((q.workload.rhs,) if q.workload.rhs > 1 else ())
        x = np.random.default_rng(0).standard_normal(shape)
        try:
            same = np.array_equal(self._split(x), self.smvp.multiply(x))
        except Exception as exc:  # phase API gone: fall back to the sink
            return "trace_sink", f"phase API unavailable: {type(exc).__name__}: {exc}"
        finally:
            self.words.clear()
            self.blocks.clear()
        if not same:
            return "trace_sink", "split phases differ from multiply"
        return "bench_spans", ""

    def _split(self, x):
        tr, smvp = self.tr, self.smvp
        with tr.span("executor.scatter"):
            x_locals = smvp.scatter(x)
        with tr.span("backend.compute"):
            y_locals = smvp.compute_phase(x_locals)
        with tr.span("exchange.comm"):
            y_locals, record = smvp.communication_phase(y_locals)
        with tr.span("executor.gather"):
            y = smvp.gather(y_locals)
        self.words.append(int(record.words_sent.sum()))
        self.blocks.append(int(record.blocks_sent.sum()))
        return y

    def attach(self, on: bool) -> None:
        if self.source == "trace_sink":
            self.smvp.trace_sink = self.traces.append if on else None

    def __call__(self, x):
        with self.tr.span("executor.multiply"):
            if self.source == "bench_spans":
                return self._split(x)
            return self.smvp.multiply(x)

    def phase_metrics(self, rhs: int) -> Dict[str, float]:
        tr = self.tr
        multiply = np.asarray(tr.durations("executor.multiply"))
        if self.source == "bench_spans":
            scatter = tr.durations("executor.scatter")
            compute = tr.durations("backend.compute")
            comm = tr.durations("exchange.comm")
            gather = tr.durations("executor.gather")
            words, blocks = self.words, self.blocks
        else:
            scatter = [t.t_scatter for t in self.traces]
            compute = [t.t_comp for t in self.traces]
            comm = [t.t_comm for t in self.traces]
            gather = [t.t_gather for t in self.traces]
            words = [t.total_words for t in self.traces]
            blocks = [t.total_blocks for t in self.traces]
        phases = sum(np.asarray(v) for v in (scatter, compute, comm, gather))
        flops = float(self.smvp.flops_per_pe().sum()) * rhs
        return {
            "executor.scatter_ms_p50": ms(p50(scatter)),
            "backend.compute_ms_p50": ms(p50(compute)),
            "exchange.comm_ms_p50": ms(p50(comm)),
            "executor.gather_ms_p50": ms(p50(gather)),
            "executor.unattributed_frac": p50(1.0 - phases / multiply),
            "exchange.words_per_step": p50(words),
            "exchange.blocks_per_step": p50(blocks),
            "kernel.gflops": 1e-9 * flops / p50(compute),
        }


def _timed(fn) -> float:
    """Seconds ``fn()`` takes, net of kernel time like every stage."""
    with StageClock() as clock:
        fn()
    return clock.net


def quake_probes(layer: Metrics, q) -> None:
    """Static counts and bench-called layer builds of workloads 1-3,
    plus the kernel / backend / feature-path comparisons where the
    workload asks for its ``variants``."""
    from repro.fem import assemble_subdomain_stiffness
    from repro.smvp.distribution import DataDistribution
    from repro.smvp.schedule import CommSchedule
    from repro.stats import smvp_statistics

    mesh, partition, rhs = q.mesh, q.partition, q.workload.rhs
    built = {}

    # Both classes build lazily, so "build" is construction plus the
    # first read of what the executor and the statistics take from them.
    def distribution():
        def build():
            dist = built["dist"] = DataDistribution(mesh, partition)
            dist.pair_shared_nodes
            for part in range(partition.num_parts):
                dist.local_nodes(part)

        return {"distribution.build_s": _timed(build)}

    def schedule():
        counts = {}

        def build():
            sched = CommSchedule(built["dist"])
            counts["schedule.c_max_words"] = sched.c_max
            counts["schedule.b_max_blocks"] = sched.b_max
            counts["schedule.m_avg_words"] = sched.m_avg
            counts["schedule.q_max"] = sched.q_max

        counts["schedule.build_s"] = _timed(build)
        return counts

    def subdomains():
        dist = built["dist"]
        return {
            "assembly.subdomain_s": _timed(
                lambda: [
                    assemble_subdomain_stiffness(
                        mesh, q.materials, dist.local_elements(part),
                        dist.local_nodes(part),
                    )
                    for part in range(partition.num_parts)
                ]
            )
        }

    def stats():
        s = smvp_statistics(mesh, partition)
        return {"stats.beta": s.beta, "stats.f_over_c": s.f_over_c}

    def kernel_counts():
        mats = q.smvp.local_matrices
        moved = sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            + 8 * rhs * (m.shape[0] + m.shape[1])
            for m in mats
        )
        return {
            "kernel.flops_per_step": int(q.smvp.flops_per_pe().sum()) * rhs,
            "kernel.bytes_per_step_computed": moved,
        }

    layer.guard(["distribution.build_s"], distribution)
    layer.guard(
        ["schedule.build_s", "schedule.c_max_words", "schedule.b_max_blocks",
         "schedule.m_avg_words", "schedule.q_max"],
        schedule,
    )
    layer.guard(["assembly.subdomain_s"], subdomains)
    layer.guard(["stats.beta", "stats.f_over_c"], stats)
    layer.guard(
        ["kernel.flops_per_step", "kernel.bytes_per_step_computed"],
        kernel_counts,
    )
    if q.workload.variants:
        for kernel in KERNELS:
            layer.guard([f"kernel.tf_ns.{kernel}"], lambda k=kernel: _kernel_tf(q, k))
        for backend in BACKENDS:
            layer.guard(
                [f"backend.compute_ms_p50.{backend}"],
                lambda b=backend: _backend_compute(q, b),
            )
        for feature, options in (
            ("abft", {"abft": True}),
            # spans are only recorded while a sink is attached
            ("profiled", {"profile": True, "trace_sink": lambda trace: None}),
        ):
            layer.guard(
                [f"executor.step_ms_p50.{feature}"],
                lambda f=feature, o=options: _feature_steps(q, f, o),
            )


def _kernel_tf(q, kernel: str) -> Dict[str, float]:
    from repro.smvp.kernels import measure_tf

    measured = measure_tf(
        q.smvp.local_matrices[0], kernel=kernel, repetitions=COMPUTE_REPS
    )
    return {f"kernel.tf_ns.{kernel}": measured.tf_ns}


def _backend_compute(q, name: str) -> Dict[str, float]:
    from repro.smvp.backends import backend_names, make_backend
    from repro.smvp.kernels import get_kernel

    if name not in backend_names():
        raise LookupError(f"backend {name!r} is not registered")
    x = np.random.default_rng(0).standard_normal(3 * q.mesh.num_nodes)
    x_locals = q.smvp.scatter(x)
    with make_backend(name) as backend:
        backend.setup(get_kernel("csr"), q.smvp.local_matrices)
        backend.compute(x_locals)
        times = [
            _timed(lambda: backend.compute(x_locals))
            for _ in range(COMPUTE_REPS)
        ]
    return {f"backend.compute_ms_p50.{name}": ms(p50(times))}


def _feature_steps(q, feature: str, options: dict) -> Dict[str, float]:
    """Median step time with one executor feature switched on."""
    from repro.fem import ExplicitTimeStepper
    from repro.smvp.executor import DistributedSMVP

    with DistributedSMVP(
        q.mesh, q.partition, q.materials, kernel="csr",
        backend=q.workload.backend, **options,
    ) as smvp:
        stepper = ExplicitTimeStepper(
            q.stiffness, q.mass, q.dt,
            damping_alpha=q.stepper.damping_alpha, smvp=smvp,
        )
        times = []
        for _ in range(FIT_WARMUP + FEATURE_STEPS):
            t0 = time.perf_counter()
            stepper.step(q.force(stepper.time, column=0))
            times.append(time.perf_counter() - t0)
    return {f"executor.step_ms_p50.{feature}": ms(p50(times[FIT_WARMUP:]))}


def host_fit_probe(layer: Metrics, inst, mesh, rows) -> None:
    """Executed supersteps across the p-sweep, then the host Eq.(2) fit:
    measured T_comm per P beside what the fitted (T_l, T_w) predict."""
    names = [f"exchange.comm_ms_p50.p{p}" for p in SWEEP_PES]
    names += [f"model.eq2_fit_ms.p{p}" for p in SWEEP_PES]
    names += [
        "host.tf_ns", "host.tl_us", "host.tw_ns", "host.tq_ns",
        "model.eq2_rel_residual_rms", "model.contended_rel_residual_rms",
    ]

    def probe():
        from repro.fem import materials_from_model
        from repro.smvp.executor import DistributedSMVP
        from repro.telemetry.drift import eq2_t_comm, fit_machine_contended

        materials = materials_from_model(mesh, inst.model())
        x = np.random.default_rng(0).standard_normal(3 * mesh.num_nodes)
        out, sweep = {}, []
        for p in SWEEP_PES:
            traces: List = []
            with DistributedSMVP(
                mesh, rows[p]["partition"], materials, kernel="csr",
                backend="serial", trace_sink=traces.append,
            ) as smvp:
                for _ in range(FIT_WARMUP + FIT_SUPERSTEPS):
                    smvp.multiply(x)
                measured = traces[FIT_WARMUP:]
                sweep.append((measured, smvp.flops_per_pe(), smvp.schedule))
            out[f"exchange.comm_ms_p50.p{p}"] = ms(
                p50([t.t_comm for t in measured])
            )
        fit = fit_machine_contended(sweep)
        mean_comm = float(
            np.mean([t.t_comm for measured, _, _ in sweep for t in measured])
        )
        for p, (_, _, sched) in zip(SWEEP_PES, sweep):
            out[f"model.eq2_fit_ms.p{p}"] = ms(
                eq2_t_comm(sched, fit.uniform_machine)
            )
        out["host.tf_ns"] = 1e9 * fit.machine.tf
        out["host.tl_us"] = 1e6 * fit.uniform_machine.tl
        out["host.tw_ns"] = 1e9 * fit.uniform_machine.tw
        out["host.tq_ns"] = 1e9 * fit.machine.tq
        out["model.eq2_rel_residual_rms"] = fit.uniform_residual / mean_comm
        out["model.contended_rel_residual_rms"] = (
            fit.contended_residual / mean_comm
        )
        return out

    layer.guard(names, probe)
