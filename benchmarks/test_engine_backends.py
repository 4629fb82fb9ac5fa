"""Execution-backend smoke bench: threaded vs serial superstep engine.

Times the compute phase and the full superstep for each execution
backend on the 8-PE sf10e instance and archives per-backend T_f and
superstep times under ``benchmarks/output/BENCH_engine.json``.  The
backends must agree bit for bit everywhere; the threaded compute phase
must actually beat serial only on hosts with at least four cores.  On
one core nothing can honestly speed up, and on a 2-vCPU host the
pool's hand-offs outweigh the second core (measured 0.77-0.82x); the
speed-up is recorded either way.
"""

import json
import os
from pathlib import Path

import numpy as np

from repro.fem.material import materials_from_model
from repro.mesh.instances import get_instance
from repro.partition.base import partition_mesh
from repro.smvp.backends import backend_names
from repro.smvp.executor import DistributedSMVP
from repro.util.clock import now

OUTPUT_DIR = Path(__file__).parent / "output"

INSTANCE = "sf10e"
PES = 8
REPS = 3


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _time_backend(mesh, materials, partition, x, backend):
    with DistributedSMVP(
        mesh, partition, materials, backend=backend
    ) as ds:
        x_locals = ds.scatter(x)
        flops = int(ds.flops_per_pe().sum())
        ds.compute_phase(x_locals)  # warmup (spins up any pool)
        t0 = now()
        for _ in range(REPS):
            ds.compute_phase(x_locals)
        t_comp = (now() - t0) / REPS
        ds.multiply(x)
        t0 = now()
        for _ in range(REPS):
            ds.multiply(x)
        t_smvp = (now() - t0) / REPS
        y = ds.multiply(x)
    record = {
        "t_comp_s": t_comp,
        "t_smvp_s": t_smvp,
        "tf_ns": 1e9 * t_comp / flops,
        "flops_per_smvp": flops,
    }
    return record, y


def test_engine_backend_smoke():
    inst = get_instance(INSTANCE)
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    partition = partition_mesh(mesh, PES, seed=0)
    x = np.random.default_rng(0).standard_normal(3 * mesh.num_nodes)

    results = {}
    ys = {}
    for backend in sorted(backend_names()):
        results[backend], ys[backend] = _time_backend(
            mesh, materials, partition, x, backend
        )

    cores = _cores()
    speedup = results["serial"]["t_comp_s"] / results["threaded"]["t_comp_s"]
    payload = {
        "instance": INSTANCE,
        "pes": PES,
        "repetitions": REPS,
        "cores": cores,
        "backends": results,
        "threaded_compute_speedup": speedup,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    for backend in sorted(backend_names()):
        assert np.array_equal(ys[backend], ys["serial"])
    if cores >= 4:
        # Scipy's matvec releases the GIL, so with cores to spare the
        # thread pool must win the compute phase.
        assert speedup > 1.0, f"threaded speedup {speedup:.2f}x on {cores} cores"
