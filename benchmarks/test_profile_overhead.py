"""Profiler overhead smoke: profile-off must stay (nearly) free.

The profiler's disabled cost on the hot path is one ``is None`` test
per phase — ``profile=False`` executors never construct a recorder and
never read extra clocks.  This bench times ``multiply`` on the 8-PE
sf10e instance three ways — a manually inlined phase sequence that
bypasses the instrumented wrapper (the pre-instrumentation
equivalent), the profile-off executor, and the profile-on executor
with a trace sink attached — and gates the profile-off median at
``MAX_OFF_OVERHEAD`` over the bypass.  Results (including the
profile-on blame buckets) are archived under
``benchmarks/output/BENCH_profile.json``.
"""

import json
from pathlib import Path
from statistics import median

import numpy as np

from repro.fem.material import materials_from_model
from repro.mesh.instances import get_instance
from repro.partition.base import partition_mesh
from repro.profile import build_report
from repro.smvp.executor import DistributedSMVP
from repro.smvp.trace import TraceLog
from repro.util.clock import now

OUTPUT_DIR = Path(__file__).parent / "output"

INSTANCE = "sf10e"
PES = 8
REPS = 9

#: Allowed ratio of the profile-off median over the bypass median.
#: The acceptance bound: disabled profiling may cost at most 10%.
MAX_OFF_OVERHEAD = 1.1


def _median_time(fn, x):
    fn(x)  # warmup
    samples = []
    for _ in range(REPS):
        t0 = now()
        fn(x)
        samples.append(now() - t0)
    return median(samples)


def _bypass_multiply(smvp):
    """The superstep with no instrumentation wrapper at all: the phases
    ``multiply`` runs, on the layout's own buffers (the compute phase
    reads the scattered slices in place, one compiled range call)."""

    def run(x):
        x_locals = smvp.scatter(x)
        y_locals = smvp.compute_phase(x_locals)
        y_locals, _record = smvp.communication_phase(y_locals)
        return smvp.gather(y_locals)

    return run


def test_profile_off_overhead_is_bounded():
    inst = get_instance(INSTANCE)
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    partition = partition_mesh(mesh, PES, seed=0)
    x = np.random.default_rng(0).standard_normal(3 * mesh.num_nodes)

    with DistributedSMVP(mesh, partition, materials) as smvp_off:
        t_bypass = _median_time(_bypass_multiply(smvp_off), x)
        t_off = _median_time(smvp_off.multiply, x)
        y_off = smvp_off.multiply(x)

    log = TraceLog()
    with DistributedSMVP(
        mesh, partition, materials, trace_sink=log, profile=True
    ) as smvp_on:
        t_on = _median_time(smvp_on.multiply, x)
        y_on = smvp_on.multiply(x)

    report = build_report(log)
    ratio = t_off / t_bypass
    payload = {
        "instance": INSTANCE,
        "pes": PES,
        "repetitions": REPS,
        "t_bypass_s": t_bypass,
        "t_profile_off_s": t_off,
        "t_profile_on_s": t_on,
        "off_over_bypass": ratio,
        "on_over_bypass": t_on / t_bypass,
        "buckets": dict(report.buckets),
        "identity_max_err": report.identity_max_err,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_profile.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # Profiling must never change the numbers, on or off.
    assert np.array_equal(y_off, y_on)
    assert report.identity_max_err <= 1e-9
    assert ratio < MAX_OFF_OVERHEAD, (
        f"profile-off multiply is {ratio:.3f}x the bypass path "
        f"({t_off:.3e}s vs {t_bypass:.3e}s)"
    )
