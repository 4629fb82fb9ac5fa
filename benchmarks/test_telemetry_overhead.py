"""Telemetry overhead smoke: the no-registry hot path must stay free.

The instrumented executor's disabled-telemetry cost is one module-level
global load plus an ``is None`` test per superstep (and per compute
phase).  This bench times ``multiply`` on the 8-PE sf10e instance three
ways — no registry, a manually inlined phase sequence that bypasses
the instrumented ``multiply`` wrapper entirely (the pre-instrumentation
equivalent), and with a registry installed — and asserts the
no-registry median stays within noise of the bypass path.  Results are
archived under ``benchmarks/output/BENCH_telemetry_overhead.json``.
"""

import json
from pathlib import Path
from statistics import median

import numpy as np

from repro.fem.material import materials_from_model
from repro.mesh.instances import get_instance
from repro.partition.base import partition_mesh
from repro.smvp.executor import DistributedSMVP
from repro.telemetry import MetricsRegistry, use_registry
from repro.util.clock import now

OUTPUT_DIR = Path(__file__).parent / "output"

INSTANCE = "sf10e"
PES = 8
REPS = 7

#: Allowed ratio of the no-registry median over the bypass median.  The
#: real overhead is nanoseconds against a ~millisecond superstep; 1.5x
#: absorbs scheduler noise on busy CI hosts without hiding a regression
#: that moved real work onto the disabled path.
MAX_DISABLED_OVERHEAD = 1.5


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


def test_disabled_telemetry_is_free():
    inst = get_instance(INSTANCE)
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    partition = partition_mesh(mesh, PES, seed=0)
    x = np.random.default_rng(0).standard_normal(3 * mesh.num_nodes)

    with DistributedSMVP(mesh, partition, materials) as smvp:
        t_bypass = _median_time(_bypass_multiply(smvp), x)
        t_disabled = _median_time(smvp.multiply, x)
        with use_registry(MetricsRegistry()):
            t_enabled = _median_time(smvp.multiply, x)
        y_plain = smvp.multiply(x)
        with use_registry(MetricsRegistry()):
            y_metered = smvp.multiply(x)

    ratio = t_disabled / t_bypass
    payload = {
        "instance": INSTANCE,
        "pes": PES,
        "repetitions": REPS,
        "t_bypass_s": t_bypass,
        "t_disabled_s": t_disabled,
        "t_enabled_s": t_enabled,
        "disabled_over_bypass": ratio,
        "enabled_over_bypass": t_enabled / t_bypass,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_telemetry_overhead.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # Telemetry must never change the numbers, on or off.
    assert np.array_equal(y_plain, y_metered)
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"disabled-telemetry multiply is {ratio:.2f}x the bypass path "
        f"({t_disabled:.3e}s vs {t_bypass:.3e}s)"
    )
