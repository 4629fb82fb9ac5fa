"""Tests for ABFT silent-data-corruption detection and healing.

Covers the acceptance contract of the SDC subsystem (DESIGN.md §11):

* the checksum checker detects and blames a flipped kernel output, a
  flipped stiffness entry and a corrupt post-exchange partial,
* one inline recompute heals a transient bit-exactly, while a flipped
  stiffness entry and a sticky (bad-core) PE fail it and escalate
  through the resilience ladder to eviction,
* an exchange-check failure is retried by the supervisor to the
  fault-free step,
* rate-0 / ABFT-off paths stay bit-identical to the seed executor,
* the recovery-budget deadline raises a typed error,
* the timestepper growth guard and blamed-context error payloads,
* the BSP model's T_verify term and the trace round-trip,
* a hypothesis property: any single high-order bit-flip in a PE's
  product or stiffness is detected, on every backend.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultConfig,
    FaultInjector,
    NumericalFaultError,
    RecoveryDeadlineError,
    SdcFaultError,
    check_finite,
    verify_residual,
)
from repro.fem.assembly import assemble_lumped_mass, assemble_stiffness
from repro.fem.timestepper import ExplicitTimeStepper, stable_timestep
from repro.partition.base import partition_mesh
from repro.pipeline import Problem
from repro.resilience import RecoveryPolicy, SuperstepSupervisor, run_chaos
from repro.smvp import AbftChecker, SuperstepTrace, verify_flops_per_pe
from repro.smvp.backends import backend_names
from repro.smvp.executor import DistributedSMVP
from repro.telemetry.registry import MetricsRegistry, use_registry

PES = 4


@pytest.fixture(scope="module")
def demo_stiffness(demo_mesh, demo_materials):
    return assemble_stiffness(demo_mesh, demo_materials)


@pytest.fixture(scope="module")
def demo_partition(demo_mesh):
    return partition_mesh(demo_mesh, PES)


@pytest.fixture(scope="module")
def executors(demo_mesh, demo_partition, demo_materials):
    """One ABFT-armed executor per backend, shared by the module."""
    built = {
        name: DistributedSMVP(
            demo_mesh,
            demo_partition,
            demo_materials,
            backend=name,
            abft=True,
        )
        for name in backend_names()
    }
    yield built
    for smvp in built.values():
        smvp.close()


def _rng_x(mesh, seed=0):
    return np.random.default_rng(seed).standard_normal(3 * mesh.num_nodes)


# ---------------------------------------------------------------------------
# Checker-level detection


def test_clean_compute_passes_and_rate0_is_bit_identical(
    demo_mesh, demo_partition, demo_materials, executors
):
    plain = DistributedSMVP(demo_mesh, demo_partition, demo_materials)
    x = _rng_x(demo_mesh)
    try:
        reference = plain.multiply(x)
    finally:
        plain.close()
    for name, smvp in executors.items():
        assert np.array_equal(smvp.multiply(x), reference), name
        assert smvp.sdc_stats.detected_sdc == 0, name


def test_checker_blames_flipped_output(executors, demo_mesh):
    smvp = executors["serial"]
    checker = AbftChecker(smvp.local_matrices)
    x = _rng_x(demo_mesh)
    x_local = x.reshape(-1, 3)[smvp.local_nodes[1]].ravel()
    y = smvp._recompute(1, x_local)
    assert checker.check_compute(1, x_local, y).ok
    word = int(np.argmax(np.abs(y)))
    y[word] *= -1.0  # sign flip: the classic high-order SDC
    check = checker.check_compute(1, x_local, y)
    assert not check.ok
    assert check.error > check.tol


def test_exchange_check_catches_post_sum_corruption(executors, demo_mesh):
    smvp = executors["serial"]
    checker = AbftChecker(smvp.local_matrices)
    x = _rng_x(demo_mesh)
    x_local = x.reshape(-1, 3)[smvp.local_nodes[0]].ravel()
    y = smvp._recompute(0, x_local)
    pre = checker.check_compute(0, x_local, y)
    assert pre.ok
    incoming = np.random.default_rng(7).standard_normal(8)
    y_post = y.copy()
    y_post[:8] += incoming
    good = checker.check_exchange(
        0,
        y_post,
        pre.checksum,
        float(incoming.sum()),
        float(np.abs(incoming).sum()),
        incoming.size,
        x_local,
    )
    assert good.ok
    y_post[3] *= 4.0
    bad = checker.check_exchange(
        0,
        y_post,
        pre.checksum,
        float(incoming.sum()),
        float(np.abs(incoming).sum()),
        incoming.size,
        x_local,
    )
    assert not bad.ok


# ---------------------------------------------------------------------------
# Executor-level heal-in-place and escalation


def test_output_flip_detected_and_healed_bit_exactly(
    demo_mesh, demo_partition, demo_materials
):
    plain = DistributedSMVP(demo_mesh, demo_partition, demo_materials)
    smvp = DistributedSMVP(
        demo_mesh,
        demo_partition,
        demo_materials,
        injector=FaultInjector(FaultConfig(seed=5, flip_rate=1.0)),
        abft=True,
    )
    x = _rng_x(demo_mesh, seed=2)
    try:
        reference = plain.multiply(x)
        healed = smvp.multiply(x)
    finally:
        plain.close()
        smvp.close()
    assert np.array_equal(healed, reference)
    stats = smvp.sdc_stats
    assert stats.injected_sdc == stats.detected_sdc == PES
    assert stats.recomputed_sdc == PES
    assert stats.escaped_sdc == 0
    assert stats.sdc_contained
    assert {e.kind for e in smvp.sdc_events} == {"flip-y"}


@pytest.mark.parametrize("backend", sorted(backend_names()))
def test_flipped_stiffness_entry_fails_its_recompute(
    demo_mesh, demo_partition, demo_materials, backend
):
    """A wrong K entry poisons the main product and its one recompute
    alike: the PE escalates with the blame on it, nothing healed."""
    smvp = DistributedSMVP(
        demo_mesh, demo_partition, demo_materials, backend=backend, abft=True
    )
    try:
        blocks = smvp._states[1].blocks.reshape(-1)
        word = int(np.argmax(np.abs(blocks)))
        blocks.view(np.uint64)[word] ^= np.uint64(1) << np.uint64(62)
        with pytest.raises(SdcFaultError) as exc_info:
            smvp.multiply(_rng_x(demo_mesh))
    finally:
        smvp.close()
    err = exc_info.value
    assert (err.pe, err.phase, err.step) == (1, "compute", 0)
    assert [(e.pe, e.action) for e in smvp.sdc_events] == [
        (1, "detected"), (1, "recomputed"), (1, "detected"), (1, "escalated")
    ]
    assert smvp.sdc_stats.recomputed_sdc == 1


@pytest.mark.parametrize("backend", sorted(backend_names()))
def test_exchange_check_failure_is_retried_to_the_fault_free_step(backend):
    """A post-exchange partial corrupted after the sums fails the
    payload-sum check: the step raises with ``phase="exchange"``, and
    the supervisor's retry leaves the fault-free trajectory."""
    problem = Problem.from_instance("demo")
    force_at = problem.point_source()
    with problem.executor(PES, backend=backend) as plain:
        reference = problem.stepper(plain)
        reference.run(6, force_at=force_at)
        expect = reference.u, reference.u_prev
    failures = []
    with problem.executor(PES, backend=backend, abft=True) as smvp:
        stepper = problem.stepper(smvp)
        guard = smvp._guard
        check = guard.after_exchange

        def corrupt_once(x_locals, messages, y_locals):
            if stepper.step_index == 3 and not failures:
                y_locals[2][0] += 1.0
            try:
                return check(x_locals, messages, y_locals)
            except SdcFaultError as exc:
                failures.append(exc)
                raise

        guard.after_exchange = corrupt_once
        supervisor = SuperstepSupervisor(stepper)
        supervisor.run(6, force_at=force_at)
        got = stepper.u, stepper.u_prev
    (err,) = failures
    assert (err.pe, err.phase) == (2, "exchange")
    assert supervisor.retried_supersteps == 1
    assert np.array_equal(got[0], expect[0])
    assert np.array_equal(got[1], expect[1])


def test_without_abft_flips_escape_and_are_counted(
    demo_mesh, demo_partition, demo_materials
):
    smvp = DistributedSMVP(
        demo_mesh,
        demo_partition,
        demo_materials,
        injector=FaultInjector(FaultConfig(seed=5, flip_rate=1.0)),
        abft=False,
    )
    try:
        smvp.multiply(_rng_x(demo_mesh))
    finally:
        smvp.close()
    assert smvp.sdc_stats.injected_sdc == PES
    assert smvp.sdc_stats.escaped_sdc == PES
    assert not smvp.sdc_stats.sdc_contained


def test_sticky_pe_exhausts_recovery_and_blames_itself(
    demo_mesh, demo_partition, demo_materials
):
    smvp = DistributedSMVP(
        demo_mesh,
        demo_partition,
        demo_materials,
        injector=FaultInjector(FaultConfig(seed=1, sticky_pes=(2,))),
        abft=True,
    )
    try:
        with pytest.raises(SdcFaultError) as exc_info:
            smvp.multiply(_rng_x(demo_mesh))
    finally:
        smvp.close()
    assert exc_info.value.pe == 2
    assert exc_info.value.phase == "compute"
    assert exc_info.value.step == 0


# ---------------------------------------------------------------------------
# End-to-end chaos gates


def test_chaos_flip_run_heals_bit_identically():
    report = run_chaos(
        instance="demo", pes=6, steps=8, flip_rate=0.2, seed=3
    )
    assert report.abft
    assert report.sdc_injected > 0
    assert report.sdc_all_detected
    assert report.sdc_blame_correct
    assert report.clean_equivalent
    assert report.clean_max_abs_diff == 0.0
    assert report.passed


def test_chaos_sticky_pe_is_evicted_with_survivor_equivalence():
    report = run_chaos(
        instance="demo", pes=6, steps=8, sticky=(2,), sticky_from=2, seed=1
    )
    assert report.sticky_evicted
    assert report.num_pes_final == 5
    assert report.survivor_equivalent
    assert report.sdc_all_detected
    assert report.passed


@pytest.mark.parametrize(
    "chaos, evictions",
    [
        ({"sticky": (2,), "sticky_from": 2, "seed": 1}, 1),
        ({"flip_rate": 0.2, "seed": 3}, 0),
    ],
    ids=["sticky-core", "transient-flips"],
)
def test_sdc_runs_observe_no_histogram(chaos, evictions):
    """SDC telemetry is counters only: a sticky core's eviction counts
    once in the eviction counter, transient flips (each healed inline)
    evict nothing, and neither run observes an SDC histogram."""
    registry = MetricsRegistry()
    with use_registry(registry):
        report = run_chaos(instance="demo", pes=6, steps=8, **chaos)
    assert report.passed
    metrics = {m.name: m for m in registry.metrics()}
    evicted = metrics.get("repro_pe_evictions_total")
    assert (evicted.total if evicted else 0) == evictions
    assert metrics["repro_sdc_events_total"].total > 0
    assert not [
        name
        for name, metric in metrics.items()
        if name.startswith("repro_sdc_") and metric.kind == "histogram"
    ]


def test_recovery_budget_deadline_raises_typed_error(
    demo_mesh, demo_partition, demo_materials, demo_stiffness
):
    mass = assemble_lumped_mass(demo_mesh, demo_materials)
    dt = stable_timestep(demo_mesh, demo_materials)
    smvp = DistributedSMVP(
        demo_mesh,
        demo_partition,
        demo_materials,
        injector=FaultInjector(FaultConfig(seed=1, sticky_pes=(2,))),
        abft=True,
    )
    stepper = ExplicitTimeStepper(demo_stiffness, mass, dt, smvp=smvp)
    supervisor = SuperstepSupervisor(
        stepper,
        # Quarantine/evict far out of reach: the sticky PE keeps
        # failing, so the cumulative retry budget is what trips.
        policy=RecoveryPolicy(
            quarantine_after=50, evict_after=50, recovery_budget=3
        ),
    )
    force = np.zeros(3 * demo_mesh.num_nodes)
    force[:300] = 1e9
    try:
        with pytest.raises(RecoveryDeadlineError) as exc_info:
            supervisor.run(5, force_at=lambda t: force)
    finally:
        smvp.close()
    assert exc_info.value.budget == 3
    assert exc_info.value.retried > 3


# ---------------------------------------------------------------------------
# Guards, blame payloads, model and trace plumbing


def test_timestepper_growth_guard(
    demo_mesh, demo_materials, demo_stiffness
):
    mass = assemble_lumped_mass(demo_mesh, demo_materials)
    dt = stable_timestep(demo_mesh, demo_materials)
    force = np.zeros(3 * demo_mesh.num_nodes)
    force[:300] = 1e9
    loose = ExplicitTimeStepper(
        demo_stiffness, mass, dt, guard_growth=1e9
    )
    loose.run(4, force_at=lambda t: force)
    tight = ExplicitTimeStepper(
        demo_stiffness, mass, dt, guard_growth=1.0 + 1e-9
    )
    with pytest.raises(NumericalFaultError) as exc_info:
        tight.run(4, force_at=lambda t: force)
    assert exc_info.value.phase == "timestep"
    assert exc_info.value.step is not None
    with pytest.raises(ValueError):
        ExplicitTimeStepper(demo_stiffness, mass, dt, guard_growth=0.5)


def test_blamed_context_on_detection_helpers():
    bad = np.array([1.0, np.nan])
    with pytest.raises(NumericalFaultError) as exc_info:
        check_finite(bad, "y", pe=3, step=7, phase="compute")
    err = exc_info.value
    assert (err.pe, err.step, err.phase) == (3, 7, "compute")
    assert "PE 3" in err.blame() and "superstep 7" in err.blame()
    with pytest.raises(NumericalFaultError) as exc_info:
        verify_residual(
            np.ones(4), np.zeros(4), pe=1, step=2, phase="exchange"
        )
    assert exc_info.value.blame() == "PE 1, superstep 2, phase exchange"


def test_trace_t_verify_roundtrip_and_abft_timing(
    demo_mesh, demo_partition, demo_materials
):
    original = SuperstepTrace(
        t_comp=1.0,
        t_comm=0.5,
        t_smvp=1.6,
        step=1,
        kernel="csr",
        backend="serial",
        t_scatter=0.05,
        t_gather=0.05,
        words_sent=np.array([3, 4]),
        blocks_sent=np.array([1, 1]),
        t_verify=0.25,
    )
    trace = SuperstepTrace.from_dict(original.to_dict())
    assert trace.t_verify == 0.25
    # Legacy records without the field default to zero.
    legacy = original.to_dict()
    legacy.pop("t_verify")
    assert SuperstepTrace.from_dict(legacy).t_verify == 0.0


def test_bsp_simulator_charges_t_verify(demo_mesh, demo_partition):
    from repro.model.machine import CRAY_T3E
    from repro.simulate.bsp import BspSimulator
    from repro.smvp.distribution import DataDistribution
    from repro.smvp.schedule import CommSchedule

    dist = DataDistribution(demo_mesh, demo_partition)
    schedule = CommSchedule(dist)
    flops = dist.local_counts["flops"].astype(np.float64)
    verify = verify_flops_per_pe(dist, schedule)
    assert verify.shape == (PES,)
    assert (verify > 0).all()
    bare = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
    armed = BspSimulator(
        flops, schedule, CRAY_T3E, abft_flops_per_pe=verify
    ).run("barrier")
    assert bare.t_verify == 0.0
    assert armed.t_verify > 0.0
    assert armed.t_smvp > bare.t_smvp
    injector = FaultInjector(FaultConfig(seed=0, flip_rate=0.5))
    faulty = BspSimulator(
        flops,
        schedule,
        CRAY_T3E,
        injector=injector,
        abft_flops_per_pe=verify,
    ).run("barrier", step=0)
    assert faulty.faults is not None
    assert faulty.faults.injected_sdc > 0
    assert faulty.faults.detected_sdc == faulty.faults.injected_sdc
    assert faulty.faults.escaped_sdc == 0


# ---------------------------------------------------------------------------
# Property: any single high-order flip in any local array is detected


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    backend=st.sampled_from(sorted(backend_names())),
    kind=st.sampled_from(["y", "k"]),
    pe=st.integers(min_value=0, max_value=PES - 1),
    site=st.integers(min_value=0, max_value=2**32 - 1),
    x_seed=st.integers(min_value=0, max_value=7),
)
def test_any_single_bit_flip_is_detected(
    executors, demo_mesh, backend, kind, pe, site, x_seed
):
    """One flip, drawn by the injector's own site model, in the local
    output or stiffness of any PE on any backend: the per-PE checksum
    check must fail.  A stiffness flip is applied as its rank-1 effect
    ``y[row] += (new - old) * x[col]``, read off scipy's CSR."""
    smvp = executors[backend]
    checker = AbftChecker(smvp.local_matrices)
    injector = FaultInjector(FaultConfig(seed=site, flip_rate=1.0))
    x = _rng_x(demo_mesh, seed=x_seed)
    x_local = x.reshape(-1, 3)[smvp.local_nodes[pe]].ravel()
    y = smvp._recompute(pe, x_local)
    if kind == "y":
        injector.flip_sdc(y, pe, step=0)
    else:
        matrix = smvp.local_matrix(pe)
        importance = np.abs(matrix.data) * np.abs(x_local[matrix.indices])
        if float(importance.max()) <= 0.0:
            return  # a zero-effect flip is a bitwise no-op by design
        word, bit = injector.sdc_site(importance, pe, step=0)
        old = float(matrix.data[word])
        flipped = np.array([old])
        flipped.view(np.uint64)[0] ^= np.uint64(1) << np.uint64(bit)
        row = int(np.searchsorted(matrix.indptr, word, side="right") - 1)
        col = int(matrix.indices[word])
        y[row] += (float(flipped[0]) - old) * x_local[col]
    with np.errstate(invalid="ignore", over="ignore"):
        check = checker.check_compute(pe, x_local, y)
    assert not check.ok
