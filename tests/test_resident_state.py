"""The resident time loop over an executor against the one-slice one,
bit for bit.

With an executor, guarded or not, the stepper keeps
``u``, ``u_prev`` and the product in the executor's per-PE buffer form:
a step is compute → exchange → the update on every dof's owner row →
the owner rows copied over the other copies, with no scatter and no
gather.  Every test here runs that beside the same executor behind a
plain callable, which the stepper runs on its one-slice layout (every
row its own owner), and asserts ``np.array_equal`` on the state and
``==`` on both diagnostics.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultInjector
from repro.fem.timestepper import ExplicitTimeStepper
from repro.partition.base import Partition
from repro.pipeline import Problem
from repro.resilience import SuperstepSupervisor
from repro.smvp.layout import SuperstepLayout

STEPS = 6
INSTANCES = ("demo", "sf10e", "sf5e")
PES = (1, 2, 3, 8, 64)
WIDTHS = (1, 3, 16, 17)
#: Every (instance, p, r) of the matrix; the damping and the force
#: rotate through the cases, so each instance and width meets each.
GRID = [(i, p, r) for i in INSTANCES for p in PES for r in WIDTHS]
DAMPINGS = ("scalar", "vector")
FORCES = ("none", "broadcast", "full")


@pytest.fixture(scope="module")
def problems():
    made = {}

    def get(name):
        if name not in made:
            made[name] = Problem.from_instance(name)
        return made[name]

    return get


@pytest.fixture(scope="module")
def executors(problems):
    """``get(instance, p, backend, fault_rate)``: one executor each,
    built once and closed at the end of the module."""
    made = {}

    def get(name, pes, backend="serial", fault_rate=0.0):
        key = (name, pes, backend, fault_rate)
        if key not in made:
            made[key] = problems(name).executor(
                pes, backend=backend, fault_rate=fault_rate, seed=3
            )
        return made[key]

    yield get
    for smvp in made.values():
        smvp.close()


def damping_of(problem, kind):
    if kind == "scalar":
        return 0.3
    n = 3 * problem.mesh.num_nodes
    return np.random.default_rng(5).random(n)


def forces_of(problem, kind, rhs, steps=STEPS):
    """``steps`` forcing arguments: ``None``, one (3n,) force (broadcast
    to every column when ``rhs > 1``) or a (3n, rhs) block."""
    if kind == "none":
        return [None] * steps
    source = problem.point_source()
    dt = problem.dt
    forces = [source(k * dt) for k in range(steps)]
    if kind == "full" and rhs > 1:
        scale = np.arange(1.0, rhs + 1.0)
        forces = [f[:, None] * scale for f in forces]
    return forces


def one_slice(stepper):
    """Whether ``stepper``'s state is on its one-slice layout."""
    return list(stepper._layout.offsets) == [0, stepper.mass.size]


def pair(problem, smvp, rhs, damping):
    """(the stepper over ``smvp``, the one over a callable of it)."""
    resident, reference = (
        ExplicitTimeStepper(
            None, problem.mass, problem.dt, damping_alpha=damping,
            smvp=operator, rhs=rhs,
        )
        for operator in (smvp, lambda x: smvp.multiply(x))
    )
    assert resident._layout is smvp.layout
    assert one_slice(reference)
    return resident, reference


def refused_to_move(*args, **kwargs):
    raise AssertionError("the resident loop scattered or gathered")


def assert_same_steps(resident, reference, forces, reset=None):
    """Step both through ``forces``; ``reset`` rewinds the executor's
    superstep counter before each run (fault draws key on it)."""
    runs = []
    for stepper in (resident, reference):
        if reset is not None:
            reset()
        runs.append([stepper.step(f) for f in forces])
    for mine, theirs in zip(*runs):
        assert mine.max_displacement == theirs.max_displacement
        assert mine.kinetic_proxy == theirs.kinetic_proxy
    assert np.array_equal(resident.u, reference.u)
    assert np.array_equal(resident.u_prev, reference.u_prev)
    assert np.any(resident.u != 0.0) or forces[0] is None


@pytest.mark.parametrize(
    "name, pes, rhs", GRID, ids=[f"{i}-p{p}-r{r}" for i, p, r in GRID]
)
def test_resident_matches_global(problems, executors, name, pes, rhs):
    case = GRID.index((name, pes, rhs))
    problem = problems(name)
    smvp = executors(name, pes)
    damping = damping_of(problem, DAMPINGS[case % 2])
    forces = forces_of(problem, FORCES[case % 3], rhs)
    resident, reference = pair(problem, smvp, rhs, damping)
    # A state that is not zero, so the update's every term counts.
    rng = np.random.default_rng(case)
    u = 1e-9 * rng.standard_normal(resident._shape)
    u_prev = 1e-9 * rng.standard_normal(resident._shape)
    for stepper in (resident, reference):
        stepper.set_state(u, u_prev, 0)
    assert_same_steps(resident, reference, forces)


@pytest.mark.parametrize("rhs", [1, 17])
@pytest.mark.parametrize("name, pes", [("demo", 3), ("sf10e", 8)])
def test_threaded_backend(problems, executors, name, pes, rhs):
    problem = problems(name)
    smvp = executors(name, pes, backend="threaded")
    resident, reference = pair(problem, smvp, rhs, 0.3)
    assert_same_steps(resident, reference, forces_of(problem, "broadcast", rhs))


@pytest.mark.parametrize("rhs", [1, 16])
def test_exchange_injector(problems, executors, rhs):
    problem = problems("demo")
    smvp = executors("demo", 8, fault_rate=0.2)
    resident, reference = pair(problem, smvp, rhs, damping_of(problem, "vector"))
    forces = forces_of(problem, "full", rhs)
    assert_same_steps(
        resident, reference, forces, reset=lambda: smvp.reset_superstep(0)
    )
    assert smvp.transport_stats.retransmits > 0


def test_rebind_executor_callable_executor_mid_run(problems, executors):
    """executor → plain callable → executor: the state leaves the buffer
    form and comes back, and the run is the uninterrupted one."""
    problem = problems("sf10e")
    smvp = executors("sf10e", 8)
    forces = forces_of(problem, "broadcast", 3, steps=12)
    switched, reference = pair(problem, smvp, 3, 0.3)
    plain = reference.smvp
    for k, force in enumerate(forces):
        if k == 4:
            switched.rebind_smvp(plain)
            assert one_slice(switched)
        if k == 8:
            switched.rebind_smvp(smvp)
            assert switched._layout is smvp.layout
        mine, theirs = switched.step(force), reference.step(force)
        assert mine.max_displacement == theirs.max_displacement
        assert mine.kinetic_proxy == theirs.kinetic_proxy
    assert np.array_equal(switched.u, reference.u)
    assert np.array_equal(switched.u_prev, reference.u_prev)


def test_rebinding_the_same_executor_moves_nothing(problems, executors):
    problem = problems("demo")
    smvp = executors("demo", 3)
    stepper = problem.stepper(smvp)
    stepper.step(problem.point_source()(0.0))
    held = stepper._u, stepper._u_prev, stepper._spare
    stepper.rebind_smvp(smvp)
    assert (stepper._u, stepper._u_prev, stepper._spare) == held


def test_supervisor_eviction_matches_uninterrupted_run(problems):
    """A PE evicted at step 5 of a resident run: the state moves onto the
    survivors' layout and the run equals a global-path run that swapped
    the P-PE product for the survivors' at the same step."""
    problem = problems("demo")
    force = problem.point_source()
    steps, kill_at = 12, 5
    smvp = problem.executor(6)
    stepper = problem.stepper(smvp)
    supervisor = SuperstepSupervisor(stepper, kill_schedule={kill_at: 2})
    try:
        report = supervisor.run(steps, force_at=force)
    finally:
        stepper.smvp.close()
    [event] = report.evictions
    assert event.superstep == kill_at
    assert stepper._layout is stepper.smvp.layout  # resident on survivors

    point = report.resume_points[-1]
    before = problem.executor(6)
    after = problem.executor(
        Partition(point.partition_parts.copy(), point.num_parts, "resume")
    )
    try:
        reference = problem.stepper(lambda x: before.multiply(x))
        for k in range(steps):
            if k == kill_at:
                reference.rebind_smvp(lambda x: after.multiply(x))
            reference.step(force(reference.time))
    finally:
        before.close()
        after.close()
    assert np.array_equal(stepper.u, reference.u)
    assert np.array_equal(stepper.u_prev, reference.u_prev)


def test_loop_runs_without_scatter_or_gather(problems, executors, monkeypatch):
    problem = problems("demo")
    smvp = executors("demo", 8)
    stepper = problem.stepper(smvp, rhs=3)
    reference = problem.stepper(lambda x: smvp.multiply(x), rhs=3)
    reference.run(20, force_at=problem.point_source())

    with monkeypatch.context() as patched:
        for name in ("scatter", "scatter_into", "gather"):
            patched.setattr(SuperstepLayout, name, refused_to_move)
        records, seismograms = stepper.run(
            20, force_at=problem.point_source(), record_nodes=[0, 5]
        )
    assert len(records) == 20
    assert np.array_equal(stepper.u, reference.u)
    dofs = np.array([0, 1, 2, 15, 16, 17])
    assert np.array_equal(seismograms[-1].reshape(6, 3), reference.u[dofs])


def test_supervised_loop_shadows_without_gathering(
    problems, executors, monkeypatch
):
    """A supervised step's shadow capture reads the shadowed rows from
    the owner rows; nothing is scattered or gathered."""
    problem = problems("demo")
    smvp = executors("demo", 8)
    stepper = problem.stepper(smvp, rhs=3)
    supervisor = SuperstepSupervisor(stepper)
    with monkeypatch.context() as patched:
        for name in ("scatter", "scatter_into", "gather"):
            patched.setattr(SuperstepLayout, name, refused_to_move)
        supervisor.run(5, force_at=problem.point_source())
    u, u_prev = stepper.u, stepper.u_prev
    for pe in range(smvp.num_parts):
        segment = supervisor.shadow.segment(pe, 5)
        assert np.array_equal(segment.u, u[segment.dofs])
        assert np.array_equal(segment.u_prev, u_prev[segment.dofs])


@pytest.mark.parametrize("kind", ["executor", "matrix", "callable"])
def test_state_reads_are_read_only(problems, executors, kind):
    """Reads are read-only: gathered copies over an executor, views of
    the state buffer on the one-slice layout; assignment loads the
    value into every copy of each dof."""
    problem = problems("demo")
    smvp = executors("demo", 3)
    operator = {
        "executor": smvp,
        "matrix": None,
        "callable": lambda x: smvp.multiply(x),
    }[kind]
    stepper = problem.stepper(operator)
    stepper.run(3, force_at=problem.point_source())
    u = stepper.u
    assert np.array_equal(u, stepper.u)
    # An executor gathers a fresh copy at every read; a one-slice read
    # is the state buffer itself.
    assert (u is not stepper.u) == (kind == "executor")
    assert np.shares_memory(u, stepper._u.whole) == (kind != "executor")
    with pytest.raises(ValueError, match="read-only"):
        u[0] = 1.0
    loaded = np.arange(u.size, dtype=np.float64)
    stepper.u = loaded
    assert np.array_equal(stepper.u, loaded)
    rows = smvp.layout.rows_cat if kind == "executor" else slice(None)
    assert np.array_equal(stepper._u.whole, loaded[rows])
    with pytest.raises(ValueError, match="shape"):
        stepper.u_prev = loaded[:-1]


@pytest.mark.parametrize("kind", ["executor", "matrix", "callable"])
def test_a_load_ends_a_one_slice_read(problems, executors, kind):
    """A one-slice read is valid until the next load: swapping the pair
    by assignment leaves both the old ``u_prev`` there (the first
    assignment overwrote the ``u`` view), and swaps over an executor;
    ``set_state`` swaps on every layout."""
    problem = problems("demo")
    smvp = executors("demo", 3)
    operator = {
        "executor": smvp,
        "matrix": None,
        "callable": lambda x: smvp.multiply(x),
    }[kind]
    stepper = problem.stepper(operator)
    stepper.run(3, force_at=problem.point_source())
    u, u_prev = stepper.u.copy(), stepper.u_prev.copy()
    assert not np.array_equal(u, u_prev)
    stepper.set_state(stepper.u_prev, stepper.u, stepper.step_index)
    assert np.array_equal(stepper.u, u_prev)
    assert np.array_equal(stepper.u_prev, u)
    stepper.set_state(u, u_prev, stepper.step_index)
    stepper.u, stepper.u_prev = stepper.u_prev, stepper.u
    assert np.array_equal(stepper.u, u_prev)
    expected = u if kind == "executor" else u_prev
    assert np.array_equal(stepper.u_prev, expected)


@pytest.mark.parametrize("rhs", [1, 16])
def test_one_slice_reads_allocate_no_state(problems, rhs):
    problem = problems("demo")
    stepper = problem.stepper(rhs=rhs)
    stepper.run(2, force_at=problem.point_source())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(10):
            assert stepper.u.shape == stepper.u_prev.shape
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < stepper.u.nbytes / 4


@pytest.mark.parametrize("extra", [3, -3])
def test_an_operator_of_another_size_is_refused_when_bound(
    problems, executors, extra
):
    """A mass vector 3 dofs longer or shorter than the executor's
    layout: a ``ValueError`` naming both counts at construction and
    at rebind, and a failed rebind changes nothing."""
    problem = problems("demo")
    smvp = executors("demo", 2)
    n = problem.mass.size + extra
    message = f"the SMVP has {problem.mass.size} dofs; the stepper has {n}"
    with pytest.raises(ValueError, match=message):
        ExplicitTimeStepper(None, np.ones(n), problem.dt, smvp=smvp)
    stepper = ExplicitTimeStepper(
        None, np.ones(n), problem.dt, smvp=lambda x: 2.0 * x
    )
    stepper.step(np.ones(n))
    operator, layout = stepper.smvp, stepper._layout
    held = stepper._u, stepper._u_prev, stepper._spare
    u, u_prev = stepper.u.copy(), stepper.u_prev.copy()
    with pytest.raises(ValueError, match=message):
        stepper.rebind_smvp(smvp)
    assert stepper.smvp is operator and stepper._layout is layout
    assert (stepper._u, stepper._u_prev, stepper._spare) == held
    assert np.array_equal(stepper.u, u)
    assert np.array_equal(stepper.u_prev, u_prev)
    stepper.step(np.ones(n))  # and it steps on


def test_rebinding_one_callable_for_another_moves_nothing(problems):
    problem = problems("demo")
    stepper = problem.stepper()
    stepper.step(problem.point_source()(0.0))
    held = stepper._u, stepper._u_prev, stepper._spare
    stepper.rebind_smvp(lambda x: problem.stiffness @ x)
    assert (stepper._u, stepper._u_prev, stepper._spare) == held


@pytest.mark.parametrize("rhs", [1, 16])
@pytest.mark.parametrize("backend", ["serial", "threaded"])
def test_guarded_executor_is_resident(problems, monkeypatch, backend, rhs):
    """An ABFT executor keeps the state on its PEs: 20 demo steps with
    every PE's product flipped each step, and healed inline, are the
    unguarded resident run bit for bit — state, peaks, seismograms."""
    problem = problems("demo")
    nodes = np.arange(0, problem.mesh.num_nodes, 97)
    flips = FaultInjector(FaultConfig(seed=2, flip_rate=1.0))
    runs = []
    for options in ({}, {"abft": True, "injector": flips}):
        with problem.executor(4, backend=backend, **options) as smvp:
            stepper = problem.stepper(smvp, rhs=rhs)
            assert stepper._layout is smvp.layout
            with monkeypatch.context() as patched:
                for name in ("scatter", "scatter_into", "gather"):
                    patched.setattr(SuperstepLayout, name, refused_to_move)
                records, seis = stepper.run(
                    20, force_at=problem.point_source(), record_nodes=nodes
                )
            runs.append(
                (
                    stepper.u,
                    stepper.u_prev,
                    [r.max_displacement for r in records],
                    seis,
                )
            )
            stats = smvp.sdc_stats
    (u, u_prev, peaks, seis), guarded = runs
    assert stats.injected_sdc == stats.detected_sdc == 4 * 20
    assert stats.recomputed_sdc == 4 * 20 and stats.escaped_sdc == 0
    assert np.array_equal(guarded[0], u)
    assert np.array_equal(guarded[1], u_prev)
    assert guarded[2] == peaks and peaks[-1] > 0.0
    assert np.array_equal(guarded[3], seis)


def test_owner_row_copy_is_the_fancy_index(executors):
    """``copy_from_owners`` (``copy_rows`` in ``nodal.c``) leaves what
    ``whole[copy_dst] = whole[copy_src]`` leaves, for a vector and a
    block."""
    layout = executors("sf10e", 8).layout
    rows = int(layout.offsets[-1])
    rng = np.random.default_rng(0)
    for tail in ((), (3,), (17,)):
        whole = rng.standard_normal((rows,) + tail)
        expect = whole.copy()
        expect[layout.copy_dst] = expect[layout.copy_src]
        layout.copy_from_owners(whole)
        assert np.array_equal(whole, expect)
