"""The allocation-free time step against the formula it replaced.

``ExplicitTimeStepper.step`` builds the new state in place: one compiled
pass.  The whole-array expression it replaced lives on here, verbatim,
as :class:`FormulaStepper` — the update's specification and the oracle
every test compares against with ``np.array_equal``.  The core classes
run on the pass and on its numpy specification,
``ExplicitTimeStepper._update_numpy`` (``path`` = ``compiled`` /
``numpy``).
"""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.errors import (
    ExchangeFaultError,
    NumericalFaultError,
    SdcFaultError,
)
from repro.fem import assemble_lumped_mass, assemble_stiffness
from repro.fem.timestepper import ExplicitTimeStepper, stable_timestep
from repro.partition.base import partition_mesh
from repro.smvp.executor import DistributedSMVP

STEPS = 30


class FormulaStepper:
    """The update as one whole-array expression (the parent of the
    in-place walk, arithmetic and order untouched)."""

    def __init__(self, smvp, mass, dt, damping_alpha, rhs):
        self._smvp = smvp
        self.inv_mass = 1.0 / np.asarray(mass, dtype=np.float64)
        self.dt = float(dt)
        self.damping_alpha = np.asarray(damping_alpha, dtype=np.float64)
        self.rhs = rhs
        shape = (len(self.inv_mass), rhs) if rhs > 1 else (len(self.inv_mass),)
        self.u, self.u_prev = np.zeros(shape), np.zeros(shape)

    def step(self, force=None):
        dt = self.dt
        ku = self._smvp(self.u)
        if self.rhs > 1:
            f = 0.0
            if force is not None:
                force = np.asarray(force, dtype=np.float64)
                f = force[:, None] if force.ndim == 1 else force
            accel = self.inv_mass[:, None] * (f - ku)
            half = 0.5 * self.damping_alpha * dt
            if np.ndim(half) == 1:
                half = half[:, None]
        else:
            accel = self.inv_mass * (
                (force if force is not None else 0.0) - ku
            )
            half = 0.5 * self.damping_alpha * dt
        u_next = (
            2.0 * self.u - (1.0 - half) * self.u_prev + dt * dt * accel
        ) / (1.0 + half)
        self.u_prev = self.u
        self.u = u_next
        diff = self.u - self.u_prev
        if self.rhs > 1:
            kinetic = float(np.sum(diff * diff) / (dt * dt))
        else:
            kinetic = float((diff @ diff) / (dt * dt))
        return float(np.abs(self.u).max()), kinetic


@pytest.fixture(params=["compiled", "numpy"])
def path(request):
    """Steps run the compiled pass, or its numpy specification in its
    place."""
    if request.param == "numpy":
        with mock.patch.object(
            ExplicitTimeStepper, "_update", ExplicitTimeStepper._update_numpy
        ):
            yield request.param
        return
    yield request.param


def assert_same_run(stepper, oracle, forces):
    for force in forces:
        rec = stepper.step(force)
        peak, kinetic = oracle.step(force)
        assert np.array_equal(stepper.u, oracle.u)
        assert np.array_equal(stepper.u_prev, oracle.u_prev)
        assert rec.max_displacement == peak
        assert rec.kinetic_proxy == pytest.approx(kinetic, rel=1e-12)


def strided(a):
    """A copy of ``a`` as a view with a gap after every entry."""
    every_other = (slice(None, None, 2),) * a.ndim
    out = np.empty(tuple(2 * d for d in a.shape))[every_other]
    out[...] = a
    return out


def small_problem(n, seed):
    """A random sparse SPD stiffness, positive masses and a stable dt."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=0.1, random_state=rng, format="csr")
    stiffness = (a @ a.T + sp.identity(n)).tocsr()
    mass = 0.5 + rng.random(n)
    top = np.linalg.eigvalsh(stiffness.toarray() / mass[:, None]).max()
    return stiffness, mass, 1.0 / math.sqrt(top), rng


def make_forces(kind, n, rhs, rng):
    """``STEPS`` forcings of one form; ``strided`` ones are views with a
    gap between rows (and, for a block, between columns)."""
    out = []
    for _ in range(STEPS):
        if kind == "none":
            out.append(None)
        elif kind == "vector":
            out.append(rng.standard_normal(n))
        elif kind == "block":
            out.append(rng.standard_normal((n, rhs)))
        elif rhs == 1:
            out.append(rng.standard_normal(2 * n)[::2])
        else:
            out.append(rng.standard_normal((2 * n, 2 * rhs))[::2, ::2])
    return out


@pytest.fixture(scope="module")
def demo_problem(demo_mesh, demo_materials):
    return (
        assemble_stiffness(demo_mesh, demo_materials),
        assemble_lumped_mass(demo_mesh, demo_materials),
        stable_timestep(demo_mesh, demo_materials),
        partition_mesh(demo_mesh, 4, method="geometric", seed=0),
    )


@pytest.mark.usefixtures("path")
class TestMatchesTheFormula:
    # The fixture only patches a class attribute, the same for every
    # example.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rhs=st.sampled_from([1, 4]),
        damping=st.sampled_from(["zero", "scalar", "per-dof"]),
        force=st.sampled_from(["none", "vector", "block", "strided"]),
        seed=st.integers(0, 2**16),
    )
    def test_global_stiffness(self, rhs, damping, force, seed):
        n = 60
        stiffness, mass, dt, rng = small_problem(n, seed)
        if force == "block" and rhs == 1:
            force = "vector"
        alpha = {
            "zero": 0.0,
            "scalar": 0.3,
            "per-dof": rng.random(n),
        }[damping]
        stepper = ExplicitTimeStepper(
            stiffness, mass, dt, damping_alpha=alpha, rhs=rhs
        )
        oracle = FormulaStepper(
            lambda x: stiffness @ x, mass, dt, alpha, rhs
        )
        assert_same_run(stepper, oracle, make_forces(force, n, rhs, rng))

    @pytest.mark.parametrize("backend", ["serial", "overlap"])
    @pytest.mark.parametrize("rhs", [1, 4])
    def test_distributed_executor(
        self, demo_mesh, demo_materials, demo_problem, backend, rhs
    ):
        stiffness, mass, dt, partition = demo_problem
        n = stiffness.shape[0]
        rng = np.random.default_rng(7)
        forces = make_forces("block" if rhs > 1 else "vector", n, rhs, rng)
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, backend=backend
        ) as smvp:
            stepper = ExplicitTimeStepper(
                stiffness, mass, dt, damping_alpha=0.2, smvp=smvp, rhs=rhs
            )
            oracle = FormulaStepper(smvp.multiply, mass, dt, 0.2, rhs)
            assert_same_run(stepper, oracle, forces)
            # The state is resident: the product is the executor's own
            # y buffer, whose owner rows are K u.
            layout = smvp.layout
            product = np.take(layout._y.whole, layout.owner_pos, axis=0)
            assert np.array_equal(product, smvp.multiply(stepper.u_prev))

    def test_rebinding_executor_and_plain_callable_mid_run(
        self, demo_mesh, demo_materials, demo_problem
    ):
        # The bench's traced pass swaps the executor for a plain
        # callable wrapping it (the one-slice layout) and back, every
        # block of steps.
        stiffness, mass, dt, partition = demo_problem
        rhs, n = 4, stiffness.shape[0]
        forces = make_forces("block", n, rhs, np.random.default_rng(3))
        with DistributedSMVP(demo_mesh, partition, demo_materials) as smvp:
            stepper = ExplicitTimeStepper(
                stiffness, mass, dt, damping_alpha=0.2, smvp=smvp, rhs=rhs
            )
            oracle = FormulaStepper(smvp.multiply, mass, dt, 0.2, rhs)
            for k, force in enumerate(forces):
                if k % 3 == 0:
                    plain = (k // 3) % 2 == 1
                    stepper.rebind_smvp(
                        (lambda x: smvp.multiply(x)) if plain else smvp
                    )
                assert_same_run(stepper, oracle, [force])

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rhs=st.sampled_from([1, 2, 7, 8, 16, 17]),
        force=st.sampled_from(["none", "vector", "block", "strided"]),
        seed=st.integers(0, 2**16),
    )
    def test_strided_state_and_product(self, rhs, force, seed):
        # Widths below, at and past the pass's 8-entry tiles; per-dof
        # damping; a state assigned as strided views (copied into the
        # buffers) and a product returned strided by a plain callable
        # (copied once).
        n = 60
        stiffness, mass, dt, rng = small_problem(n, seed)
        if force == "block" and rhs == 1:
            force = "vector"
        alpha = rng.random(n)
        shape = (n, rhs) if rhs > 1 else (n,)

        def strided_product(x):
            return strided(stiffness @ x)

        stepper = ExplicitTimeStepper(
            stiffness, mass, dt, damping_alpha=alpha, smvp=strided_product,
            rhs=rhs,
        )
        oracle = FormulaStepper(lambda x: stiffness @ x, mass, dt, alpha, rhs)
        u, u_prev = (1e-3 * rng.standard_normal(shape) for _ in range(2))
        stepper.u, stepper.u_prev = strided(u), strided(u_prev)
        oracle.u, oracle.u_prev = u, u_prev
        assert_same_run(stepper, oracle, make_forces(force, n, rhs, rng))


class TestAllocatesNothing:
    def test_warm_steps_allocate_less_than_a_quarter_state(
        self, demo_mesh, demo_materials, demo_problem
    ):
        stiffness, mass, dt, partition = demo_problem
        rhs = 8
        force = np.zeros((stiffness.shape[0], rhs))
        force[30:33] = 1e9
        with DistributedSMVP(demo_mesh, partition, demo_materials) as smvp:
            stepper = ExplicitTimeStepper(
                stiffness, mass, dt, damping_alpha=0.2, smvp=smvp, rhs=rhs,
                check_finite=True, guard_growth=1e6,
            )
            for _ in range(5):  # every buffer of the rotation warm
                stepper.step(force)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                for _ in range(10):
                    stepper.step(force)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak - before < stepper.u.nbytes / 4


class TestStateOwnership:
    @pytest.fixture()
    def problem(self):
        stiffness, mass, dt, rng = small_problem(60, seed=11)
        return stiffness, mass, dt, make_forces("vector", 60, 1, rng)

    def test_reads_are_read_only_views_valid_until_the_next_step(
        self, problem
    ):
        stiffness, mass, dt, forces = problem
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        stepper.step(forces[0])
        held, kept = stepper.u, stepper.u.copy()
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 1.0
        stepper.step(forces[1])
        assert np.shares_memory(stepper.u_prev, held)
        assert np.array_equal(held, kept)
        stepper.step(forces[2])
        stepper.step(forces[3])
        assert np.shares_memory(stepper.u, held)  # the buffer came round
        assert not np.array_equal(held, kept)

    def test_assigning_a_held_array_back_keeps_working(self, problem):
        stiffness, mass, dt, forces = problem
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        oracle = FormulaStepper(lambda x: stiffness @ x, mass, dt, 0.0, 1)
        assert_same_run(stepper, oracle, forces[:3])
        held_u, held_prev = stepper.u_prev, stepper.u
        assert_same_run(stepper, oracle, forces[3:5])
        # The held reads are views of other steps' states by now (one
        # of them of ``u`` itself): assignment copies their values in.
        stepper.u, stepper.u_prev = held_u, held_prev[:]
        oracle.u, oracle.u_prev = held_u.copy(), held_prev.copy()
        assert_same_run(stepper, oracle, forces[5:])

    def test_set_state_copies_even_its_own_arrays(self, problem):
        stiffness, mass, dt, forces = problem
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        for force in forces[:4]:
            stepper.step(force)
        u, u_prev = stepper.u.copy(), stepper.u_prev.copy()
        stepper.set_state(stepper.u_prev, stepper.u, 9)  # swapped, aliased
        assert np.array_equal(stepper.u, u_prev)
        assert np.array_equal(stepper.u_prev, u)
        assert stepper.step_index == 9
        loaded = np.ones(60)
        stepper.set_state(loaded, loaded, 0)
        stepper.step(forces[4])
        stepper.step(forces[5])
        stepper.step(forces[6])
        assert np.array_equal(loaded, np.ones(60))  # never adopted

    def test_checkpoint_restore_goes_through_set_state(self, problem, tmp_path):
        from repro.faults.recovery import CheckpointManager

        stiffness, mass, dt, forces = problem
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        for force in forces[:5]:
            stepper.step(force)
        manager = CheckpointManager(tmp_path, interval=1)
        manager.save(stepper)
        checkpoint = manager.latest()
        other = ExplicitTimeStepper(stiffness, mass, dt)
        own_u, own_prev = other.u, other.u_prev
        checkpoint.restore(other)
        # Loaded into the stepper's own buffers.
        assert np.shares_memory(other.u, own_u)
        assert np.shares_memory(other.u_prev, own_prev)
        assert other.step_index == 5
        for force in forces[5:10]:
            stepper.step(force)
            other.step(force)
        assert np.array_equal(other.u, stepper.u)


@pytest.mark.usefixtures("path")
class TestNonFiniteStateIsReported:
    @pytest.mark.parametrize("rhs", [1, 17])
    @pytest.mark.parametrize("row", [3, 59])  # first row, last row
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_reaches_max_displacement(self, row, bad, rhs):
        # The bench counts a step whose max_displacement is not finite
        # as a failed operation; -inf in the new state is found by the
        # min half of the peak, +inf by the max half.
        stiffness, mass, dt, _ = small_problem(60, seed=5)
        stepper = ExplicitTimeStepper(stiffness, mass, dt, rhs=rhs)
        at = row if rhs == 1 else (row, rhs - 1)
        u_prev = np.zeros(stepper.u.shape)
        u_prev[at] = bad  # enters u_next[at] only
        stepper.u, stepper.u_prev = np.ones(u_prev.shape), u_prev
        rec = stepper.step()
        assert stepper.u[at] == -bad or math.isnan(bad)
        if math.isnan(bad):
            assert math.isnan(rec.max_displacement)
        else:
            assert rec.max_displacement == math.inf


class FlakyOperator:
    """``K @ x``, failing or corrupting one chosen call."""

    def __init__(self, stiffness, fail_on, failure):
        self.stiffness, self.fail_on, self.failure = stiffness, fail_on, failure
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        out = self.stiffness @ x
        if self.calls == self.fail_on:
            if isinstance(self.failure, Exception):
                raise self.failure
            out[0] = self.failure
        return out


@pytest.mark.usefixtures("path")
class TestFailedStepLeavesTheStateAlone:
    FAILURES = {
        "exchange-fault": (ExchangeFaultError("lost block"), ExchangeFaultError),
        "sdc-fault": (SdcFaultError("checksum mismatch"), SdcFaultError),
        "check-finite": (np.nan, NumericalFaultError),
        "guard-growth": (1e100, NumericalFaultError),
    }

    @pytest.mark.parametrize("name", sorted(FAILURES))
    @pytest.mark.parametrize("rhs", [1, 4])
    def test_retry_equals_an_undisturbed_run(self, name, rhs):
        failure, raised = self.FAILURES[name]
        n = 60
        stiffness, mass, dt, rng = small_problem(n, seed=2)
        forces = make_forces("vector", n, rhs, rng)
        flaky = FlakyOperator(stiffness, fail_on=8, failure=failure)
        stepper = ExplicitTimeStepper(
            stiffness, mass, dt, damping_alpha=0.1, smvp=flaky, rhs=rhs,
            check_finite=True, guard_growth=1e3,
        )
        oracle = FormulaStepper(lambda x: stiffness @ x, mass, dt, 0.1, rhs)
        assert_same_run(stepper, oracle, forces[:7])
        u, u_prev = stepper.u, stepper.u_prev
        before = u.copy(), u_prev.copy()
        with pytest.raises(raised):
            stepper.step(forces[7])
        assert np.shares_memory(stepper.u, u)  # nothing rotated
        assert np.shares_memory(stepper.u_prev, u_prev)
        assert np.array_equal(u, before[0])
        assert np.array_equal(u_prev, before[1])
        assert stepper.step_index == 7
        assert_same_run(stepper, oracle, forces[7:])  # the retry and on

    @pytest.mark.parametrize("rhs", [1, 4])
    def test_malformed_force_is_a_value_error_before_any_work(self, rhs):
        n = 60
        stiffness, mass, dt, rng = small_problem(n, seed=2)
        flaky = FlakyOperator(stiffness, fail_on=0, failure=None)
        stepper = ExplicitTimeStepper(stiffness, mass, dt, smvp=flaky, rhs=rhs)
        stepper.step(rng.standard_normal(n))
        u, u_prev = stepper.u, stepper.u_prev
        before = u.copy(), u_prev.copy()
        expected = f"({n},)" + (f" or ({n}, {rhs})" if rhs > 1 else "")
        for shape in [(n - 1,), (n, rhs + 1), (n, 1), (rhs, n), ()]:
            message = f"force has shape {shape}; expected {expected}"
            with pytest.raises(ValueError, match=re.escape(message)):
                stepper.step(np.zeros(shape))
        # Complex forcing is refused, not cut to its real part.
        with pytest.raises(ValueError, match="complex"):
            stepper.step(rng.standard_normal(n) + 1j)
        assert flaky.calls == 1  # rejected before the SMVP ran
        assert np.shares_memory(stepper.u, u)  # nothing rotated
        assert np.shares_memory(stepper.u_prev, u_prev)
        assert np.array_equal(u, before[0])
        assert np.array_equal(u_prev, before[1])
        assert stepper.step_index == 1


@pytest.mark.usefixtures("path")
class TestBlockColumnsAreSingleRuns:
    def test_r16_columns_equal_r1_runs_on_the_executor(
        self, demo_mesh, demo_materials, demo_problem
    ):
        # The bench's column0_vs_serial_r1 check, for every column, on
        # the serial schedule the r = 16 workload runs (its "overlap"
        # backend is serial under an older name).
        stiffness, mass, dt, partition = demo_problem
        n, rhs, steps = stiffness.shape[0], 16, 8
        rng = np.random.default_rng(16)
        alpha = 0.3 * rng.random(n)
        forces = [rng.standard_normal((n, rhs)) for _ in range(steps)]
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, backend="serial"
        ) as smvp:
            block = ExplicitTimeStepper(
                stiffness, mass, dt, damping_alpha=alpha, smvp=smvp, rhs=rhs
            )
            for force in forces:
                block.step(force)
            for j in range(rhs):
                solo = ExplicitTimeStepper(
                    stiffness, mass, dt, damping_alpha=alpha, smvp=smvp
                )
                for force in forces:
                    solo.step(force[:, j])
                assert np.array_equal(block.u[:, j], solo.u), j
                assert np.array_equal(block.u_prev[:, j], solo.u_prev), j


class TestNumpySpecificationIsThePass:
    @pytest.mark.parametrize("rows", ["global", "owner-rows"])
    @pytest.mark.parametrize("damping", ["zero", "scalar", "per-dof"])
    @pytest.mark.parametrize("rhs", [1, 4, 17])
    def test_same_state_bits(self, rhs, damping, rows):
        # The two update functions side by side on every force form.
        # The row map is the identity of a global state (the one-slice
        # layout's), or each dof's row a shuffled one of a longer
        # buffer, as an executor's state has: the rows it does not name
        # hold NaN, and are neither read into the diagnostics nor
        # written.
        n = 60
        stiffness, mass, dt, rng = small_problem(n, seed=rhs)
        alpha = {"zero": 0.0, "scalar": 0.3, "per-dof": rng.random(n)}[damping]
        stepper = ExplicitTimeStepper(
            stiffness, mass, dt, damping_alpha=alpha, rhs=rhs
        )
        length, pos = n, np.arange(n)
        if rows == "owner-rows":
            length = n + 23
            pos = rng.permutation(length)[:n]
        whole = (length,) + stepper.u.shape[1:]
        ku, u, u_prev = (rng.standard_normal(whole) for _ in range(3))
        unnamed = np.setdiff1d(np.arange(length), pos)
        for a in (ku, u, u_prev):
            a[unnamed] = np.nan
        kinds = ["none", "vector", "strided"] + (["block"] if rhs > 1 else [])
        for kind in kinds:
            f = make_forces(kind, n, rhs, rng)[0]
            out = np.full(whole, 7.0), np.full(whole, 7.0)
            peak, kinetic = stepper._update(f, ku, u, u_prev, out[0], pos)
            spec_peak, spec_kinetic = stepper._update_numpy(
                f, ku, u, u_prev, out[1], pos
            )
            assert np.array_equal(out[0], out[1]), kind
            assert np.all(out[0][unnamed] == 7.0), kind
            assert math.isfinite(peak) and peak == spec_peak, kind
            assert kinetic == pytest.approx(spec_kinetic, rel=1e-12), kind


class TestConstructorRejectsBadValues:
    CASES = {
        "nan-dt": ("dt", math.nan, "dt must be positive and finite"),
        "inf-dt": ("dt", math.inf, "dt must be positive and finite"),
        "nan-mass": ("mass", math.nan, "mass must be strictly positive"),
        "inf-mass": ("mass", math.inf, "lumped mass must be finite"),
        "nan-damping": ("damping_alpha", math.nan, "must be non-negative"),
        "nan-damping-dof": ("alpha_dof", math.nan, "must be non-negative"),
        "inf-damping": ("damping_alpha", math.inf, "damping must be finite"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bad_value_is_a_value_error(self, name):
        which, value, message = self.CASES[name]
        stiffness, mass, dt, _ = small_problem(60, seed=1)
        kwargs = {"dt": dt, "damping_alpha": 0.1}
        if which == "mass":
            mass[7] = value
        elif which == "alpha_dof":
            kwargs["damping_alpha"] = np.full(60, 0.1)
            kwargs["damping_alpha"][7] = value
        else:
            kwargs[which] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            ExplicitTimeStepper(stiffness, mass, **kwargs)

    def test_a_system_without_dofs_is_a_value_error(self):
        with pytest.raises(ValueError, match="no degrees of freedom"):
            ExplicitTimeStepper(sp.csr_matrix((0, 0)), np.zeros(0), 1.0)


class TestRecordNodesAreChecked:
    @pytest.mark.parametrize(
        "nodes, named",
        [([2, -1], "[-1]"), ([3, 20], "[20]"), ([0.9], "[0.9]")],
        ids=["negative", "past-the-end", "non-integer"],
    )
    def test_bad_id_is_a_value_error_before_any_step(self, nodes, named):
        stiffness, mass, dt, _ = small_problem(60, seed=1)  # 20 nodes
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        message = f"record_nodes {named} are not node ids"
        with pytest.raises(ValueError, match=re.escape(message)):
            stepper.run(3, record_nodes=nodes)
        assert stepper.step_index == 0
        assert not stepper.u.any() and not stepper.u_prev.any()

    def test_recorded_rows_are_the_nodes_dofs(self):
        stiffness, mass, dt, rng = small_problem(60, seed=1)
        forces = make_forces("vector", 60, 1, rng)
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        _, seis = stepper.run(
            3, force_at=lambda t: forces[round(t / dt)], record_nodes=[19, 0]
        )
        assert seis.shape == (3, 2, 3)
        rows = stepper.u[[57, 58, 59, 0, 1, 2]]
        assert np.array_equal(seis[-1], rows.reshape(2, 3))


class TestStepperOverAnSmvpNeedsNoMatrix:
    """Over an ``smvp`` the stepper reads no matrix, so the pipeline
    never assembles the global K for a distributed run."""

    def test_size_comes_from_the_mass(self):
        stiffness, mass, dt, rng = small_problem(60, seed=1)
        forces = make_forces("vector", 60, 1, rng)
        with_matrix = ExplicitTimeStepper(
            stiffness, mass, dt, smvp=lambda x: stiffness @ x
        )
        without = ExplicitTimeStepper(
            None, mass, dt, smvp=lambda x: stiffness @ x
        )
        assert without.stiffness is None
        for force in forces[:STEPS]:
            with_matrix.step(force)
            without.step(force)
        assert np.array_equal(with_matrix.u, without.u)
        assert np.array_equal(with_matrix.u_prev, without.u_prev)

    def test_no_matrix_and_no_smvp_is_a_value_error(self):
        _, mass, dt, _ = small_problem(60, seed=1)
        with pytest.raises(ValueError, match="stiffness matrix is needed"):
            ExplicitTimeStepper(None, mass, dt)

    @pytest.mark.parametrize("mass", [np.ones((4, 3)), np.ones(()), np.ones(0)])
    def test_mass_must_be_a_nonempty_vector(self, mass):
        with pytest.raises(ValueError):
            ExplicitTimeStepper(None, mass, 1.0, smvp=lambda x: x)

    def test_problem_run_never_assembles_the_global_k(self, monkeypatch):
        from repro import pipeline
        from repro.pipeline import Problem

        reference = Problem.from_instance("demo")
        with reference.executor(4) as smvp:
            stepper = ExplicitTimeStepper(
                reference.stiffness, reference.mass, reference.dt,
                damping_alpha=0.02, smvp=smvp,
            )
            stepper.run(5, force_at=reference.point_source())
            want = stepper.u.copy(), stepper.u_prev.copy()

        def refused(*args):
            raise AssertionError("the global stiffness was assembled")

        monkeypatch.setattr(pipeline, "assemble_stiffness", refused)
        problem = Problem.from_instance("demo")
        with problem.executor(4) as smvp:
            stepper = problem.stepper(smvp, damping_alpha=0.02)
            stepper.run(5, force_at=problem.point_source())
        assert np.array_equal(stepper.u, want[0])
        assert np.array_equal(stepper.u_prev, want[1])
        assert "stiffness" not in vars(problem)

    def test_repro_trace_never_assembles_the_global_k(self, monkeypatch, capsys):
        from repro import pipeline
        from repro.cli import main_trace

        def peak_line():
            argv = ["--instance", "demo", "--pes", "4", "--steps", "5"]
            assert main_trace(argv) == 0
            out = capsys.readouterr().out
            return next(line for line in out.splitlines() if "peak" in line)

        want = peak_line()

        def refused(*args):
            raise AssertionError("the global stiffness was assembled")

        monkeypatch.setattr(pipeline, "assemble_stiffness", refused)
        assert peak_line() == want
        assert want.endswith("finite=True")
