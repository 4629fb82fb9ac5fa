"""Tests for the superstep engine: kernel protocol, execution backends,
exchange middleware, and per-phase instrumentation.

The load-bearing guarantees:

* every backend produces bits identical to the serial path, which is
  itself pinned to golden vectors generated by the pre-refactor
  executor;
* timed regions (``measure_tf``, the backends) call ``prepare`` exactly
  once, so no kernel's measurement includes a format conversion;
* the fault protocol, now transport middleware, preserves the recovery
  semantics and statistics of the original forked loop on every
  backend;
* attaching a trace sink yields one ``SuperstepTrace`` per superstep,
  and not attaching one keeps the hot path clock-free.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.faults import FaultConfig, FaultInjector
from repro.fem.assembly import assemble_lumped_mass, assemble_stiffness
from repro.fem.material import ElementMaterials
from repro.fem.timestepper import ExplicitTimeStepper, stable_timestep
from repro.partition.base import partition_mesh
from repro.smvp.backends import (
    ExecutionBackend,
    backend_names,
    make_backend,
)
from repro.smvp.executor import DistributedSMVP
from repro.smvp import kernels
from repro.smvp.kernels import Kernel, get_kernel, measure_tf
from repro.smvp.trace import PhaseBreakdown, SuperstepTrace, TraceLog
from tests.conftest import FLAG_SUBSETS, flagged_multiply

GOLDEN = Path(__file__).parent / "golden" / "smvp_serial_golden.npz"


@pytest.fixture(scope="module")
def demo_stiffness(demo_mesh, demo_materials):
    return assemble_stiffness(demo_mesh, demo_materials)


@pytest.fixture(scope="module")
def partition4(demo_mesh):
    return partition_mesh(demo_mesh, 4, seed=2)


@pytest.fixture(scope="module")
def x_global(demo_mesh):
    return np.random.default_rng(7).standard_normal(3 * demo_mesh.num_nodes)


def small_symmetric_matrix(n=30, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0
    dense = dense + dense.T
    return sp.csr_matrix(dense)


class TestKernelProtocol:
    def test_get_kernel_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("avx512")

    def test_prepare_product_matches_dense(self):
        matrix = small_symmetric_matrix()
        x = np.random.default_rng(1).standard_normal(30)
        k = get_kernel("csr")
        state = k.prepare(matrix)
        assert np.allclose(k.product(state, x), matrix.toarray() @ x)

    def test_csr_prepare_copies_nothing(self, demo_stiffness):
        """An assembled matrix (node-structured: the compiled loop's
        state, where it builds) and an unstructured one (scipy's): the
        state reads the matrix's own arrays."""
        for matrix in (demo_stiffness, small_symmetric_matrix()):
            state = get_kernel("csr").prepare(matrix)
            for name in ("indptr", "indices", "data"):
                assert np.shares_memory(
                    getattr(state, name), getattr(matrix, name)
                ), name

    def test_measure_tf_times_only_the_product(
        self, demo_stiffness, monkeypatch
    ):
        """The timed region never includes a format conversion."""
        inner = get_kernel("csr")
        calls = {"prepare": 0, "product": 0}

        class CountingKernel(Kernel):
            name = "csr"

            def prepare(self, matrix):
                calls["prepare"] += 1
                return inner.prepare(matrix)

            def product(self, state, x, out=None):
                calls["product"] += 1
                return inner.product(state, x, out)

        monkeypatch.setattr(kernels, "get_kernel", lambda name: CountingKernel())
        m = measure_tf(demo_stiffness, "csr", repetitions=3, warmup=1)
        assert calls["prepare"] == 1  # setup only — never inside the loop
        assert calls["product"] == 4  # warmup + repetitions
        assert m.flops_per_product == 2 * demo_stiffness.nnz


class TestBackends:
    def test_names(self):
        assert backend_names() == ["overlap", "serial", "threaded"]

    def test_make_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_make_backend_passthrough(self):
        backend = make_backend("serial")
        assert isinstance(backend, ExecutionBackend)
        assert make_backend(backend) is backend

    def test_close_is_idempotent(self, demo_mesh, partition4, demo_materials):
        ds = DistributedSMVP(
            demo_mesh, partition4, demo_materials, backend="threaded"
        )
        ds.multiply(np.zeros(3 * demo_mesh.num_nodes))
        ds.close()
        ds.close()

    def test_gather_destinations_cover_every_dof_once(
        self, demo_mesh, partition4, demo_materials
    ):
        ds = DistributedSMVP(demo_mesh, partition4, demo_materials)
        dst = np.concatenate(ds.layout.gather_dst)
        assert np.array_equal(np.sort(dst), np.arange(3 * demo_mesh.num_nodes))

    def test_spark98_carries_backend(self):
        from repro.smvp.spark98 import run_kernel

        run = run_kernel(
            "mmv",
            instance="demo",
            num_parts=4,
            repetitions=1,
            backend="threaded",
        )
        assert run.backend == "threaded"


class TestGoldenVectors:
    """The serial engine is pinned to the pre-refactor executor's bits,
    over the sort-free assembly's local matrices.  Regenerate the file
    (only when the assembled or product bits are meant to move) with::

        PYTHONPATH=src python -c "import numpy as np; from repro import Problem; p = Problem.from_instance('demo'); x = np.random.default_rng(42).standard_normal(p.num_dofs); part = p.partition(8, seed=3); np.savez_compressed('tests/golden/smvp_serial_golden.npz', x_seed=42, num_parts=8, partition_seed=3, y_csr=p.executor(part).multiply(x))"
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return np.load(GOLDEN)

    @pytest.fixture(scope="class")
    def golden_setup(self, demo_mesh, demo_materials, golden):
        partition = partition_mesh(
            demo_mesh, int(golden["num_parts"]), seed=int(golden["partition_seed"])
        )
        rng = np.random.default_rng(int(golden["x_seed"]))
        x = rng.standard_normal(3 * demo_mesh.num_nodes)
        return partition, x

    @pytest.mark.parametrize("backend", backend_names())
    def test_multiply_matches_golden(
        self, demo_mesh, demo_materials, golden, golden_setup, backend
    ):
        partition, x = golden_setup
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, backend=backend
        ) as ds:
            y = ds.multiply(x)
        assert np.array_equal(y, golden["y_csr"])

    @pytest.mark.parametrize(
        "flags", FLAG_SUBSETS, ids=lambda f: "+".join(f) or "plain"
    )
    @pytest.mark.parametrize("backend", backend_names())
    def test_flag_combinations_match_golden(
        self, demo_mesh, demo_materials, golden, golden_setup, backend, flags
    ):
        """One pipeline: every subset of the feature flags, on every
        backend, commits the golden bits."""
        partition, x = golden_setup
        y = flagged_multiply(
            demo_mesh, partition, demo_materials, x, backend, flags
        )
        assert np.array_equal(y, golden["y_csr"])

    @pytest.mark.parametrize("backend", ["serial", "threaded", "overlap"])
    def test_backend_shared_by_two_executors(
        self, demo_mesh, demo_materials, golden, golden_setup, backend
    ):
        """One backend instance handed to two executors: each still
        multiplies by its own local matrices, not the last-built one's."""
        partition, x = golden_setup
        doubled = ElementMaterials(
            2.0 * demo_materials.lam, 2.0 * demo_materials.mu, demo_materials.rho
        )
        with make_backend(backend) as shared:
            first = DistributedSMVP(
                demo_mesh, partition, demo_materials, backend=shared
            )
            second = DistributedSMVP(demo_mesh, partition, doubled, backend=shared)
            assert np.array_equal(first.multiply(x), golden["y_csr"])
            assert np.array_equal(second.multiply(x), 2.0 * golden["y_csr"])


class TestOnePipeline:
    """Input handling and the fault-stream counter are the pipeline's,
    not a feature path's: identical under every flag and backend."""

    @pytest.mark.parametrize(
        "flags",
        [f for f in FLAG_SUBSETS if "out" not in f],
        ids=lambda f: "+".join(f) or "plain",
    )
    @pytest.mark.parametrize("backend", ["serial", "overlap"])
    def test_bad_out_rejected_before_any_work(
        self, demo_mesh, partition4, demo_materials, x_global, backend, flags
    ):
        with DistributedSMVP(
            demo_mesh,
            partition4,
            demo_materials,
            backend=backend,
            abft="abft" in flags,
            sanitizer="sanitizer" in flags,
            profile="profile" in flags,
            trace_sink=(
                TraceLog() if {"profile", "sink"} & set(flags) else None
            ),
        ) as ds:
            for bad in (
                np.empty(x_global.shape, dtype=np.float32),
                np.empty(x_global.size + 3),
                np.empty((x_global.size, 2)),
            ):
                with pytest.raises(ValueError, match="out must be a float64"):
                    ds.multiply(x_global, out=bad)
            assert ds._superstep == 0
            out = np.empty_like(x_global)
            assert ds.multiply(x_global, out=out) is out
            assert ds._superstep == 1

    @pytest.mark.parametrize("backend", sorted(set(backend_names())))
    def test_rejected_input_leaves_superstep_counter(
        self, demo_mesh, partition4, demo_materials, x_global, backend
    ):
        with DistributedSMVP(
            demo_mesh, partition4, demo_materials, backend=backend
        ) as ds:
            for bad in (np.zeros(7), np.zeros((7, 2))):
                with pytest.raises(ValueError, match="3 \\* num_nodes"):
                    ds.multiply(bad)
            # Complex input is refused, not cut to its real part.
            for bad in (x_global + 1j, (x_global + 1j)[:, None]):
                with pytest.raises(ValueError, match="complex"):
                    ds.multiply(bad)
            assert ds._superstep == 0
            ds.multiply(x_global)
            assert ds._superstep == 1


class TestExchangeMiddleware:
    @pytest.fixture()
    def injector(self):
        return FaultInjector(
            FaultConfig(
                seed=11,
                drop_rate=0.05,
                bitflip_rate=0.05,
                duplicate_rate=0.05,
            )
        )

    def test_clean_path_keeps_no_stats(
        self, demo_mesh, partition4, demo_materials, x_global
    ):
        ds = DistributedSMVP(demo_mesh, partition4, demo_materials)
        y_locals = ds.compute_phase(ds.scatter(x_global))
        _, record = ds.communication_phase(y_locals)
        assert record.faults is None
        mat = ds.schedule.word_matrix
        assert np.array_equal(record.words_sent, mat.sum(axis=1))

    def test_recovery_is_bit_identical(
        self, demo_mesh, partition4, demo_materials, x_global, injector
    ):
        clean = DistributedSMVP(demo_mesh, partition4, demo_materials)
        faulty = DistributedSMVP(
            demo_mesh, partition4, demo_materials, injector=injector
        )
        assert np.array_equal(
            faulty.multiply(x_global), clean.multiply(x_global)
        )

    def test_fault_history_independent_of_backend(
        self, demo_mesh, partition4, demo_materials, x_global, injector
    ):
        """The injector draws are keyed, not call-order dependent, so the
        same seed yields the same faults, stats, and traffic on every
        backend — the middleware refactor cannot have changed them."""
        records = {}
        results = {}
        for backend in backend_names():
            with DistributedSMVP(
                demo_mesh,
                partition4,
                demo_materials,
                injector=injector,
                backend=backend,
            ) as ds:
                y_locals = ds.compute_phase(ds.scatter(x_global))
                y_locals, record = ds.communication_phase(y_locals, step=0)
                results[backend] = ds.gather(y_locals)
                records[backend] = record
        ref = records["serial"]
        assert ref.faults is not None
        total = (
            ref.faults.injected_drops
            + ref.faults.injected_corruptions
            + ref.faults.injected_duplicates
        )
        assert total > 0  # the seed actually exercises the protocol
        for backend in backend_names():
            rec = records[backend]
            assert rec.faults == ref.faults
            assert np.array_equal(rec.words_sent, ref.words_sent)
            assert np.array_equal(rec.blocks_sent, ref.blocks_sent)
            assert np.array_equal(results[backend], results["serial"])

    def test_retransmits_exceed_schedule(
        self, demo_mesh, partition4, demo_materials, x_global, injector
    ):
        ds = DistributedSMVP(
            demo_mesh, partition4, demo_materials, injector=injector
        )
        y_locals = ds.compute_phase(ds.scatter(x_global))
        _, record = ds.communication_phase(y_locals, step=0)
        scheduled = ds.schedule.word_matrix.sum()
        assert record.words_sent.sum() > scheduled
        overhead = record.words_sent.sum() - scheduled
        extras = record.faults.words_retransmitted + 0
        # Duplicates also add traffic; the tally explains all overhead.
        assert extras <= overhead


class TestTraceInstrumentation:
    def test_one_trace_per_multiply(
        self, demo_mesh, partition4, demo_materials, x_global
    ):
        log = TraceLog()
        ds = DistributedSMVP(
            demo_mesh, partition4, demo_materials, trace_sink=log
        )
        for _ in range(3):
            ds.multiply(x_global)
        assert len(log) == 3
        assert [t.step for t in log.traces] == [0, 1, 2]
        t = log.traces[0]
        assert t.kernel == "csr" and t.backend == "serial"
        assert t.t_comp >= 0 and t.t_comm >= 0
        assert t.t_smvp >= t.t_comp + t.t_comm
        assert 0 < t.efficiency <= 1.0
        assert t.total_words == ds.schedule.word_matrix.sum()
        assert t.faults is None

    def test_untraced_path_reads_no_clock(
        self, demo_mesh, partition4, demo_materials, x_global, monkeypatch
    ):
        def boom():
            raise AssertionError("clock read on the untraced hot path")

        monkeypatch.setattr("repro.smvp.executor.now", boom)
        ds = DistributedSMVP(demo_mesh, partition4, demo_materials)
        ds.multiply(x_global)  # no sink: must not touch the clock
        ds.trace_sink = TraceLog()
        with pytest.raises(AssertionError, match="clock read"):
            ds.multiply(x_global)

    def test_trace_serialization(
        self, demo_mesh, partition4, demo_materials, x_global
    ):
        log = TraceLog()
        ds = DistributedSMVP(
            demo_mesh, partition4, demo_materials, trace_sink=log
        )
        ds.multiply(x_global)
        d = log.traces[0].to_dict()
        assert d["step"] == 0 and d["backend"] == "serial"
        assert "faults" not in d
        payload = json.loads(log.render_json())
        assert payload["version"] == 1
        assert payload["summary"]["steps"] == 1
        assert len(payload["supersteps"]) == 1
        table = log.render_table()
        assert "t_comp ms" in table and "total" in table

    def test_trace_carries_fault_stats(
        self, demo_mesh, partition4, demo_materials, x_global
    ):
        log = TraceLog()
        injector = FaultInjector(
            FaultConfig(seed=11, drop_rate=0.05, bitflip_rate=0.05)
        )
        ds = DistributedSMVP(
            demo_mesh,
            partition4,
            demo_materials,
            injector=injector,
            trace_sink=log,
        )
        ds.multiply(x_global)
        assert log.traces[0].faults is not None
        assert "faults" in log.traces[0].to_dict()
        assert "faults" in log.summary()

    def test_shared_phase_core_with_simulator(self):
        from repro.simulate.bsp import PhaseTimes

        assert issubclass(PhaseTimes, PhaseBreakdown)
        assert issubclass(SuperstepTrace, PhaseBreakdown)
        pt = PhaseTimes(
            t_comp=2.0, t_comm=2.0, t_smvp=4.0, mode="cs", per_pe_comm=None
        )
        assert pt.efficiency == 0.5

    def test_timestepper_attaches_and_restores_sink(
        self, demo_mesh, partition4, demo_materials, demo_stiffness
    ):
        ds = DistributedSMVP(demo_mesh, partition4, demo_materials)
        mass = assemble_lumped_mass(demo_mesh, demo_materials)
        dt = stable_timestep(demo_mesh, demo_materials)
        stepper = ExplicitTimeStepper(demo_stiffness, mass, dt, smvp=ds)
        log = TraceLog()
        stepper.run(4, trace_sink=log)
        assert len(log) == 4
        assert ds.trace_sink is None  # previous sink restored

    def test_timestepper_rejects_sink_on_sequential_smvp(
        self, demo_mesh, demo_materials, demo_stiffness
    ):
        mass = assemble_lumped_mass(demo_mesh, demo_materials)
        dt = stable_timestep(demo_mesh, demo_materials)
        stepper = ExplicitTimeStepper(demo_stiffness, mass, dt)
        with pytest.raises(ValueError, match="trace_sink"):
            stepper.run(1, trace_sink=TraceLog())


class TestTraceCli:
    def test_json_smoke(self, capsys):
        from repro.cli import main_trace

        assert (
            main_trace(
                [
                    "--instance",
                    "demo",
                    "--pes",
                    "4",
                    "--steps",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["steps"] == 2
        assert len(payload["supersteps"]) == 2
        assert payload["supersteps"][0]["backend"] == "serial"

    def test_table_smoke(self, capsys):
        from repro.cli import main_trace

        assert (
            main_trace(
                [
                    "--instance",
                    "demo",
                    "--pes",
                    "4",
                    "--steps",
                    "2",
                    "--backend",
                    "threaded",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend=threaded" in out
        assert "t_comp ms" in out

    def test_fault_rate_validated(self):
        from repro.cli import main_trace

        with pytest.raises(SystemExit):
            main_trace(["--fault-rate", "0.9"])
