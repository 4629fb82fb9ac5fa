"""The flat superstep: one buffer, one compiled plan.

* **Equivalence** — over random partitions of the demo mesh (geometric
  cuts with a scrambled fraction of elements, so nodes of residency
  >= 3 are always present) the flat-plan ``multiply`` is
  ``array_equal``, per column, to the per-message walk, for r in
  {1, 4}, on the flat (serial, threaded) and split (overlap) layouts,
  with and without ``out=``.
* **The plan itself** — rounds = max residency - 1, destinations unique
  inside a round, every word sent once, per-PE words / blocks equal to
  ``CommSchedule``'s.
* **Path selection** — no ``BlockSend`` is ever built when nothing is
  attached or only a plain trace sink is; ABFT, the sanitizer, a
  profiled multiply and a communication-fault injector each still see
  every block; evict / grow successors compile their own plan; a
  replaced pair table drops the compiled plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultConfig, FaultInjector
from repro.partition.base import Partition, partition_mesh
from repro.smvp.exchange import ExchangePlan, FlatExchange
from repro.smvp.executor import DistributedSMVP
from repro.smvp.trace import TraceLog
from tests.conftest import counted_block_sends

R = 4


def scrambled_partition(mesh, pes: int, seed: int) -> Partition:
    """A geometric ``pes``-way partition with 2 % of the elements
    relabelled at random: realistic subdomains plus scattered islands,
    whose corners reside on three and more PEs."""
    parts = partition_mesh(mesh, pes, seed=seed).parts.copy()
    rng = np.random.default_rng(seed)
    moved = rng.choice(parts.size, size=parts.size // 50, replace=False)
    parts[moved] = rng.integers(pes, size=moved.size)
    return Partition(parts, pes, method="scrambled")


def per_message_multiply(ds: DistributedSMVP, x: np.ndarray) -> np.ndarray:
    """The reference: the public phases over *copies* of the per-PE
    products — foreign arrays, so the exchange walks every message and
    the gather runs per PE."""
    y_locals = [y.copy() for y in ds.compute_phase(ds.scatter(x))]
    y_locals, _ = ds.communication_phase(y_locals)
    return ds.gather(y_locals)


@pytest.fixture(scope="module")
def partition8(demo_mesh):
    return partition_mesh(demo_mesh, 8, seed=2)


@pytest.fixture(scope="module")
def x_block(demo_mesh):
    return np.random.default_rng(23).standard_normal(
        (3 * demo_mesh.num_nodes, R)
    )


# ---------------------------------------------------------------------------
# Equivalence


class TestEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pes=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(pes=2, seed=0)  # one round, no snapshot hazard
    @example(pes=16, seed=5)  # residency well above 3: many rounds
    def test_flat_plan_equals_per_message_walk(
        self, demo_mesh, demo_materials, x_block, pes, seed
    ):
        partition = scrambled_partition(demo_mesh, pes, seed)
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ref:
            assert ref.distribution.node_residency.max() >= min(pes, 3)
            want = per_message_multiply(ref, x_block)
            want_columns = [
                per_message_multiply(ref, x_block[:, j].copy())
                for j in range(R)
            ]
        for j in range(R):  # the reference itself is column-consistent
            assert np.array_equal(want[:, j], want_columns[j])
        for backend in ("serial", "threaded", "overlap"):
            with DistributedSMVP(
                demo_mesh, partition, demo_materials, backend=backend
            ) as ds, counted_block_sends() as built:
                got = ds.multiply(x_block)
                assert np.array_equal(got, want), (backend, "block")
                out = np.full(x_block.shape, np.nan)
                assert ds.multiply(x_block, out=out) is out
                assert np.array_equal(out, want), (backend, "block out=")
                for j in (0, R - 1):
                    x = x_block[:, j].copy()
                    assert np.array_equal(
                        ds.multiply(x), want_columns[j]
                    ), (backend, j)
                    out = np.full(x.shape, np.nan)
                    ds.multiply(x, out=out)
                    assert np.array_equal(out, want_columns[j]), (backend, j)
                assert built == []  # all of it on the flat path

    @pytest.mark.parametrize("backend", ["serial", "threaded", "overlap"])
    def test_public_phases_compose_to_the_flat_path(
        self, demo_mesh, demo_materials, partition8, x_block, backend
    ):
        """scatter → compute_phase → communication_phase → gather over
        the layout's own slices is the flat path, and equals multiply."""
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend
        ) as ds:
            for x in (x_block[:, 0].copy(), x_block):
                want = ds.multiply(x)
                with counted_block_sends() as built:
                    y_locals = ds.compute_phase(ds.scatter(x))
                    assert ds.layout.buffer_of(y_locals) is not None
                    y_locals, record = ds.communication_phase(y_locals)
                    got = ds.gather(y_locals)
                assert built == []
                assert np.array_equal(got, want)
                width = x.shape[1] if x.ndim == 2 else 1
                assert np.array_equal(
                    record.words_sent,
                    width * ds.schedule.word_matrix.sum(axis=1),
                )
                assert record.faults is None

    def test_threaded_slices_do_not_race(
        self, demo_mesh, demo_materials, x_block
    ):
        """More workers than cores writing their PEs' slices of the one
        y buffer, under a shortened switch interval: every product is
        the serial one, every time."""
        import sys

        from repro.smvp.backends import ThreadedBackend

        partition = partition_mesh(demo_mesh, 16, seed=3)
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ref:
            want = [ref.multiply(x_block[:, j].copy()) for j in range(R)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DistributedSMVP(
                demo_mesh, partition, demo_materials,
                backend=ThreadedBackend(workers=12),
            ) as ds:
                for sweep in range(25):
                    j = sweep % R
                    assert np.array_equal(
                        ds.multiply(x_block[:, j].copy()), want[j]
                    ), sweep
        finally:
            sys.setswitchinterval(interval)

    def test_slices_live_until_the_next_call(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        """The lifetime rule: phase results are views of persistent
        buffers, overwritten by the next call of the same phase."""
        x0, x1 = x_block[:, 0].copy(), x_block[:, 1].copy()
        with DistributedSMVP(demo_mesh, partition8, demo_materials) as ds:
            first = ds.scatter(x0)
            kept = [a.copy() for a in first]
            second = ds.scatter(x1)
            for a, b, k in zip(first, second, kept):
                assert a is b  # same slices, new contents
                assert not np.array_equal(a, k)
            y = ds.multiply(x0)
            ds.multiply(x1)
            assert np.array_equal(y, ds.multiply(x0))  # results are copies


# ---------------------------------------------------------------------------
# The plan itself


class TestPlan:
    @pytest.fixture(scope="class", params=[(8, 2), (16, 5)])
    def executor(self, request, demo_mesh, demo_materials):
        pes, seed = request.param
        partition = scrambled_partition(demo_mesh, pes, seed)
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, backend="overlap"
        ) as ds:
            yield ds

    @pytest.mark.parametrize("split", [False, True])
    def test_rounds_are_max_residency_minus_one(self, executor, split):
        plan = executor.layout.plan(split)
        residency = int(executor.distribution.node_residency.max())
        assert residency >= 3
        assert len(plan.rounds) == residency - 1
        sizes = [hi - lo for _, lo, hi in plan.rounds]
        assert sizes == sorted(sizes, reverse=True)  # k-th needs (k-1)-th

    @pytest.mark.parametrize("split", [False, True])
    def test_destinations_unique_within_a_round(self, executor, split):
        plan = executor.layout.plan(split)
        covered = 0
        for dst, lo, hi in plan.rounds:
            assert dst.size == hi - lo
            assert np.unique(dst).size == dst.size
            assert lo == covered  # rounds tile the snapshot
            covered = hi
        assert covered == plan.send_pos.size

    @pytest.mark.parametrize("split", [False, True])
    def test_static_traffic_is_the_schedules(self, executor, split):
        plan = executor.layout.plan(split)
        matrix = executor.schedule.word_matrix
        assert np.array_equal(plan.words_sent, matrix.sum(axis=1))
        assert np.array_equal(plan.blocks_sent, (matrix > 0).sum(axis=1))
        assert plan.send_pos.size == executor.schedule.total_words
        assert int(plan.blocks_sent.sum()) == executor.schedule.total_blocks

    def test_round_k_is_the_kth_contribution_in_send_order(self, executor):
        """Replay the pair table message by message on integer tags:
        the plan applies, to every destination, the same sources in
        the same order."""
        layout = executor.layout
        plan, offsets = layout.plan(), layout.offsets
        history = {}
        for a, b, pos_a, pos_b in layout.pairs:
            for src, dst in (
                (offsets[a] + pos_a, offsets[b] + pos_b),
                (offsets[b] + pos_b, offsets[a] + pos_a),
            ):
                for s, d in zip(src.tolist(), dst.tolist()):
                    history.setdefault(d, []).append(s)
        replay = {}
        for dst, lo, hi in plan.rounds:
            for s, d in zip(plan.send_pos[lo:hi].tolist(), dst.tolist()):
                replay.setdefault(d, []).append(s)
        assert replay == history

    def test_empty_table_compiles_to_no_rounds(self):
        plan = ExchangePlan([], np.array([0, 12]))
        assert plan.rounds == [] and plan.send_pos.size == 0
        assert plan.words_sent.tolist() == [0]

    def test_replacing_the_pair_table_drops_the_plan(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        x = x_block[:, 0].copy()
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend="overlap"
        ) as ds:
            want = ds.multiply(x)
            layout = ds.layout
            stale = (layout.plan(False), layout.plan(True))
            layout.replace_pairs(layout.pairs[1:])
            assert layout.plan(False) is not stale[0]
            assert layout.plan(True) is not stale[1]
            assert len(layout.split_pairs) == len(layout.pairs)
            assert layout.plan().send_pos.size < stale[0].send_pos.size
            assert not np.array_equal(ds.multiply(x), want)  # a pair short


# ---------------------------------------------------------------------------
# Path selection


def total_blocks(ds: DistributedSMVP) -> int:
    return ds.schedule.total_blocks


class TestPathSelection:
    @pytest.mark.parametrize("backend", ["serial", "threaded", "overlap"])
    @pytest.mark.parametrize("sink", [False, True], ids=["bare", "sink"])
    def test_unobserved_multiply_builds_no_message(
        self, demo_mesh, demo_materials, partition8, x_block, backend, sink
    ):
        log = TraceLog() if sink else None
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend,
            trace_sink=log,
        ) as ds, counted_block_sends() as built:
            for step in range(3):
                ds.multiply(x_block[:, step].copy())
                assert ds._superstep == step + 1
            assert built == []
            if log is not None:
                for trace in log.traces:
                    assert trace.pe_spans is None and trace.faults is None
                    assert np.array_equal(
                        trace.words_sent, ds.schedule.word_matrix.sum(axis=1)
                    )
                    assert trace.total_blocks == total_blocks(ds)
                    assert trace.t_comm > 0.0

    @pytest.mark.parametrize("backend", ["serial", "overlap"])
    @pytest.mark.parametrize(
        "options",
        [{"abft": True}, {"sanitizer": True}, {"profile": True}, {"injector": 0}],
        ids=lambda o: next(iter(o)),
    )
    def test_message_observers_see_every_block(
        self, demo_mesh, demo_materials, partition8, x_block, backend, options
    ):
        options = dict(options)
        log = TraceLog() if "profile" in options else None
        if "injector" in options:
            options["injector"] = FaultInjector(
                FaultConfig(seed=5, drop_rate=0.1, duplicate_rate=0.05)
            )
        x = x_block[:, 0].copy()
        with DistributedSMVP(demo_mesh, partition8, demo_materials) as plain:
            want = plain.multiply(x)
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend,
            trace_sink=log, **options,
        ) as ds, counted_block_sends() as built:
            seen = []
            if ds._checkers:  # what ABFT / the sanitizer are handed
                checker = ds._checkers[-1]
                inner = checker.after_exchange

                def after_exchange(x_locals, delivered, y_locals):
                    seen.append(len(delivered))
                    return inner(x_locals, delivered, y_locals)

                checker.after_exchange = after_exchange
            assert np.array_equal(ds.multiply(x), want)
            assert ds._superstep == 1
            assert len(built) == total_blocks(ds)
            if ds._checkers:
                assert seen == [total_blocks(ds)]
            if log is not None:
                (trace,) = log.traces
                wires = [s for s in trace.pe_spans if s.kind == "wire"]
                assert len(wires) == total_blocks(ds)
                assert sum(s.words for s in wires) == ds.schedule.total_words
            if "injector" in options:
                stats = ds.transport_stats
                assert stats.any_injected and stats.fully_recovered()

    @pytest.mark.parametrize("profile", [False, True], ids=["flat", "walk"])
    def test_only_the_walk_starts_a_wire_thread(
        self, demo_mesh, demo_materials, partition8, x_block, monkeypatch,
        profile,
    ):
        """Overlapped schedule: the plan's snapshot is taken inline (a
        thread made step times depend on its scheduling); per-message
        deliveries still travel on one wire thread per superstep."""
        from repro.smvp import exchange

        started = []

        class CountedThread(exchange.threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(exchange.threading, "Thread", CountedThread)
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend="overlap",
            trace_sink=TraceLog(), profile=profile,
        ) as ds:
            assert ds._split
            for step in range(3):
                ds.multiply(x_block[:, step].copy())
        assert started == ["repro-overlap-wire"] * (3 if profile else 0)

    def test_profile_without_a_sink_stays_flat(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, profile=True
        ) as ds, counted_block_sends() as built:
            ds.multiply(x_block[:, 0].copy())
            assert built == []

    def test_quarantine_without_comm_faults_stays_flat(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        """Quarantine reroutes blocks inside the fault middleware; with
        no communication-fault injector the wire is clean and it is
        moot."""
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials
        ) as ds, counted_block_sends() as built:
            ds.quarantine(1)
            ds.multiply(x_block[:, 0].copy())
            assert built == []

    def test_foreign_arrays_fall_back_to_the_walk(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        x = x_block[:, 0].copy()
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials
        ) as ds, counted_block_sends() as built:
            want = ds.multiply(x)
            assert np.array_equal(per_message_multiply(ds, x), want)
            assert len(built) == total_blocks(ds)
            # one replaced slot is enough to make the arrays foreign
            arrays = ds.compute_phase(ds.scatter(x))
            arrays[3] = arrays[3].copy()
            exchange = ds._open_exchange(arrays)
            assert not isinstance(exchange, FlatExchange)

    @pytest.mark.parametrize("backend", ["serial", "overlap"])
    def test_successors_compile_their_own_plan(
        self, demo_mesh, demo_materials, partition8, x_block, backend
    ):
        """Mid-run evict, then grow: each successor's flat multiply
        equals a from-scratch executor's and its own per-message walk."""
        x = x_block[:, 0].copy()
        first = DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend
        )
        first.multiply(x)
        evicted, _ = first.reconfigure_without(2)
        grown, _ = evicted.reconfigure_with()
        try:
            split = backend == "overlap"
            plans = [ds.layout.plan(split) for ds in (first, evicted, grown)]
            assert len({id(p) for p in plans}) == 3
            for ds, parts in ((evicted, 7), (grown, 8)):
                assert ds.num_parts == parts
                with counted_block_sends() as built:
                    got = ds.multiply(x)
                assert built == []
                # both inherited the counter before either multiplied
                assert ds._superstep == first._superstep + 1
                with DistributedSMVP(
                    demo_mesh, ds.partition, demo_materials
                ) as fresh:
                    assert np.array_equal(got, fresh.multiply(x))
                    assert np.array_equal(got, per_message_multiply(fresh, x))
        finally:
            for ds in (first, evicted, grown):
                ds.close()
