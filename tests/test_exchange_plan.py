"""The one exchange: a compiled plan, whose messages observers read.

* **Equivalence** — over random partitions of the demo mesh (geometric
  cuts with a scrambled fraction of elements, so nodes of residency
  >= 3 are always present) ``multiply`` is ``array_equal``, per column,
  to the message-by-message walk kept below as a verbatim oracle, for
  r in {1, 4}, on every backend, with and without
  ``out=``.
* **Faults and observers** — with a communication-fault injector and a
  random quarantine set, the plan's segments driven through the
  :class:`FaultMiddleware` give the oracle's products, ``FaultStats``,
  per-PE traffic and failing link; ABFT, wire spans and the middleware
  each see every message.
* **The plan itself** — rounds = max residency - 1, destinations unique
  inside a round, every word sent once, per-PE words / blocks equal to
  ``CommSchedule``'s, the message table tiles the snapshot.
* **The compiled pass** — over random plans (residency up to 5, r in
  {1, 3, 16}, special values) its snapshot and sums are numpy's
  ``np.take`` + rounds bit for bit; the fault middleware and wire
  spans fill the snapshot, then sum through the same pass; numpy's
  rounds run only without it.
* **One schedule** — the layout's plan is compiled straight from
  ``CommSchedule.pairs`` (no copy) and proved once, when the layout is
  built (a plan whose rounds repeat a destination or miss a word is
  refused in ``tests/test_race_freedom.py``); a partition with an
  empty PE is refused before any plan exists.
* **Path selection** — there is one path: an unobserved multiply never
  builds the message table, no superstep starts a thread, foreign
  per-PE arrays run the same plan, an eviction's successor compiles
  its own plan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.faults import FaultConfig, FaultInjector
from repro.faults.detection import FaultStats
from repro.faults.errors import ExchangeFaultError
from repro.partition.base import Partition, PartitionError, partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.smvp import exchange as exchange_module
from repro.smvp.exchange import (
    ExchangePlan,
    ExchangeRecord,
    FaultMiddleware,
    apply_rounds,
    sum_sends,
)
from repro.smvp.executor import DistributedSMVP
from repro.smvp.layout import SuperstepLayout, check_layout
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import TraceLog
from repro.util.native import native

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


# ---------------------------------------------------------------------------
# The oracle: the per-message exchange walk, verbatim — one snapshotted
# BlockSend per directed message, a transport delivering each, then the
# deliveries summed in send order and the owned dofs gathered per PE.


@dataclass(frozen=True)
class BlockSend:
    src: int
    dst: int
    dof_dst: np.ndarray
    payload: np.ndarray


def build_sends(y_locals, pairs):
    sends = []
    for a, b, pos_a, pos_b in pairs:
        sends.append(BlockSend(a, b, pos_b, y_locals[a][pos_a]))
        sends.append(BlockSend(b, a, pos_a, y_locals[b][pos_b]))
    return sends


def apply_sends(y_locals, delivered):
    for send, payload in delivered:
        y_locals[send.dst][send.dof_dst] += payload
    return y_locals


class CleanTransport:
    def transmit(self, send, step, stats, words_sent, blocks_sent):
        words_sent[send.src] += send.payload.size
        blocks_sent[send.src] += 1
        return send.payload


class MiddlewareTransport:
    """The fault middleware on the walk's messages."""

    def __init__(self, middleware: FaultMiddleware) -> None:
        self.middleware = middleware

    def transmit(self, send, step, stats, words_sent, blocks_sent):
        return self.middleware.transmit(
            send.src, send.dst, send.payload, step, stats, words_sent,
            blocks_sent,
        )


def walk_exchange(y_locals, pairs, transport, step=0):
    parts = len(y_locals)
    words = np.zeros(parts, dtype=np.int64)
    blocks = np.zeros(parts, dtype=np.int64)
    stats = None if isinstance(transport, CleanTransport) else FaultStats()
    delivered = []
    for send in build_sends(y_locals, pairs):
        delivered.append(
            (send, transport.transmit(send, step, stats, words, blocks))
        )
    apply_sends(y_locals, delivered)
    return ExchangeRecord(words, blocks, faults=stats)


def walk_multiply(ds: DistributedSMVP, x, transport=None, step=0):
    """The oracle superstep over copies of ``ds``'s local products."""
    y_locals = [y.copy() for y in ds.compute_phase(ds.scatter(x))]
    record = walk_exchange(
        y_locals, ds.schedule.pairs, transport or CleanTransport(), step
    )
    out = np.empty(x.shape)
    layout = ds.layout
    for y, src, dst in zip(y_locals, layout.gather_src, layout.gather_dst):
        out[dst] = y[src]
    return out, record


def built_segments(ds: DistributedSMVP) -> bool:
    """Whether the compiled plan has built its message table."""
    return ds.layout.plan._segments is not None


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
            want, _ = walk_multiply(ref, x_block)
            want_columns = [
                walk_multiply(ref, x_block[:, j].copy())[0] for j in range(R)
            ]
        for j in range(R):  # the reference itself is column-consistent
            assert np.array_equal(want[:, j], want_columns[j])
        for backend in ("serial", "threaded", "overlap"):
            with DistributedSMVP(
                demo_mesh, partition, demo_materials, backend=backend
            ) as ds:
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
                assert not built_segments(ds)  # nothing read messages

    @pytest.mark.parametrize("backend", ["serial", "threaded", "overlap"])
    def test_public_phases_compose_to_the_flat_path(
        self, demo_mesh, demo_materials, partition8, x_block, backend
    ):
        """scatter → compute_phase → communication_phase → gather over
        the layout's own slices runs in place on the y buffer, and
        equals multiply."""
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend
        ) as ds:
            for x in (x_block[:, 0].copy(), x_block):
                want = ds.multiply(x)
                y_locals = ds.compute_phase(ds.scatter(x))
                slices = list(y_locals)
                y_locals, record = ds.communication_phase(y_locals)
                assert all(map(np.shares_memory, y_locals, slices))
                got = ds.gather(y_locals)
                assert np.array_equal(got, want)
                width = x.shape[1] if x.ndim == 2 else 1
                assert np.array_equal(
                    record.words_sent,
                    width * ds.schedule.word_matrix.sum(axis=1),
                )
                assert record.faults is None
            assert not built_segments(ds)

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

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pes=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
        r=st.sampled_from([1, R]),
        backend=st.sampled_from(["serial", "threaded", "overlap"]),
        rates=st.tuples(
            *(st.sampled_from([0.0, 0.05, 0.2, 0.3]) for _ in range(3))
        ),
        max_retries=st.sampled_from([1, 2, 8]),
        quarantine=st.sets(st.integers(min_value=0, max_value=15), max_size=3),
    )
    @example(
        pes=8, seed=1, r=R, backend="threaded", rates=(0.2, 0.2, 0.2),
        max_retries=8, quarantine={2},
    )
    @example(  # a retry budget this small fails somewhere
        pes=16, seed=5, r=1, backend="serial", rates=(0.3, 0.3, 0.0),
        max_retries=1, quarantine=set(),
    )
    def test_fault_middleware_on_segments_equals_the_walk(
        self, demo_mesh, demo_materials, x_block, pes, seed, r, backend,
        rates, max_retries, quarantine,
    ):
        drop, flip, dup = rates
        injector = FaultInjector(
            FaultConfig(
                seed=seed, drop_rate=drop, bitflip_rate=flip,
                duplicate_rate=dup, max_retries=max_retries,
            )
        )
        quarantined = frozenset(q for q in quarantine if q < pes)
        partition = scrambled_partition(demo_mesh, pes, seed)
        x = x_block[:, :r].copy() if r > 1 else x_block[:, 0].copy()
        middleware = FaultMiddleware(injector, quarantined)
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ref:
            try:
                want, walked = walk_multiply(
                    ref, x, MiddlewareTransport(middleware)
                )
                failed = None
            except ExchangeFaultError as exc:
                failed = (exc.src, exc.dst, exc.step)
        log = TraceLog()
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, backend=backend,
            injector=injector, trace_sink=log,
        ) as ds:
            for pe in sorted(quarantined):
                ds.quarantine(pe)
            if failed is not None:
                with pytest.raises(ExchangeFaultError) as err:
                    ds.multiply(x)
                exc = err.value
                assert (exc.src, exc.dst, exc.step) == failed
                assert ds._superstep == 1
                return
            got = ds.multiply(x)
        assert np.array_equal(got, want)
        (trace,) = log.traces
        if not injector.comm_enabled:
            assert trace.faults is None
            return
        assert trace.faults == walked.faults
        assert trace.faults.quarantined_blocks == sum(
            2 for a, b, _, _ in ds.schedule.pairs
            if a in quarantined or b in quarantined
        )
        assert np.array_equal(trace.words_sent, walked.words_sent)
        assert np.array_equal(trace.blocks_sent, walked.blocks_sent)
        assert ds.transport_stats == walked.faults


# ---------------------------------------------------------------------------
# The plan itself


class TestPlan:
    @pytest.fixture(scope="class", params=[(4, 7), (8, 2), (16, 5)])
    def executor(self, request, demo_mesh, demo_materials):
        pes, seed = request.param
        partition = scrambled_partition(demo_mesh, pes, seed)
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ds:
            yield ds

    def test_rounds_are_max_residency_minus_one(self, executor):
        plan = executor.layout.plan
        residency = int(executor.distribution.node_residency.max())
        assert residency >= 3
        assert len(plan.rounds) == residency - 1
        sizes = [hi - lo for _, lo, hi in plan.rounds]
        assert sizes == sorted(sizes, reverse=True)  # k-th needs (k-1)-th

    def test_destinations_unique_within_a_round(self, executor):
        plan = executor.layout.plan
        covered = 0
        for dst, lo, hi in plan.rounds:
            assert dst.size == hi - lo
            assert np.unique(dst).size == dst.size
            assert lo == covered  # rounds tile the snapshot
            covered = hi
        assert covered == plan.send_pos.size

    def test_static_traffic_is_the_schedules(self, executor):
        plan = executor.layout.plan
        matrix = executor.schedule.word_matrix
        assert np.array_equal(plan.words_sent, matrix.sum(axis=1))
        assert np.array_equal(plan.blocks_sent, (matrix > 0).sum(axis=1))
        assert plan.send_pos.size == executor.schedule.total_words
        assert int(plan.blocks_sent.sum()) == executor.schedule.total_blocks

    def test_segments_tile_the_snapshot_in_send_order(self, executor):
        """Every word of the snapshot belongs to exactly one message;
        each message reads its words from its source's slice and sums
        them into its destination's, in the pair table's order."""
        layout = executor.layout
        plan = layout.plan
        offsets = plan.offsets
        table = plan.segments()
        assert len(table) == executor.schedule.total_blocks
        expected = [
            (src, dst)
            for a, b, _, _ in layout.schedule.pairs
            for src, dst in ((a, b), (b, a))
        ]
        assert [(s.src, s.dst) for s in table] == expected
        at = np.concatenate([s.at for s in table])
        assert np.array_equal(np.sort(at), np.arange(plan.send_pos.size))
        for seg in table:
            assert np.array_equal(plan.send_pos[seg.at], seg.send_pos)
            lo, hi = offsets[seg.src], offsets[seg.src + 1]
            assert np.all((lo <= seg.send_pos) & (seg.send_pos < hi))
        dst_of = np.empty(plan.send_pos.size, dtype=np.int64)
        for dst, lo, hi in plan.rounds:
            dst_of[lo:hi] = dst
        for seg in table:
            assert np.array_equal(
                dst_of[seg.at], offsets[seg.dst] + seg.dof_dst
            )

    def test_round_k_is_the_kth_contribution_in_send_order(self, executor):
        """Replay the pair table message by message on integer tags:
        the plan applies, to every destination, the same sources in
        the same order."""
        layout = executor.layout
        plan, offsets = layout.plan, layout.offsets
        history = {}
        for a, b, pos_a, pos_b in layout.schedule.pairs:
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
        assert plan.segments() == []


# ---------------------------------------------------------------------------
# The compiled pass: the snapshot and the rounds in C, numpy's bits

#: Values whose sums a reordered or fused pass would change.
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, 1.0, -1.0)
VALUES = st.one_of(
    st.sampled_from(SPECIAL), st.floats(-1e6, 1e6, allow_nan=False, width=64)
)

@st.composite
def random_plans(draw):
    """A pair table over 2..6 PEs whose shared dofs each reside on 2..5
    of them (plus private rows), compiled into a plan, and a buffer of
    width r in {1, 3, 16} full of special values."""
    pes = draw(st.integers(2, 6))
    homes = draw(
        st.lists(
            st.sets(st.integers(0, pes - 1), min_size=1, max_size=min(5, pes)),
            max_size=25,
        )
    )
    rows = [sorted(d for d, home in enumerate(homes) if pe in home) for pe in range(pes)]
    pairs = []
    for a in range(pes):
        for b in range(a + 1, pes):
            shared = sorted(set(rows[a]) & set(rows[b]))
            if shared:
                pos_a = np.searchsorted(rows[a], shared).astype(np.int64)
                pos_b = np.searchsorted(rows[b], shared).astype(np.int64)
                pairs.append((a, b, pos_a, pos_b))
    offsets = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    plan = ExchangePlan(pairs, offsets.astype(np.int64))
    r = draw(st.sampled_from([1, 3, 16]))
    shape = (int(offsets[-1]),) + ((r,) if r > 1 else ())
    return plan, draw(arrays(np.float64, shape, elements=VALUES))


def same_bits(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


class TestCompiledSums:
    @settings(max_examples=200, deadline=None)
    @given(random_plans(), st.booleans())
    def test_pass_is_numpys_rounds(self, problem, take):
        """Snapshot and sums in one pass, or sums over a snapshot filled
        beforehand (as the middleware and wire spans fill it): the bits
        of ``np.take`` + :func:`apply_rounds`."""
        plan, buffer = problem
        assert len(plan.rounds) <= 4
        want, got = buffer.copy(), buffer.copy()
        snapshot = np.take(buffer, plan.send_pos, axis=0)
        if not take:  # delivered payloads that differ from the buffer
            snapshot = snapshot[::-1].copy()
        with np.errstate(invalid="ignore"):  # inf + -inf is the point
            apply_rounds(want, snapshot.copy(), plan.rounds)
        mine = np.full_like(snapshot, np.nan) if take else snapshot.copy()
        sum_sends(plan, got, mine, take)
        assert same_bits(got, want)
        assert same_bits(mine, snapshot)

    def test_numpy_rounds_only_for_buffers_the_pass_does_not_take(
        self, monkeypatch
    ):
        plan = ExchangePlan(
            [(0, 1, np.array([0, 1]), np.array([1, 0]))], np.array([0, 2, 4])
        )
        rounds = []
        apply = exchange_module.apply_rounds
        monkeypatch.setattr(
            exchange_module, "apply_rounds",
            lambda *args: rounds.append(args) or apply(*args),
        )
        buffer = np.arange(4.0)
        sum_sends(plan, buffer, np.empty(4), take=True)
        assert rounds == [] and buffer.tolist() == [3.0, 3.0, 3.0, 3.0]
        for buffer, snapshot in (
            (np.arange(4.0, dtype=np.float32), np.empty(4, np.float32)),
            ((np.arange(8.0) / 2)[::2], np.empty(4)),
        ):
            sum_sends(plan, buffer, snapshot, take=True)
            assert buffer.tolist() == [3.0, 3.0, 3.0, 3.0]
        assert len(rounds) == 2

    @pytest.mark.parametrize(
        "rows, words", [((5,), (4,)), ((4,), (3,)), ((4, 2), (4,)), ((4,), (4, 2))]
    )
    def test_mismatched_buffers_refused(self, rows, words):
        """The pass indexes the buffer by the plan's positions and the
        snapshot by its words: any other shape is refused, untouched."""
        plan = ExchangePlan(
            [(0, 1, np.array([0, 1]), np.array([1, 0]))], np.array([0, 2, 4])
        )
        buffer, snapshot = np.full(rows, 2.0), np.full(words, 3.0)
        with pytest.raises(ValueError, match="exchange over 4 rows"):
            sum_sends(plan, buffer, snapshot, take=True)
        assert np.all(buffer == 2.0) and np.all(snapshot == 3.0)

    @pytest.mark.parametrize("observer", ["faults", "profile", "plain"])
    def test_observed_exchanges_sum_through_the_pass(
        self, monkeypatch, demo_mesh, demo_materials, partition8, x_block,
        observer,
    ):
        """The fault middleware and the wire-span recorder fill the
        snapshot message by message, then sum through the same pass
        (``take`` off); the product is the message-by-message oracle's
        bit for bit."""
        ffi, lib = native()
        takes = []

        class Spy:
            def exchange_sum(self, *args):
                takes.append(args[4])
                return lib.exchange_sum(*args)

        log = TraceLog()
        options = {
            "faults": dict(
                injector=FaultInjector(
                    FaultConfig(seed=4, drop_rate=0.2, bitflip_rate=0.2)
                ),
                trace_sink=log,
            ),
            "profile": dict(profile=True, trace_sink=log),
            "plain": {},
        }[observer]
        x = x_block[:, :R].copy()
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, **options
        ) as ds:
            monkeypatch.setattr(exchange_module, "native", lambda: (ffi, Spy()))
            y = ds.multiply(x)
            want, walked = walk_multiply(ds, x)
        assert takes == [observer == "plain"]
        assert np.array_equal(y, want)
        if observer == "faults":
            assert log.traces[0].faults.retransmits > 0
        if observer == "profile":
            assert np.array_equal(log.traces[0].words_sent, walked.words_sent)


# ---------------------------------------------------------------------------
# One schedule: the layout and its plan read its pairs.


def layout_of(mesh, partition) -> SuperstepLayout:
    """A layout over ``partition``'s schedule (no matrices: the pair
    table and plan need none)."""
    return SuperstepLayout(CommSchedule(DataDistribution(mesh, partition)))


def schedule_sends(schedule):
    """The dst-local dofs every directed message delivers, per the
    schedule's pair table."""
    sends = {}
    for a, b, dof_a, dof_b in schedule.pairs:
        sends[(a, b)], sends[(b, a)] = dof_b, dof_a
    return sends


class TestOneSchedule:
    @settings(max_examples=15, deadline=None)
    @given(
        pes=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(pes=16, seed=5)
    def test_layout_and_plan_read_the_schedule(self, demo_mesh, pes, seed):
        """The plan is compiled from the schedule's own pair table (no
        copy to go stale), and its messages are the schedule's sends."""
        partition = scrambled_partition(demo_mesh, pes, seed)
        layout = layout_of(demo_mesh, partition)
        schedule = layout.schedule
        plan = layout.plan
        assert plan.pairs is schedule.pairs
        assert not hasattr(layout, "pairs")
        matrix = schedule.word_matrix
        assert np.array_equal(plan.words_sent, matrix.sum(axis=1))
        assert np.array_equal(plan.blocks_sent, (matrix > 0).sum(axis=1))
        want = schedule_sends(schedule)
        got = {(seg.src, seg.dst): seg.dof_dst for seg in plan.segments()}
        assert sorted(got) == sorted(want)
        for key, dofs in want.items():
            assert np.array_equal(got[key], dofs)


class TestPlanChecks:
    def test_every_compiled_plan_is_checked(
        self, demo_mesh, sf10e_mesh, monkeypatch
    ):
        """Each layout's plan is compiled and proved once, when the
        layout is built (the round checks are part of the proof)."""
        import repro.smvp.layout as layout_module

        checked = []

        def counted(layout):
            checked.append(layout.plan)
            check_layout(layout)

        monkeypatch.setattr(layout_module, "check_layout", counted)
        for mesh, pes in ((demo_mesh, 8), (sf10e_mesh, 16)):
            layout = layout_of(mesh, scrambled_partition(mesh, pes, 5))
            plans = [layout.plan, layout.plan]
            assert plans[1] is plans[0] is checked[-1]  # compiled, checked once
        assert len(checked) == 2

    @pytest.mark.parametrize("empty", [0, 3, 7])
    def test_empty_pe_refused(self, demo_mesh, demo_materials, partition8, empty):
        """A PE that owns no element would drop out of the exchange."""
        parts = partition8.parts.copy()
        parts[parts == empty] = (empty + 1) % 8
        partition = Partition(parts, 8)
        with pytest.raises(PartitionError, match=f"PE {empty} owns no elements"):
            DataDistribution(demo_mesh, partition)
        with pytest.raises(PartitionError, match=f"PE {empty} owns no elements"):
            DistributedSMVP(demo_mesh, partition, demo_materials)


# ---------------------------------------------------------------------------
# Path selection: there is one path.  What used to select a second one
# (an observer, a profiler, an injector, foreign arrays, a new layout)
# now only reads or feeds the one plan.


class TestPathSelection:
    @pytest.mark.parametrize("backend", ["serial", "threaded", "overlap"])
    @pytest.mark.parametrize("sink", [False, True], ids=["bare", "sink"])
    def test_unobserved_multiply_builds_no_message(
        self, demo_mesh, demo_materials, partition8, x_block, backend, sink
    ):
        """No observer: the snapshot is one take and the message table
        is never built (an unobserved run's memory does not move)."""
        log = TraceLog() if sink else None
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend,
            trace_sink=log,
        ) as ds:
            for step in range(3):
                ds.multiply(x_block[:, step].copy())
                assert ds._superstep == step + 1
            assert not built_segments(ds)
            if log is not None:
                for trace in log.traces:
                    assert trace.pe_spans is None and trace.faults is None
                    assert np.array_equal(
                        trace.words_sent, ds.schedule.word_matrix.sum(axis=1)
                    )
                    assert trace.total_blocks == ds.schedule.total_blocks
                    assert trace.t_comm > 0.0

    @pytest.mark.parametrize("backend", ["serial", "overlap"])
    @pytest.mark.parametrize(
        "options",
        [{"abft": True}, {"profile": True}, {"injector": 0}],
        ids=lambda o: next(iter(o)),
    )
    def test_message_observers_see_every_block(
        self, demo_mesh, demo_materials, partition8, x_block, backend, options,
        monkeypatch,
    ):
        options = dict(options)
        log = TraceLog() if "profile" in options else None
        if "injector" in options:
            options["injector"] = FaultInjector(
                FaultConfig(seed=5, drop_rate=0.1, duplicate_rate=0.05)
            )
        sent = []
        transmit = FaultMiddleware.transmit

        def counted(self, src, dst, *rest):
            sent.append((src, dst))
            return transmit(self, src, dst, *rest)

        monkeypatch.setattr(FaultMiddleware, "transmit", counted)
        x = x_block[:, 0].copy()
        with DistributedSMVP(demo_mesh, partition8, demo_materials) as plain:
            want = plain.multiply(x)
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend,
            trace_sink=log, **options,
        ) as ds:
            blocks = ds.schedule.total_blocks
            seen = []
            observer = ds._observer
            if observer is not None:  # what the ABFT guard is handed
                inner = observer.after_exchange

                def after_exchange(x_locals, messages, y_locals):
                    seen.append(len(messages))
                    return inner(x_locals, messages, y_locals)

                observer.after_exchange = after_exchange
            assert np.array_equal(ds.multiply(x), want)
            assert ds._superstep == 1
            if observer is not None:
                assert seen == [blocks]
            if log is not None:
                (trace,) = log.traces
                wires = [s for s in trace.pe_spans if s.kind == "wire"]
                assert len(wires) == blocks
                assert sum(s.words for s in wires) == ds.schedule.total_words
            if "injector" in options:
                assert len(sent) == blocks
                assert sorted(sent) == sorted(
                    (s.src, s.dst) for s in ds.layout.plan.segments()
                )
                stats = ds.transport_stats
                assert stats.any_injected and stats.fully_recovered()
            else:
                assert sent == []

    def test_profile_without_a_sink_stays_flat(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, profile=True
        ) as ds:
            ds.multiply(x_block[:, 0].copy())
            assert not built_segments(ds)

    def test_quarantine_without_comm_faults_stays_flat(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        """Quarantine reroutes blocks inside the fault middleware; with
        no communication-fault injector the wire is clean and it is
        moot."""
        with DistributedSMVP(demo_mesh, partition8, demo_materials) as ds:
            ds.quarantine(1)
            ds.multiply(x_block[:, 0].copy())
            assert not built_segments(ds)

    @pytest.mark.parametrize("backend", ["serial", "overlap"])
    @pytest.mark.parametrize("profile", [False, True], ids=["plain", "profiled"])
    def test_no_superstep_starts_a_thread(
        self, demo_mesh, demo_materials, partition8, x_block, monkeypatch,
        backend, profile,
    ):
        """The snapshot, the wire spans and the fault middleware all run
        inline."""
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        with DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend,
            trace_sink=TraceLog(), profile=profile,
            injector=FaultInjector(FaultConfig(seed=3, drop_rate=0.1)),
        ) as ds:
            for step in range(3):
                ds.multiply(x_block[:, step].copy())
        assert started == []

    def test_foreign_arrays_run_the_plan(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        """A caller's own per-PE arrays are copied into the y buffer,
        exchanged by the plan and summed back into them in place: the
        oracle's partials, bit for bit."""
        x = x_block[:, 0].copy()
        with DistributedSMVP(demo_mesh, partition8, demo_materials) as ds:
            want = ds.multiply(x)
            oracle = [y.copy() for y in ds.compute_phase(ds.scatter(x))]
            walk_exchange(oracle, ds.schedule.pairs, CleanTransport())
            mine = [y.copy() for y in ds.compute_phase(ds.scatter(x))]
            arrays = list(mine)
            got, record = ds.communication_phase(arrays)
            assert got is arrays and all(map(np.may_share_memory, got, mine))
            for y, w in zip(mine, oracle):
                assert np.array_equal(y, w)
            assert np.array_equal(ds.gather(mine), want)
            assert record.faults is None
            assert not built_segments(ds)

    @pytest.mark.parametrize("backend", ["serial", "overlap", "threaded"])
    def test_successors_compile_their_own_plan(
        self, demo_mesh, demo_materials, partition8, x_block, backend
    ):
        """Mid-run evict: the successor's multiply equals a from-scratch
        executor's and the oracle walk's."""
        x = x_block[:, 0].copy()
        first = DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend
        )
        first.multiply(x)
        evicted, _ = first.reconfigure_without(2)
        try:
            assert evicted.layout.plan is not first.layout.plan
            assert evicted.num_parts == 7
            got = evicted.multiply(x)
            # inherited the counter before it multiplied
            assert evicted._superstep == first._superstep + 1
            with DistributedSMVP(
                demo_mesh, evicted.partition, demo_materials
            ) as fresh:
                assert np.array_equal(got, fresh.multiply(x))
                assert np.array_equal(got, walk_multiply(fresh, x)[0])
        finally:
            for ds in (first, evicted):
                ds.close()
