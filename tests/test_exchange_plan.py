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
  per-PE traffic and failing link; ABFT, the sanitizer, wire spans and
  the middleware each see every message.
* **The plan itself** — rounds = max residency - 1, destinations unique
  inside a round, every word sent once, per-PE words / blocks equal to
  ``CommSchedule``'s, the message table tiles the snapshot.
* **One schedule** — the layout's pair table is a copy of
  ``CommSchedule.pairs``, the sanitizer's expected sends come from the
  schedule (not the copy the race fixtures tamper with), and under
  ``REPRO_CONTRACTS=1`` a plan with a repeated destination in a round
  or a word outside every round is refused.
* **Path selection** — there is one path: an unobserved multiply never
  builds the message table, no superstep starts a thread, foreign
  per-PE arrays run the same plan, evict / grow successors compile
  their own plan, a replaced pair table drops the compiled plan.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import ContractViolation, check_plan_contract
from repro.analysis.ownership import exchange_phase, reads_ghosts
from repro.analysis.sanitizer import SuperstepSanitizer
from repro.faults import FaultConfig, FaultInjector
from repro.faults.detection import FaultStats
from repro.faults.errors import ExchangeFaultError
from repro.partition.base import Partition, partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.smvp.exchange import ExchangePlan, ExchangeRecord, FaultMiddleware
from repro.smvp.executor import DistributedSMVP
from repro.smvp.layout import SuperstepLayout
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import TraceLog

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


@reads_ghosts("y_locals")
def build_sends(y_locals, pairs):
    sends = []
    for a, b, pos_a, pos_b in pairs:
        sends.append(BlockSend(a, b, pos_b, y_locals[a][pos_a]))
        sends.append(BlockSend(b, a, pos_a, y_locals[b][pos_b]))
    return sends


@exchange_phase("y_locals")
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
        y_locals, ds.layout.pairs, transport or CleanTransport(), step
    )
    out = np.empty(x.shape)
    layout = ds.layout
    for y, src, dst in zip(y_locals, layout.gather_src, layout.gather_dst):
        out[dst] = y[src]
    return out, record


def built_segments(ds: DistributedSMVP) -> bool:
    """Whether the compiled plan has built its message table."""
    plan = ds.layout._plan
    return plan is not None and plan._segments is not None


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
            2 for a, b, _, _ in ds.layout.pairs
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
        plan = executor.layout.plan()
        residency = int(executor.distribution.node_residency.max())
        assert residency >= 3
        assert len(plan.rounds) == residency - 1
        sizes = [hi - lo for _, lo, hi in plan.rounds]
        assert sizes == sorted(sizes, reverse=True)  # k-th needs (k-1)-th

    def test_destinations_unique_within_a_round(self, executor):
        plan = executor.layout.plan()
        covered = 0
        for dst, lo, hi in plan.rounds:
            assert dst.size == hi - lo
            assert np.unique(dst).size == dst.size
            assert lo == covered  # rounds tile the snapshot
            covered = hi
        assert covered == plan.send_pos.size

    def test_static_traffic_is_the_schedules(self, executor):
        plan = executor.layout.plan()
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
        plan = layout.plan()
        offsets = plan.offsets
        table = plan.segments()
        assert len(table) == executor.schedule.total_blocks
        expected = [
            (src, dst)
            for a, b, _, _ in layout.pairs
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
        assert plan.segments() == []

    def test_replacing_the_pair_table_drops_the_plan(
        self, demo_mesh, demo_materials, partition8, x_block
    ):
        x = x_block[:, 0].copy()
        with DistributedSMVP(demo_mesh, partition8, demo_materials) as ds:
            want = ds.multiply(x)
            layout = ds.layout
            stale = layout.plan()
            layout.replace_pairs(layout.pairs[1:])
            assert layout.plan() is not stale
            assert layout.plan().send_pos.size < stale.send_pos.size
            assert not np.array_equal(ds.multiply(x), want)  # a pair short


# ---------------------------------------------------------------------------
# One schedule: the layout, the sanitizer and the plans read its pairs.


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
    def test_layout_sanitizer_and_plans_read_the_schedule(
        self, demo_mesh, pes, seed
    ):
        partition = scrambled_partition(demo_mesh, pes, seed)
        layout = layout_of(demo_mesh, partition)
        schedule = layout.schedule
        assert len(layout.pairs) == len(schedule.pairs)
        for mine, theirs in zip(layout.pairs, schedule.pairs):
            assert mine[:2] == theirs[:2]
            assert np.array_equal(mine[2], theirs[2])
            assert np.array_equal(mine[3], theirs[3])
        matrix = schedule.word_matrix
        plan = layout.plan()
        assert np.array_equal(plan.words_sent, matrix.sum(axis=1))
        assert np.array_equal(plan.blocks_sent, (matrix > 0).sum(axis=1))
        # Tampering with the layout's copy leaves the schedule, and so
        # the sanitizer's expected sends, untouched.
        layout.replace_pairs(layout.pairs[1:])
        assert len(schedule.pairs) == len(layout.pairs) + 1
        expected = SuperstepSanitizer.for_layout(layout).expected_sends
        want = schedule_sends(schedule)
        assert sorted(expected) == sorted(want)
        for key, dofs in want.items():
            assert np.array_equal(expected[key], np.unique(dofs))


class TestPlanContract:
    @pytest.fixture
    def contracts(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")

    @pytest.fixture(scope="class")
    def plan(self, demo_mesh, partition8):
        return layout_of(demo_mesh, partition8).plan()

    def test_real_plans_pass_and_every_compiled_plan_is_checked(
        self, contracts, demo_mesh, sf10e_mesh, monkeypatch
    ):
        import repro.smvp.layout as layout_module

        checked = []

        def counted(plan):
            checked.append(plan)
            check_plan_contract(plan)

        monkeypatch.setattr(layout_module, "check_plan_contract", counted)
        for mesh, pes in ((demo_mesh, 8), (sf10e_mesh, 16)):
            layout = layout_of(mesh, scrambled_partition(mesh, pes, 5))
            plans = [layout.plan(), layout.plan()]
            assert plans[1] is plans[0] is checked[-1]  # compiled, checked once
        assert len(checked) == 2

    @staticmethod
    def doctored(plan, rounds) -> ExchangePlan:
        bad = copy.copy(plan)
        bad.rounds = rounds
        return bad

    def test_repeated_destination_refused(self, contracts, plan):
        """``buffer[dst] += ...`` would keep one of the two words."""
        dst, lo, hi = plan.rounds[0]
        dst = dst.copy()
        dst[1] = dst[0]
        bad = self.doctored(plan, [(dst, lo, hi)] + plan.rounds[1:])
        with pytest.raises(ContractViolation, match="repeats a destination"):
            check_plan_contract(bad)

    def test_dropped_word_refused(self, contracts, plan):
        dst, lo, hi = plan.rounds[-1]
        bad = self.doctored(plan, plan.rounds[:-1] + [(dst[:-1], lo, hi - 1)])
        with pytest.raises(ContractViolation, match="rounds cover"):
            check_plan_contract(bad)

    def test_contract_is_off_by_default(self, monkeypatch, plan):
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        check_plan_contract(self.doctored(plan, []))


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
        [{"abft": True}, {"sanitizer": True}, {"profile": True}, {"injector": 0}],
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
            if ds._checkers:  # what ABFT / the sanitizer are handed
                checker = ds._checkers[-1]
                inner = checker.after_exchange

                def after_exchange(x_locals, messages, y_locals):
                    seen.append(len(messages))
                    return inner(x_locals, messages, y_locals)

                checker.after_exchange = after_exchange
            assert np.array_equal(ds.multiply(x), want)
            assert ds._superstep == 1
            if ds._checkers:
                assert seen == [blocks]
            if log is not None:
                (trace,) = log.traces
                wires = [s for s in trace.pe_spans if s.kind == "wire"]
                assert len(wires) == blocks
                assert sum(s.words for s in wires) == ds.schedule.total_words
            if "injector" in options:
                assert len(sent) == blocks
                assert sorted(sent) == sorted(
                    (s.src, s.dst) for s in ds.layout.plan().segments()
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
            walk_exchange(oracle, ds.layout.pairs, CleanTransport())
            mine = [y.copy() for y in ds.compute_phase(ds.scatter(x))]
            arrays = list(mine)
            got, record = ds.communication_phase(arrays)
            assert got is arrays and all(map(np.may_share_memory, got, mine))
            for y, w in zip(mine, oracle):
                assert np.array_equal(y, w)
            assert np.array_equal(ds.gather(mine), want)
            assert record.faults is None
            assert not built_segments(ds)

    @pytest.mark.parametrize("backend", ["serial", "overlap"])
    def test_successors_compile_their_own_plan(
        self, demo_mesh, demo_materials, partition8, x_block, backend
    ):
        """Mid-run evict, then grow: each successor's multiply equals a
        from-scratch executor's and the oracle walk's."""
        x = x_block[:, 0].copy()
        first = DistributedSMVP(
            demo_mesh, partition8, demo_materials, backend=backend
        )
        first.multiply(x)
        evicted, _ = first.reconfigure_without(2)
        grown, _ = evicted.reconfigure_with()
        try:
            plans = [ds.layout.plan() for ds in (first, evicted, grown)]
            assert len({id(p) for p in plans}) == 3
            for ds, parts in ((evicted, 7), (grown, 8)):
                assert ds.num_parts == parts
                got = ds.multiply(x)
                # both inherited the counter before either multiplied
                assert ds._superstep == first._superstep + 1
                with DistributedSMVP(
                    demo_mesh, ds.partition, demo_materials
                ) as fresh:
                    assert np.array_equal(got, fresh.multiply(x))
                    assert np.array_equal(got, walk_multiply(fresh, x)[0])
        finally:
            for ds in (first, evicted, grown):
                ds.close()
