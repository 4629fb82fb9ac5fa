"""Property tests for the BSP exchange-schedule invariants.

The paper's model rests on the exchange being a symmetric pairwise
bulk-synchronous schedule.  These tests sweep every registered
partitioner across mesh instances and PE counts and assert the checker
finds nothing — then hand the checker deliberately broken schedules
(asymmetric, deadlocking, under-covering) and assert it rejects each
one for the right reason.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedule_check import (
    check_coverage,
    check_messages,
    check_parity,
    check_rounds,
    check_schedule,
)
from repro.partition import PARTITIONERS, register_all
from repro.partition.base import partition_mesh
from repro.partition.refine import smooth_partition
from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import CommSchedule

register_all()


def build_schedule(mesh, num_parts, method, seed=0, smooth=False):
    partition = partition_mesh(mesh, num_parts, method=method, seed=seed)
    if smooth:
        partition = smooth_partition(mesh, partition)
    dist = DataDistribution(mesh, partition)
    return dist, CommSchedule(dist)


class TestRealSchedulesAreValid:
    """Every partitioner x instance x p yields an invariant-clean schedule."""

    @pytest.mark.parametrize("method", sorted(PARTITIONERS))
    @pytest.mark.parametrize("num_parts", [2, 5, 8])
    def test_demo_all_partitioners(self, demo_mesh, method, num_parts):
        dist, schedule = build_schedule(demo_mesh, num_parts, method)
        report = check_schedule(schedule, dist)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("method", ["rcb", "inertial"])
    def test_sf10e_instance(self, sf10e_mesh, method):
        dist, schedule = build_schedule(sf10e_mesh, 16, method)
        report = check_schedule(schedule, dist)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seed_sweep_with_smoothing(self, demo_mesh, seed):
        """Refined (smoothed) partitions keep every invariant too."""
        dist, schedule = build_schedule(
            demo_mesh, 8, "rcb", seed=seed, smooth=True
        )
        report = check_schedule(schedule, dist)
        assert report.ok, report.summary()

    def test_word_matrix_symmetry_and_parity(self, demo_mesh):
        dist, schedule = build_schedule(demo_mesh, 8, "rcb")
        mat = schedule.word_matrix
        assert np.array_equal(mat, mat.T)
        assert np.all(schedule.words_per_pe % 2 == 0)
        assert np.all(schedule.words_per_pe % 3 == 0)


class _StubSchedule:
    """A minimal schedule stand-in for feeding doctored message lists."""

    def __init__(self, num_parts, messages):
        self.num_parts = num_parts
        self.messages = messages


class TestCheckerRejectsBrokenSchedules:
    def test_asymmetric_message_set(self):
        violations = check_messages([(0, 1, 6), (1, 0, 6), (2, 0, 3)], 3)
        assert any(v.kind == "asymmetry" for v in violations)

    def test_unequal_exchange(self):
        violations = check_messages([(0, 1, 6), (1, 0, 9)], 2)
        assert any(
            v.kind == "asymmetry" and "unequal" in v.message
            for v in violations
        )

    def test_self_message_and_range(self):
        violations = check_messages([(0, 0, 3), (0, 5, 3)], 2)
        kinds = [v.kind for v in violations]
        assert kinds.count("malformed") == 2

    def test_parity_catches_odd_and_non_triple(self):
        # C_i sums sends and receives, so an unmatched 5-word send
        # leaves C_0 = C_1 = 5, odd.
        violations = check_parity([(0, 1, 5)], 2)
        assert any("odd" in v.message for v in violations)
        violations = check_parity([(0, 1, 4), (1, 0, 4)], 2)
        assert any("multiple of 3" in v.message for v in violations)

    def test_deadlock_ring_rejected(self):
        """The classic 0->1->2->0 blocking-sendrecv hang."""
        violations = check_rounds([[(0, 1), (1, 2), (2, 0)]], 3)
        assert any(v.kind == "deadlock" for v in violations)
        assert sum(v.kind == "asymmetry" for v in violations) == 3

    def test_conflicting_round_rejected(self):
        """One PE in two exchanges in the same round is not a matching."""
        sends = [(0, 1), (1, 0), (1, 2), (2, 1)]
        violations = check_rounds([sends], 3)
        assert any(v.kind == "conflict" for v in violations)

    def test_valid_rounds_accepted(self):
        rounds = [[(0, 1), (1, 0)], [(0, 2), (2, 0)], [(1, 2), (2, 1)]]
        messages = [
            (0, 1, 6),
            (1, 0, 6),
            (0, 2, 3),
            (2, 0, 3),
            (1, 2, 3),
            (2, 1, 3),
        ]
        assert check_rounds(rounds, 3, messages=messages) == []

    def test_round_message_cross_check(self):
        rounds = [[(0, 1), (1, 0)]]
        messages = [(0, 1, 3), (1, 0, 3), (1, 2, 3), (2, 1, 3)]
        violations = check_rounds(rounds, 3, messages=messages)
        assert any(
            v.kind == "coverage" and "(1, 2)" in v.message
            for v in violations
        )

    def test_dropped_message_breaks_coverage(self, demo_mesh):
        dist, schedule = build_schedule(demo_mesh, 4, "rcb")
        truncated = _StubSchedule(4, schedule.messages[:-1])
        violations = check_coverage(truncated, dist)
        assert any(v.kind == "coverage" for v in violations)

    def test_tampered_word_count_breaks_coverage(self, demo_mesh):
        from repro.smvp.schedule import Message

        dist, schedule = build_schedule(demo_mesh, 4, "rcb")
        msgs = list(schedule.messages)
        msgs[0] = Message(
            src=msgs[0].src, dst=msgs[0].dst, nodes=msgs[0].nodes + 1
        )
        violations = check_coverage(_StubSchedule(4, msgs), dist)
        assert any(
            v.kind == "coverage" and "require" in v.message
            for v in violations
        )

    def test_phantom_pair_breaks_coverage(self, demo_mesh):
        """A message between PEs sharing no nodes is flagged."""
        from repro.smvp.schedule import Message

        dist, schedule = build_schedule(demo_mesh, 8, "rcb")
        pairs = set(dist.pair_shared_nodes)
        phantom = next(
            (a, b)
            for a in range(8)
            for b in range(a + 1, 8)
            if (a, b) not in pairs
        )
        msgs = list(schedule.messages) + [
            Message(src=phantom[0], dst=phantom[1], nodes=1),
            Message(src=phantom[1], dst=phantom[0], nodes=1),
        ]
        violations = check_coverage(_StubSchedule(8, msgs), dist)
        assert any(
            v.kind == "coverage" and "share no nodes" in v.message
            for v in violations
        )


class TestHypothesisSchedules:
    """Randomized symmetric schedules pass; random mutations fail."""

    @staticmethod
    def _symmetric_messages(pair_nodes):
        msgs = []
        for (a, b), nodes in pair_nodes.items():
            msgs.append((a, b, 3 * nodes))
            msgs.append((b, a, 3 * nodes))
        return msgs

    @given(
        num_parts=st.integers(2, 12),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_symmetric_pairwise_schedule_passes(self, num_parts, data):
        pairs = [
            (a, b)
            for a in range(num_parts)
            for b in range(a + 1, num_parts)
        ]
        chosen = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, min_size=1)
        )
        pair_nodes = {
            pair: data.draw(st.integers(1, 50), label=f"nodes{pair}")
            for pair in chosen
        }
        msgs = self._symmetric_messages(pair_nodes)
        assert check_messages(msgs, num_parts) == []
        assert check_parity(msgs, num_parts) == []

    @given(num_parts=st.integers(3, 12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_dropping_any_direction_fails(self, num_parts, data):
        pairs = [
            (a, b)
            for a in range(num_parts)
            for b in range(a + 1, num_parts)
        ]
        chosen = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, min_size=1)
        )
        pair_nodes = {pair: 2 for pair in chosen}
        msgs = self._symmetric_messages(pair_nodes)
        victim = data.draw(st.integers(0, len(msgs) - 1))
        del msgs[victim]
        assert any(
            v.kind == "asymmetry" for v in check_messages(msgs, num_parts)
        )
