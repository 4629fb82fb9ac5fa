"""The exchange schedule's invariants, as properties of its construction.

The paper's model rests on the exchange being a symmetric pairwise
schedule: every message from i to j is matched by one from j to i of
equal length, so every C_i is even and divisible by 3 (Figure 7), and
every shared node is exchanged between every pair of PEs it resides on
(Section 2.3).  ``CommSchedule`` derives both directions of every pair
from the distribution's shared nodes, so these hold by construction.
The tests hold every partitioner's schedules to an independent oracle,
``word_matrix == 3 · offdiag(Rᵀ R)`` with R the node residency matrix,
and show that the superstep layout refuses a schedule or a
distribution that breaks symmetry or coverage before any superstep
runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import PARTITIONERS
from repro.partition.base import partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.smvp.layout import ContractViolation, SuperstepLayout
from repro.smvp.schedule import CommSchedule, Message
from tests.conftest import shared_word_oracle

def build_schedule(mesh, num_parts, method="geometric", seed=0):
    partition = partition_mesh(mesh, num_parts, method=method, seed=seed)
    dist = DataDistribution(mesh, partition)
    return dist, CommSchedule(dist)


def assert_schedule_invariants(dist, schedule):
    """Coverage (hence symmetry) against the residency oracle, one
    non-empty message per direction of every sharing pair (blocks are
    maximal), and the Figure 7 parity of every C_i."""
    assert np.array_equal(schedule.word_matrix, shared_word_oracle(dist))
    assert schedule.total_blocks == np.count_nonzero(schedule.word_matrix)
    assert np.all(schedule.words_per_pe % 6 == 0)


class TestRealSchedulesAreValid:
    """Every partitioner x instance x p yields an invariant-clean schedule."""

    @pytest.mark.parametrize("method", sorted(PARTITIONERS))
    @pytest.mark.parametrize("num_parts", [2, 3, 5, 8, 16, 33, 64])
    def test_demo_all_partitioners(self, demo_mesh, method, num_parts):
        assert_schedule_invariants(
            *build_schedule(demo_mesh, num_parts, method)
        )

    @pytest.mark.parametrize("num_parts", [8, 16, 64])
    @pytest.mark.parametrize("method", sorted(PARTITIONERS))
    def test_sf10e_instance(self, sf10e_mesh, method, num_parts):
        assert_schedule_invariants(
            *build_schedule(sf10e_mesh, num_parts, method)
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed_sweep(self, demo_mesh, seed):
        assert_schedule_invariants(*build_schedule(demo_mesh, 8, seed=seed))

    def test_word_matrix_symmetry_and_parity(self, demo_mesh):
        dist, schedule = build_schedule(demo_mesh, 8)
        mat = schedule.word_matrix
        assert np.array_equal(mat, mat.T)
        assert np.all(schedule.words_per_pe % 2 == 0)
        assert np.all(schedule.words_per_pe % 3 == 0)


# ---------------------------------------------------------------------------
# A broken schedule or distribution cannot pass the layout's construction


def with_messages(schedule, edit):
    """``schedule`` with its message list replaced by ``edit(messages)``
    before anything derived from it is built."""
    schedule.__dict__["messages"] = edit(list(schedule.messages))
    return schedule


def grown(msg, by=1):
    return Message(src=msg.src, dst=msg.dst, nodes=msg.nodes + by)


class TestLayoutRefusesBrokenSchedules:
    @pytest.fixture
    def built(self, demo_mesh):
        return build_schedule(demo_mesh, 8)

    @staticmethod
    def refused(schedule, match="the schedule sends"):
        with pytest.raises(ContractViolation, match=match) as err:
            SuperstepLayout(schedule)
        assert err.value.phase == "exchange"
        return err.value.pe

    def test_clean_schedule_builds(self, built):
        SuperstepLayout(built[1])

    def test_asymmetric_pair_refused(self, built):
        """b -> a carries one node more than a -> b."""
        _, schedule = built
        back = schedule.messages[1]
        with_messages(schedule, lambda msgs: [msgs[0], grown(msgs[1]), *msgs[2:]])
        assert self.refused(schedule) in (back.src, back.dst)

    @settings(max_examples=25, deadline=None)
    @given(victim=st.integers(min_value=0))
    def test_dropped_direction_refused(self, demo_mesh, victim):
        """Any one direction of any pair dropped."""
        _, schedule = build_schedule(demo_mesh, 8)
        victim %= len(schedule.messages)
        gone = schedule.messages[victim]
        with_messages(
            schedule, lambda msgs: msgs[:victim] + msgs[victim + 1:]
        )
        assert self.refused(schedule) in (gone.src, gone.dst)

    def test_tampered_word_count_refused(self, built):
        """Symmetric, but both directions claim one node too many."""
        _, schedule = built
        first = schedule.messages[0]
        with_messages(
            schedule, lambda msgs: [grown(msgs[0]), grown(msgs[1]), *msgs[2:]]
        )
        assert self.refused(schedule) in (first.src, first.dst)

    def test_phantom_pair_refused(self, built):
        """Both directions between PEs that share no node."""
        dist, schedule = built
        a, b = next(
            (a, b)
            for a in range(8)
            for b in range(a + 1, 8)
            if (a, b) not in dist.pair_shared_nodes
        )
        with_messages(
            schedule,
            lambda msgs: msgs + [Message(a, b, 1), Message(b, a, 1)],
        )
        assert self.refused(schedule) in (a, b)

    def test_dropped_shared_node_refused(self, built):
        """A pair's shared-node list loses a node on both sides: the
        plan and the schedule agree, but one copy is summed short."""
        dist, _ = built
        (a, b), nodes = next(iter(dist.pair_shared_nodes.items()))
        dist.__dict__["pair_shared_nodes"] = {
            **dist.pair_shared_nodes, (a, b): nodes[1:]
        }
        pe = self.refused(CommSchedule(dist), match="other copies")
        assert pe in (a, b)
