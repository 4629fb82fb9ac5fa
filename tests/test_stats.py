"""Tests for repro.stats (properties, beta, exflow)."""

import numpy as np
import pytest

from repro import paperdata
from repro.partition.base import Partition, partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.stats import beta_bound, exflow_style_stats, smvp_statistics


class TestBetaBound:
    def test_one_when_same_pe_attains_both(self):
        assert beta_bound([10, 5, 3], [4, 2, 1]) == 1.0

    def test_greater_than_one_when_split(self):
        # PE0 has most words, PE1 most blocks.
        beta = beta_bound([10, 6], [2, 4])
        assert 1.0 < beta <= 2.0

    def test_formula_by_hand(self):
        c = np.array([10.0, 6.0])
        b = np.array([2.0, 4.0])
        c_max, b_max = 10.0, 4.0
        terms = [
            max(
                c_max * (b_max - b[i]) / (c[i] * b_max),
                b_max * (c_max - c[i]) / (b[i] * c_max),
            )
            for i in range(2)
        ]
        assert beta_bound(c, b) == pytest.approx(1.0 + min(terms))

    def test_never_exceeds_two(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(2, 20)
            c = rng.integers(1, 1000, size=n).astype(float)
            b = rng.integers(1, 100, size=n).astype(float)
            beta = beta_bound(c, b)
            assert 1.0 <= beta <= 2.0 + 1e-12

    def test_silent_pes_ignored(self):
        assert beta_bound([10, 0, 5], [2, 0, 4]) == beta_bound([10, 5], [2, 4])

    def test_all_silent(self):
        assert beta_bound([0, 0], [0, 0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            beta_bound([1, 2], [1])


class TestSmvpStatistics:
    def test_two_tet_exact(self, two_tet_mesh):
        part = Partition(np.array([0, 1]), 2)
        stats = smvp_statistics(two_tet_mesh, partition=part)
        assert stats.F == 2 * 9 * (4 + 2 * 6)
        assert stats.c_max == 18  # 3 shared nodes x 3 words x 2 dirs
        assert stats.b_max == 2
        assert stats.beta == 1.0
        assert stats.f_over_c == pytest.approx(stats.F / 18)

    def test_partition_on_demand(self, demo_mesh):
        stats = smvp_statistics(demo_mesh, num_parts=8)
        assert stats.num_parts == 8
        assert stats.partition_method == "geometric"

    def test_requires_partition_or_count(self, demo_mesh):
        with pytest.raises(ValueError):
            smvp_statistics(demo_mesh)

    def test_paper_invariants(self, demo_mesh):
        stats = smvp_statistics(demo_mesh, num_parts=16)
        assert stats.c_max % 6 == 0
        assert stats.b_max % 2 == 0
        assert 1.0 <= stats.beta <= 2.0
        assert stats.bisection_words <= 2 * stats.total_words

    def test_more_pes_less_flops_per_pe(self, demo_mesh):
        f4 = smvp_statistics(demo_mesh, num_parts=4).F
        f16 = smvp_statistics(demo_mesh, num_parts=16).F
        assert f16 < f4 / 2

    def test_f_over_c_falls_with_p(self, demo_mesh):
        ratios = [
            smvp_statistics(demo_mesh, num_parts=p).f_over_c
            for p in (4, 16, 64)
        ]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_str(self, demo_mesh):
        s = str(smvp_statistics(demo_mesh, num_parts=4))
        assert "C_max=" in s and "beta=" in s


class TestExflowStats:
    def test_paper_row_recovered_from_paper_fig7(self):
        # The published Quake comparison row must follow from the
        # published Figure 7 sf2/128 row via our formulas.
        props = paperdata.SMVP_PROPERTIES[("sf2", 128)]
        mflops = props.F / 1e6
        kb_per_mflop = 8 * props.C_max / 1024 / mflops
        msgs_per_mflop = props.B_max / mflops
        avg_kb = 8 * props.M_avg / 1024
        paper = paperdata.EXFLOW_COMPARISON["quake_sf2_128"]
        assert kb_per_mflop == pytest.approx(
            paper["comm_kbytes_per_mflop"], rel=0.03
        )
        assert msgs_per_mflop == pytest.approx(
            paper["messages_per_mflop"], rel=0.01
        )
        assert avg_kb == pytest.approx(paper["avg_message_kbytes"], rel=0.01)

    def test_measured_pipeline(self, demo_mesh):
        partition = partition_mesh(demo_mesh, 8)
        dist = DataDistribution(demo_mesh, partition)
        stats = smvp_statistics(demo_mesh, partition=partition)
        ex = exflow_style_stats(stats, dist)
        assert ex.num_parts == 8
        assert ex.mbytes_per_pe > 0
        assert ex.comm_kbytes_per_mflop > 0
        assert ex.avg_message_kbytes == pytest.approx(
            8 * stats.m_avg / 1024
        )
