"""End-to-end integration tests asserting the paper's claims.

These run the full pipeline (ground model -> mesh -> partition -> SMVP
statistics -> performance model) on the sf10e instance and check the
*shape* conclusions of the paper — the things the reproduction exists
to demonstrate.
"""

import numpy as np
import pytest

from repro import paperdata
from repro.mesh.instances import INSTANCES, get_instance
from repro.model import (
    CURRENT_100MFLOPS,
    FUTURE_200MFLOPS,
    ModelInputs,
    bisection_bandwidth_bytes,
    half_bandwidth_targets,
    required_tc,
    sustained_bandwidth_bytes,
)
from repro.model.lowlevel import MAXIMAL_BLOCKS, four_word_blocks
from repro.stats import smvp_statistics
from repro.tables.common import instance_stats


@pytest.fixture(scope="module")
def sf10e_stats_by_p(sf10e_mesh):
    return {
        p: smvp_statistics(sf10e_mesh, num_parts=p)
        for p in paperdata.SUBDOMAIN_COUNTS
    }


class TestFigure7Shape:
    """Our measured Figure 7 must track the paper's within a band."""

    @pytest.mark.parametrize("p", paperdata.SUBDOMAIN_COUNTS)
    def test_sf10e_tracks_paper(self, sf10e_stats_by_p, p):
        ours = sf10e_stats_by_p[p]
        paper = paperdata.SMVP_PROPERTIES[("sf10", p)]
        assert ours.F == pytest.approx(paper.F, rel=0.35)
        assert ours.c_max == pytest.approx(paper.C_max, rel=0.35)
        assert ours.b_max == pytest.approx(paper.B_max, rel=0.5)
        assert ours.f_over_c == pytest.approx(paper.f_over_c, rel=0.5)

    def test_avg_row_nonzeros_near_42(self, sf10e_mesh):
        nnz = 9 * (sf10e_mesh.num_nodes + 2 * sf10e_mesh.num_edges)
        per_row = nnz / (3 * sf10e_mesh.num_nodes)
        assert per_row == pytest.approx(paperdata.AVG_ROW_NONZEROS, rel=0.1)

    def test_surface_to_volume_scaling(self, sf10e_mesh):
        """Communication grows like n^{2/3}: comparing sf10e against the
        ~4.4x larger sf5e, the average per-PE communication volume grows
        much more slowly than the node count (sublinearly, near the 2/3
        power)."""
        sf5e_mesh, _ = get_instance("sf5e").build()
        small = smvp_statistics(sf10e_mesh, num_parts=16)
        big = smvp_statistics(sf5e_mesh, num_parts=16)
        node_ratio = sf5e_mesh.num_nodes / sf10e_mesh.num_nodes
        comm_ratio = float(big.c_per_pe.mean() / small.c_per_pe.mean())
        expected = node_ratio ** (2 / 3)
        assert comm_ratio < node_ratio  # strictly sublinear
        assert comm_ratio == pytest.approx(expected, rel=0.4)

    def test_small_messages_claim(self, sf10e_stats_by_p):
        """Block transfers are small even as blocks are maximal: M_avg
        falls fast with p (sf10 paper: 369 down to 36 words)."""
        m4 = sf10e_stats_by_p[4].m_avg
        m128 = sf10e_stats_by_p[128].m_avg
        assert m128 < m4 / 5
        assert m128 < 100  # tens of words

    def test_moderate_neighbor_counts(self, sf10e_stats_by_p):
        """The SMVP sits between nearest-neighbor and all-to-all: at
        p=128 each PE talks to a few dozen others at most, far fewer
        than p-1."""
        b = sf10e_stats_by_p[128].b_max
        assert 6 <= b <= 80
        assert b < 127


class TestSection4Claims:
    def test_bisection_bandwidth_modest(self, sf10e_stats_by_p):
        """Claim (1): bisection bandwidth is not an issue — on the order
        of a couple of link bandwidths, not an exotic requirement.

        The paper quotes ~700 MB/s worst case for sf2; sf10e is ~50x
        smaller, which *raises* the relative bisection demand (T_comm
        shrinks faster than V), so the ceiling here is a few GB/s — still
        a couple of links."""
        worst = max(
            bisection_bandwidth_bytes(
                ModelInputs.from_stats(stats), eff, machine
            )
            for stats in sf10e_stats_by_p.values()
            for eff in (0.5, 0.8, 0.9)
            for machine in (CURRENT_100MFLOPS, FUTURE_200MFLOPS)
        )
        assert worst < 4e9
        # At moderate PE counts (the regime the sf10 mesh reasonably
        # supports) it is firmly modest.
        moderate = max(
            bisection_bandwidth_bytes(
                ModelInputs.from_stats(sf10e_stats_by_p[p]), 0.9, FUTURE_200MFLOPS
            )
            for p in (4, 8, 16, 32)
        )
        assert moderate < 1.5e9

    def test_sustained_bandwidth_hundreds_of_mb(self, sf10e_stats_by_p):
        """Claim (3): ~hundreds of MB/s sustained per PE at 200 MFLOPS
        and 90% efficiency."""
        worst = max(
            sustained_bandwidth_bytes(
                ModelInputs.from_stats(stats), 0.9, FUTURE_200MFLOPS
            )
            for stats in sf10e_stats_by_p.values()
        )
        assert 100e6 < worst < 2e9

    def test_latency_is_the_hard_constraint(self, sf10e_stats_by_p):
        """Claim (2): even with infinite burst bandwidth, block latency
        must be microseconds (maximal blocks) or ~100 ns (cache-line
        blocks) — not milliseconds."""
        stats = sf10e_stats_by_p[128]
        inp = ModelInputs.from_stats(stats)
        tc = required_tc(inp, 0.9, FUTURE_200MFLOPS)
        max_latency = tc * inp.c_max / inp.b_max
        assert max_latency < 50e-6  # microseconds, not milliseconds
        four = half_bandwidth_targets(
            inp, 0.9, FUTURE_200MFLOPS, four_word_blocks()
        )
        assert four.half_tl < 1e-6  # sub-microsecond for cache lines

    def test_ratio_grows_slowly_with_problem_size(self):
        """F/C_max grows ~2x per 10x nodes (paper Section 4.1), not
        linearly — asserted on the paper's own published data."""
        for p in (32, 128):
            r10 = paperdata.SMVP_PROPERTIES[("sf10", p)].f_over_c
            r1 = paperdata.SMVP_PROPERTIES[("sf1", p)].f_over_c
            nodes_ratio = (
                paperdata.MESH_SIZES["sf1"]["nodes"]
                / paperdata.MESH_SIZES["sf10"]["nodes"]
            )
            # ~337x more nodes -> F/C grows ~nodes^(1/3) ~ 7x, far less
            # than the 337x a compute-bound scaling would give.
            growth = r1 / r10
            assert 3 < growth < 30
            assert growth < nodes_ratio / 10


class TestModelAgainstExecutor:
    def test_model_f_equals_executed_f(self, sf10e_mesh):
        """The structural flop model must equal 2*nnz of the actually
        assembled local matrices (done on demo scale in smvp tests; here
        via statistics against the distribution counts)."""
        stats = instance_stats(INSTANCES["sf10e"], 8)
        mesh, _ = get_instance("sf10e").build()
        from repro.partition import partition_mesh
        from repro.smvp import DataDistribution

        dist = DataDistribution(mesh, partition_mesh(mesh, 8))
        assert stats.F == dist.local_counts["flops"].max()

    def test_beta_bound_tight_in_practice(self, sf10e_stats_by_p):
        """The paper's point in Figure 6: beta is near 1, so the model
        is a good one."""
        betas = [stats.beta for stats in sf10e_stats_by_p.values()]
        assert max(betas) < 1.3
        assert min(betas) >= 1.0
