"""Tests for repro.model (machine, inputs, Equations 1-2, requirements).

The most important tests here pin the paper's own headline numbers: the
model must recover them from the published Figure 7 data.
"""

import numpy as np
import pytest

from repro import paperdata
from repro.model import (
    CRAY_T3D,
    CRAY_T3E,
    CURRENT_100MFLOPS,
    FUTURE_200MFLOPS,
    MACHINES,
    MAXIMAL_BLOCKS,
    Machine,
    ModelInputs,
    bisection_bandwidth_bytes,
    efficiency_from_tc,
    four_word_blocks,
    half_bandwidth_targets,
    latency_for_tradeoff,
    required_tc,
    smvp_time,
    sustained_bandwidth_bytes,
    tc_from_blocks,
    tradeoff_curve,
)
from repro.model.lowlevel import BlockMode, fixed_blocks
from repro.model.requirements import (
    bisection_requirement_rows,
    pe_bandwidth_requirement_rows,
)


class TestMachine:
    def test_presets(self):
        assert CURRENT_100MFLOPS.mflops == pytest.approx(100.0)
        assert FUTURE_200MFLOPS.tf == pytest.approx(5e-9)
        assert CRAY_T3D.tf == pytest.approx(30e-9)
        assert CRAY_T3E.tl == pytest.approx(22e-6)
        assert CRAY_T3E.tw == pytest.approx(55e-9)
        assert set(MACHINES) == {"current", "future", "t3d", "t3e"}

    def test_burst_bandwidth(self):
        assert CRAY_T3E.burst_bandwidth_bytes == pytest.approx(8 / 55e-9)
        assert CRAY_T3D.burst_bandwidth_bytes is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Machine("bad", tf=0.0)
        with pytest.raises(ValueError):
            Machine.from_mflops("bad", -5)

    def test_machine_tq_validated(self):
        with pytest.raises(ValueError):
            Machine(name="bad", tf=1e-9, tl=1e-6, tw=1e-8, tq=-1.0)
        assert all(m.tq is None for m in MACHINES.values())


class TestModelInputs:
    def test_from_paper(self):
        inp = ModelInputs.from_paper("sf2", 128)
        assert inp.F == 838_224
        assert inp.c_max == 16_260
        assert inp.b_max == 50
        assert inp.f_over_c == pytest.approx(838_224 / 16_260)

    def test_from_stats(self, demo_mesh):
        from repro.stats import smvp_statistics

        stats = smvp_statistics(demo_mesh, num_parts=4)
        inp = ModelInputs.from_stats(stats, label="demo/4")
        assert inp.F == stats.F
        assert inp.bisection_words == stats.bisection_words

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelInputs("x", 4, F=0, c_max=1, b_max=1)


class TestEquationOne:
    def test_paper_300mb_claim(self):
        inp = ModelInputs.from_paper("sf2", 128)
        bw = sustained_bandwidth_bytes(inp, 0.9, FUTURE_200MFLOPS)
        assert bw == pytest.approx(279e6, rel=0.01)  # "about 300 MB/s"

    def test_paper_120mb_claim(self):
        worst = max(
            sustained_bandwidth_bytes(
                ModelInputs.from_paper("sf2", p), 0.9, CURRENT_100MFLOPS
            )
            for p in paperdata.SUBDOMAIN_COUNTS
        )
        assert worst == pytest.approx(140e6, rel=0.01)  # "about 120 MB/s"

    def test_efficiency_roundtrip(self):
        inp = ModelInputs.from_paper("sf5", 32)
        for eff in (0.3, 0.5, 0.9, 0.99):
            tc = required_tc(inp, eff, CRAY_T3E)
            assert efficiency_from_tc(inp, tc, CRAY_T3E) == pytest.approx(eff)

    def test_monotonic_in_efficiency(self):
        inp = ModelInputs.from_paper("sf2", 32)
        tcs = [required_tc(inp, e, CRAY_T3E) for e in (0.5, 0.7, 0.9)]
        assert tcs[0] > tcs[1] > tcs[2]  # higher E -> less time per word

    def test_faster_machine_needs_more_bandwidth(self):
        inp = ModelInputs.from_paper("sf2", 64)
        slow = sustained_bandwidth_bytes(inp, 0.8, CURRENT_100MFLOPS)
        fast = sustained_bandwidth_bytes(inp, 0.8, FUTURE_200MFLOPS)
        assert fast == pytest.approx(2 * slow)

    def test_smvp_time_decomposition(self):
        inp = ModelInputs.from_paper("sf10", 4)
        tc = 100e-9
        total = smvp_time(inp, tc, CRAY_T3D)
        assert total == pytest.approx(inp.F * 30e-9 + inp.c_max * tc)

    def test_efficiency_bounds_validated(self):
        inp = ModelInputs.from_paper("sf10", 4)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                required_tc(inp, bad, CRAY_T3D)


class TestEquationTwo:
    def test_forward_formula(self):
        inp = ModelInputs.from_paper("sf2", 128)
        tc = tc_from_blocks(inp, tl=22e-6, tw=55e-9)
        expected = (50 / 16_260) * 22e-6 + 55e-9
        assert tc == pytest.approx(expected)

    def test_four_word_mode(self):
        inp = ModelInputs.from_paper("sf2", 128)
        mode = four_word_blocks()
        assert mode.b_max(inp) == pytest.approx(16_260 / 4)

    def test_blocks_per_neighbor_multiplier(self):
        inp = ModelInputs.from_paper("sf2", 128)
        mode = BlockMode(name="3x", blocks_per_neighbor=3)
        assert mode.b_max(inp) == 150

    def test_paper_100ns_claim(self):
        # 4-word blocks, infinite burst bandwidth, E=0.9: ~100 ns.
        inp = ModelInputs.from_paper("sf2", 128)
        tl = latency_for_tradeoff(
            inp, 0.9, FUTURE_200MFLOPS, 0.0, four_word_blocks()
        )
        assert tl == pytest.approx(115e-9, rel=0.02)

    def test_maximal_blocks_latency_microseconds(self):
        inp = ModelInputs.from_paper("sf2", 128)
        tl = latency_for_tradeoff(inp, 0.9, FUTURE_200MFLOPS, 0.0)
        assert tl == pytest.approx(9.3e-6, rel=0.02)

    def test_three_blocks_per_neighbor_reproduces_prose(self):
        # The documented explanation of the prose/equation discrepancy.
        inp = ModelInputs.from_paper("sf2", 128)
        mode = BlockMode(name="3x", blocks_per_neighbor=3)
        tl = latency_for_tradeoff(inp, 0.9, FUTURE_200MFLOPS, 0.0, mode)
        assert tl == pytest.approx(3.1e-6, rel=0.02)  # paper says ~3 us

    def test_infeasible_burst_bandwidth_negative(self):
        inp = ModelInputs.from_paper("sf2", 128)
        tc = required_tc(inp, 0.9, FUTURE_200MFLOPS)
        assert latency_for_tradeoff(inp, 0.9, FUTURE_200MFLOPS, 2 * tc) < 0

    def test_tradeoff_curve_monotone(self):
        inp = ModelInputs.from_paper("sf2", 128)
        curve = tradeoff_curve(inp, 0.8, FUTURE_200MFLOPS)
        bws = [bw for bw, _ in curve]
        tls = [tl for _, tl in curve]
        assert bws == sorted(bws)
        assert tls == sorted(tls)  # more burst bandwidth -> more latency slack
        assert all(tl >= 0 for tl in tls)

    def test_tc_consistency(self):
        # Plugging the tradeoff's (tl, tw) back into Equation (2) must
        # give exactly the required T_c.
        inp = ModelInputs.from_paper("sf2", 64)
        tc = required_tc(inp, 0.8, FUTURE_200MFLOPS)
        tw = tc / 3
        tl = latency_for_tradeoff(inp, 0.8, FUTURE_200MFLOPS, tw)
        assert tc_from_blocks(inp, tl, tw) == pytest.approx(tc)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            fixed_blocks(0)
        with pytest.raises(ValueError):
            BlockMode(name="bad", blocks_per_neighbor=0)


class TestHalfBandwidth:
    def test_paper_600mb_and_70ns(self):
        inp = ModelInputs.from_paper("sf2", 128)
        hard = half_bandwidth_targets(inp, 0.9, FUTURE_200MFLOPS)
        assert hard.burst_bandwidth_bytes == pytest.approx(559e6, rel=0.01)
        hard4 = half_bandwidth_targets(
            inp, 0.9, FUTURE_200MFLOPS, four_word_blocks()
        )
        assert hard4.half_tl == pytest.approx(57e-9, rel=0.02)  # "~70 ns"

    def test_paper_easiest_case(self):
        inp = ModelInputs.from_paper("sf2", 4)
        easy = half_bandwidth_targets(inp, 0.5, CURRENT_100MFLOPS)
        assert easy.burst_bandwidth_bytes == pytest.approx(3.6e6, rel=0.02)

    def test_halves_actually_halve(self):
        inp = ModelInputs.from_paper("sf2", 32)
        h = half_bandwidth_targets(inp, 0.8, CURRENT_100MFLOPS)
        t_comm = inp.c_max * h.tc
        assert inp.c_max * h.half_tw == pytest.approx(t_comm / 2)
        assert inp.b_max * h.half_tl == pytest.approx(t_comm / 2)


class TestRequirements:
    def test_bisection_needs_volume(self):
        inp = ModelInputs.from_paper("sf2", 128)  # no bisection volume
        with pytest.raises(ValueError):
            bisection_bandwidth_bytes(inp, 0.9, FUTURE_200MFLOPS)

    def test_bisection_modest_for_measured(self, demo_mesh):
        from repro.stats import smvp_statistics

        stats = smvp_statistics(demo_mesh, num_parts=16)
        inp = ModelInputs.from_stats(stats)
        bw = bisection_bandwidth_bytes(inp, 0.9, FUTURE_200MFLOPS)
        # The paper's claim: well under a GB/s even in the worst case.
        assert bw < 1.5e9

    def test_row_sweeps_shapes(self):
        inputs = [
            ModelInputs.from_paper("sf2", p) for p in paperdata.SUBDOMAIN_COUNTS
        ]
        rows = pe_bandwidth_requirement_rows(inputs)
        assert len(rows) == 6 * 3 * 2  # p x E x machines
        assert all(r.mbytes_per_second > 0 for r in rows)

    def test_bisection_rows(self, demo_mesh):
        from repro.stats import smvp_statistics

        inputs = [
            ModelInputs.from_stats(smvp_statistics(demo_mesh, num_parts=p))
            for p in (4, 8)
        ]
        rows = bisection_requirement_rows(inputs)
        assert len(rows) == 2 * 3 * 2
