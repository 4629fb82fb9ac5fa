"""Tests for the critical-path profiler (DESIGN.md §14).

Covers the acceptance contract:

* the critical-path identity (``sum(buckets) == t_smvp`` and the path
  length matching it) holds on every backend,
* ``profile=True`` never changes the numbers — outputs stay
  bit-identical to the unprofiled executor, on every backend and on
  the ABFT path,
* the host windows are scatter → compute → exchange → gather, with
  every ``wire`` span inside the exchange window (sf10e here; the
  REPRO_LARGE-gated sf2e variant rides the ``large`` mark),
* ABFT verify/recovery windows land in their own buckets,
* trace JSON round-trips every field including ``pe_spans``, and
  future ``schema_version`` values are rejected with a clear error,
* folded stacks / the noise-aware ``--regress`` gate over reports of
  saved logs,
* every message span after its sender's product, and the
  DriftMonitor's per-term residuals.
"""

import json
import re

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultInjector
from repro.model.machine import MACHINES
from repro.partition.base import partition_mesh
from repro.profile import (
    HOST,
    PeSpan,
    SpanRecorder,
    SuperstepSpans,
    analyze_superstep,
    build_report,
    compare_reports,
    fit_wire,
    render_folded,
    render_report,
)
from repro.smvp.executor import DistributedSMVP
from repro.smvp.trace import SuperstepTrace, TraceLog
from repro.telemetry import DriftMonitor

PES = 4

BACKENDS = ("serial", "threaded", "overlap")


@pytest.fixture(scope="module")
def demo_partition(demo_mesh):
    return partition_mesh(demo_mesh, PES)


def _rng_x(mesh, seed=0):
    return np.random.default_rng(seed).standard_normal(3 * mesh.num_nodes)


def _profiled_log(mesh, partition, materials, backend, steps=2, **kw):
    log = TraceLog()
    smvp = DistributedSMVP(
        mesh,
        partition,
        materials,
        backend=backend,
        trace_sink=log,
        profile=True,
        **kw,
    )
    x = _rng_x(mesh)
    try:
        ys = [smvp.multiply(x) for _ in range(steps)]
    finally:
        smvp.close()
    return log, ys


class TestCriticalPathIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_and_bit_identical_output(
        self, demo_mesh, demo_partition, demo_materials, backend
    ):
        plain = DistributedSMVP(
            demo_mesh, demo_partition, demo_materials, backend=backend
        )
        x = _rng_x(demo_mesh)
        try:
            reference = plain.multiply(x)
        finally:
            plain.close()
        log, ys = _profiled_log(
            demo_mesh, demo_partition, demo_materials, backend
        )
        for y in ys:
            assert np.array_equal(y, reference)
        assert len(log.traces) == 2
        for trace in log.traces:
            assert trace.pe_spans is not None
            profile = analyze_superstep(trace)
            assert profile.identity_error <= 1e-9
            assert profile.critical_len == pytest.approx(trace.t_smvp)
            assert sum(profile.buckets.values()) == pytest.approx(
                trace.t_smvp
            )
            assert set(profile.pe_compute) == set(range(PES))
            assert all(v >= 0.0 for v in profile.buckets.values())

    def test_straggler_scores_center_on_median(
        self, demo_mesh, demo_partition, demo_materials
    ):
        log, _ = _profiled_log(
            demo_mesh, demo_partition, demo_materials, "serial", steps=1
        )
        profile = analyze_superstep(log.traces[0])
        scores = list(profile.straggler.values())
        assert len(scores) == PES and all(s > 0.0 for s in scores)
        # Each score is the PE's seconds over the median PE's, so the
        # scores' own median (the mean of the two middle ones at an
        # even PE count) is 1 up to rounding, whatever the timings.
        assert np.median(scores) == pytest.approx(1.0, rel=1e-12)

    def test_profiler_off_leaves_traces_bare(
        self, demo_mesh, demo_partition, demo_materials
    ):
        log = TraceLog()
        smvp = DistributedSMVP(
            demo_mesh,
            demo_partition,
            demo_materials,
            trace_sink=log,
        )
        try:
            smvp.multiply(_rng_x(demo_mesh))
        finally:
            smvp.close()
        assert log.traces[0].pe_spans is None
        with pytest.raises(ValueError, match="no pe_spans"):
            analyze_superstep(log.traces[0])


def _windows_and_wires(trace):
    host = trace.pe_spans.host_windows()
    wires = [s for s in trace.pe_spans if s.kind == "wire"]
    return host, wires


class TestExchangeWindows:
    def _check_exchange_window(self, log, steps):
        assert len(log.traces) == steps
        for trace in log.traces:
            host, wires = _windows_and_wires(trace)
            assert [w.kind for w in host] == [
                "scatter", "compute", "exchange", "gather"
            ]
            exchange = host[2]
            assert wires
            for wire in wires:  # the snapshot runs inline, inside exchange
                assert (
                    exchange.t_start
                    <= wire.t_start
                    <= wire.t_end
                    <= exchange.t_end
                )
            assert trace.t_comm == pytest.approx(exchange.duration)

    def test_exchange_window_on_sf10e(self, sf10e_mesh, basin_model):
        from repro.fem.material import materials_from_model

        materials = materials_from_model(sf10e_mesh, basin_model)
        partition = partition_mesh(sf10e_mesh, 8)
        log, _ = _profiled_log(
            sf10e_mesh, partition, materials, "serial", steps=3
        )
        self._check_exchange_window(log, 3)
        for profile in build_report(log).profiles:
            assert profile.backend == "serial"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exchange_window_on_demo(
        self, demo_mesh, demo_partition, demo_materials, backend
    ):
        log, _ = _profiled_log(
            demo_mesh, demo_partition, demo_materials, backend, steps=2
        )
        self._check_exchange_window(log, 2)
        for trace in log.traces:  # one wire span per message
            _, wires = _windows_and_wires(trace)
            assert len(wires) == trace.total_blocks

    @pytest.mark.large
    def test_exchange_window_on_sf2e(self):
        import os

        if not os.environ.get("REPRO_LARGE"):
            pytest.skip("needs REPRO_LARGE=1")
        from repro.fem.material import materials_from_model
        from repro.mesh.instances import get_instance
        from repro.velocity.basin import default_san_fernando_like_model

        mesh, _ = get_instance("sf2e").build()
        materials = materials_from_model(
            mesh, default_san_fernando_like_model()
        )
        partition = partition_mesh(mesh, 8)
        log, _ = _profiled_log(mesh, partition, materials, "serial", steps=2)
        self._check_exchange_window(log, 2)


class TestAbftPath:
    def test_verify_bucket_and_heal_spans(
        self, demo_mesh, demo_partition, demo_materials
    ):
        plain = DistributedSMVP(demo_mesh, demo_partition, demo_materials)
        x = _rng_x(demo_mesh, seed=2)
        try:
            reference = plain.multiply(x)
        finally:
            plain.close()
        log = TraceLog()
        smvp = DistributedSMVP(
            demo_mesh,
            demo_partition,
            demo_materials,
            injector=FaultInjector(FaultConfig(seed=5, flip_rate=1.0)),
            abft=True,
            trace_sink=log,
            profile=True,
        )
        try:
            healed = smvp.multiply(x)
        finally:
            smvp.close()
        assert np.array_equal(healed, reference)
        trace = log.traces[0]
        profile = analyze_superstep(trace)
        assert profile.identity_error <= 1e-9
        assert profile.buckets["verify"] > 0.0
        # Every PE's output was flipped, so every PE recomputed: the
        # heal time lands in the recovery bucket, not verify.
        assert profile.buckets["recovery"] > 0.0
        kinds = {s.kind for s in trace.pe_spans}
        assert "verify" in kinds
        assert "recovery" in kinds


class TestTraceRoundtrip:
    def test_roundtrip_every_field(
        self, demo_mesh, demo_partition, demo_materials
    ):
        log = TraceLog()
        smvp = DistributedSMVP(
            demo_mesh,
            demo_partition,
            demo_materials,
            injector=FaultInjector(FaultConfig(seed=1, drop_rate=0.1)),
            trace_sink=log,
            profile=True,
        )
        try:
            smvp.multiply(
                np.random.default_rng(3).standard_normal(
                    (3 * demo_mesh.num_nodes, 2)
                )
            )
        finally:
            smvp.close()
        text = log.render_json()
        payload = json.loads(text)
        assert payload["schema_version"] == 2
        assert payload["version"] == 1  # legacy readers still accept it
        back = TraceLog.from_json(text)
        assert len(back.traces) == len(log.traces)
        for a, b in zip(log.traces, back.traces):
            assert a.step == b.step
            assert a.kernel == b.kernel
            assert a.backend == b.backend
            assert a.rhs == b.rhs == 2
            for f in ("t_scatter", "t_comp", "t_comm", "t_gather",
                      "t_smvp", "t_verify"):
                assert getattr(a, f) == getattr(b, f)
            assert np.array_equal(a.words_sent, b.words_sent)
            assert np.array_equal(a.blocks_sent, b.blocks_sent)
            assert (a.faults is None) == (b.faults is None)
            if a.faults is not None:
                for name in a.faults.__dataclass_fields__:
                    assert getattr(a.faults, name) == getattr(
                        b.faults, name
                    )
            assert a.pe_spans is not None and b.pe_spans is not None
            assert len(a.pe_spans) == len(b.pe_spans)
            for sa, sb in zip(a.pe_spans, b.pe_spans):
                assert sa == sb
        # Round-tripped spans profile identically.
        pa = analyze_superstep(log.traces[0])
        pb = analyze_superstep(back.traces[0])
        assert pa.buckets == pb.buckets

    def test_unprofiled_roundtrip_has_no_pe_spans(
        self, demo_mesh, demo_partition, demo_materials
    ):
        log = TraceLog()
        smvp = DistributedSMVP(
            demo_mesh, demo_partition, demo_materials, trace_sink=log
        )
        try:
            smvp.multiply(_rng_x(demo_mesh))
        finally:
            smvp.close()
        record = json.loads(log.render_json())["supersteps"][0]
        assert "pe_spans" not in record
        assert TraceLog.from_json(log.render_json()).traces[0].pe_spans is None

    def test_future_schema_version_rejected(self):
        payload = json.dumps(
            {"version": 1, "schema_version": 3, "supersteps": []}
        )
        with pytest.raises(ValueError, match="unsupported trace log version"):
            TraceLog.from_json(payload)

    def test_legacy_version_1_accepted(self):
        payload = json.dumps({"version": 1, "supersteps": []})
        assert len(TraceLog.from_json(payload).traces) == 0


class TestSpans:
    def test_recorder_rebases_and_sorts(self):
        rec = SpanRecorder()
        rec.start()
        rec.add("compute", 1, 10.5, 10.7)
        rec.add("compute", 0, 10.2, 10.4)
        rec.add("wire", 0, 10.8, 10.9, words=7, dst=1)
        spans = list(rec.finish(10.0))
        assert [s.pe for s in spans] == [0, 1, 0]
        assert spans[0].t_start == pytest.approx(0.2)
        assert spans[2].words == 7 and spans[2].dst == 1

    def test_span_dict_roundtrip_omits_defaults(self):
        s = PeSpan("compute", 2, 0.0, 1.0)
        d = s.to_dict()
        assert "words" not in d and "dst" not in d
        assert PeSpan.from_dict(d) == s
        w = PeSpan("wire", 0, 0.0, 0.5, words=9, dst=3)
        assert PeSpan.from_dict(w.to_dict()) == w

    def test_host_windows_filters_host(self):
        spans = SuperstepSpans(
            (
                PeSpan("scatter", HOST, 0.0, 1.0),
                PeSpan("compute", 0, 1.0, 2.0),
                PeSpan("compute", HOST, 1.0, 2.0),
            )
        )
        assert [s.kind for s in spans.host_windows()] == [
            "scatter",
            "compute",
        ]


class TestWireFit:
    def test_empty(self):
        fit = fit_wire([])
        assert fit.messages == 0 and fit.latency_fraction == 1.0

    def test_uniform_sizes_collapse_to_latency(self):
        wires = [PeSpan("wire", 0, 0.0, 2e-6, words=100, dst=1)] * 3
        fit = fit_wire(wires)
        assert fit.seconds_per_word == 0.0
        assert fit.latency_per_msg == pytest.approx(2e-6)

    def test_recovers_linear_model(self):
        a, b = 1e-6, 2e-9
        wires = [
            PeSpan("wire", 0, 0.0, a + b * w, words=w, dst=1)
            for w in (100, 200, 400, 800)
        ]
        fit = fit_wire(wires)
        assert fit.latency_per_msg == pytest.approx(a, rel=1e-6)
        assert fit.seconds_per_word == pytest.approx(b, rel=1e-6)
        assert 0.0 < fit.latency_fraction < 1.0


class TestReports:
    def test_folded_stack_format(
        self, demo_mesh, demo_partition, demo_materials
    ):
        log, _ = _profiled_log(
            demo_mesh, demo_partition, demo_materials, "serial", steps=1
        )
        folded = render_folded(log)
        lines = folded.strip().splitlines()
        assert lines
        for line in lines:
            assert re.fullmatch(r"[^ ]+ \d+", line), line
        assert any(line.startswith("smvp;") for line in lines)
        assert any(line.startswith("wire;") for line in lines)

    def test_report_renders_blame_table(
        self, demo_mesh, demo_partition, demo_materials
    ):
        log, _ = _profiled_log(
            demo_mesh, demo_partition, demo_materials, "serial", steps=2
        )
        report = build_report(log)
        text = render_report(report)
        assert "critical-path identity" in text
        assert "compute" in text and "bandwidth" in text
        assert report.steps == 2

    def test_saved_log_reproduces_the_report(
        self, demo_mesh, demo_partition, demo_materials
    ):
        """The trace log is the profiler's file format: a report built
        from the saved log is the live run's."""
        log, _ = _profiled_log(
            demo_mesh, demo_partition, demo_materials, "serial", steps=2
        )
        report = build_report(log)
        saved = build_report(TraceLog.from_json(log.render_json()))
        assert saved.t_total == report.t_total
        assert saved.buckets == report.buckets
        assert saved.per_step_t_smvp == report.per_step_t_smvp
        assert len(saved.per_step_t_smvp) == 2


def _synthetic_report(steps):
    """The report of a serial log whose step ``i`` spends
    ``steps[i][bucket]`` seconds in compute / latency / overhead: a
    scatter window (overhead), a compute window filled by PE 0's
    product, an exchange window without wire spans (latency)."""
    log = TraceLog()
    for i, buckets in enumerate(steps):
        o, c, lat = (
            buckets.get(k, 0.0) for k in ("overhead", "compute", "latency")
        )
        spans = SuperstepSpans(
            (
                PeSpan("scatter", HOST, 0.0, o),
                PeSpan("compute", HOST, o, o + c),
                PeSpan("compute", 0, o, o + c),
                PeSpan("exchange", HOST, o + c, o + c + lat),
            )
        )
        log(
            SuperstepTrace(
                step=i,
                kernel="csr",
                backend="serial",
                t_scatter=o,
                t_comp=c,
                t_comm=lat,
                t_gather=0.0,
                t_smvp=o + c + lat,
                words_sent=np.zeros(1, dtype=np.int64),
                blocks_sent=np.zeros(1, dtype=np.int64),
                pe_spans=spans,
            )
        )
    return build_report(log)


class TestRegressGate:
    def test_synthetic_report_has_the_planted_buckets(self):
        report = _synthetic_report([{"compute": 0.4, "latency": 0.1}] * 2)
        assert report.buckets["compute"] == pytest.approx(0.8)
        assert report.buckets["latency"] == pytest.approx(0.2)
        assert report.per_step_t_smvp == pytest.approx([0.5, 0.5])

    def test_regress_passes_on_identical(self):
        old = _synthetic_report([{"compute": 0.4, "latency": 0.1}] * 2)
        ok, lines = compare_reports(old, old)
        assert ok
        assert any("[ok]" in line for line in lines)

    def test_regress_fails_on_20pct_slowdown(self):
        old = _synthetic_report([{"compute": 0.4, "latency": 0.1}] * 2)
        new = _synthetic_report([{"compute": 0.5, "latency": 0.125}] * 2)
        ok, lines = compare_reports(old, new)
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_regress_ignores_microscopic_buckets(self):
        old = _synthetic_report([{"compute": 0.495, "overhead": 5e-4}] * 2)
        new = _synthetic_report([{"compute": 0.495, "overhead": 5e-3}] * 2)
        ok, _ = compare_reports(old, new)  # 10x jump in a <5% bucket
        assert ok

    def test_regress_widens_with_noise(self):
        # CV is huge, so a 15% slowdown stays inside the band.
        old = _synthetic_report([{"compute": 0.2}, {"compute": 0.8}])
        new = _synthetic_report([{"compute": 0.2}, {"compute": 0.95}])
        ok, lines = compare_reports(old, new)
        assert ok
        assert "noise-adjusted" in lines[0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_threshold_that_gates_nothing_rejected(self, bad):
        old = _synthetic_report([{"compute": 0.4, "latency": 0.1}] * 2)
        new = _synthetic_report([{"compute": 0.8, "latency": 0.2}] * 2)
        with pytest.raises(ValueError, match="base_threshold must be finite"):
            compare_reports(old, new, base_threshold=bad)


class TestWireSpans:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_message_follows_its_source_compute(
        self, demo_mesh, demo_partition, demo_materials, backend
    ):
        """One wire span per message, inside the exchange window, and
        none starts before its sender's product has ended."""
        log, _ = _profiled_log(
            demo_mesh, demo_partition, demo_materials, backend, steps=1
        )
        trace = log.traces[0]
        host, wires = _windows_and_wires(trace)
        exchange = next(w for w in host if w.kind == "exchange")
        assert len(wires) == trace.total_blocks
        product_end = {}
        for s in trace.pe_spans:
            if s.pe != HOST and s.kind == "compute":
                end = max(product_end.get(s.pe, 0.0), s.t_end)
                product_end[s.pe] = end
        for wire in wires:
            assert exchange.t_start <= wire.t_start
            assert wire.t_start <= wire.t_end <= exchange.t_end
            assert wire.t_start >= product_end[wire.pe]


class TestDriftResiduals:
    def test_term_residuals_populated_from_spans(
        self, demo_mesh, demo_partition, demo_materials
    ):
        log, _ = _profiled_log(
            demo_mesh, demo_partition, demo_materials, "serial", steps=2
        )
        smvp = DistributedSMVP(demo_mesh, demo_partition, demo_materials)
        try:
            flops = smvp.flops_per_pe()
            schedule = smvp.schedule
        finally:
            smvp.close()
        monitor = DriftMonitor(flops, schedule, MACHINES["t3e"])
        for trace in log.traces:
            record = monitor.observe(trace)
            assert record.term_residuals is not None
            assert set(record.term_residuals) == {
                "compute",
                "latency",
                "bandwidth",
            }
            for term in record.term_residuals.values():
                assert set(term) == {"measured", "modeled", "residual"}
                assert term["measured"] >= 0.0
            assert "term_residuals" in record.to_dict()
        table = monitor.report().render_table()
        assert "term residuals" in table
        assert "worst:" in table

    def test_bare_traces_skip_residuals(
        self, demo_mesh, demo_partition, demo_materials
    ):
        log = TraceLog()
        smvp = DistributedSMVP(
            demo_mesh, demo_partition, demo_materials, trace_sink=log
        )
        try:
            smvp.multiply(_rng_x(demo_mesh))
            flops = smvp.flops_per_pe()
            schedule = smvp.schedule
        finally:
            smvp.close()
        monitor = DriftMonitor(flops, schedule, MACHINES["t3e"])
        record = monitor.observe(log.traces[0])
        assert record.term_residuals is None
        assert "term_residuals" not in record.to_dict()
        assert "term residuals" not in monitor.report().render_table()


class TestModeledCriticalPath:
    def test_buckets_sum_and_match_model(self):
        from repro.simulate.bsp import modeled_critical_path
        from repro.smvp.schedule import CommSchedule

        class FakeSchedule:
            b_max = 10
            c_max = 500
            eq2_terms = CommSchedule.eq2_terms

        machine = MACHINES["t3e"]
        flops = np.array([1000.0, 2000.0, 1500.0])
        buckets = modeled_critical_path(flops, FakeSchedule(), machine)
        assert buckets["compute"] == pytest.approx(1500.0 * machine.tf)
        assert buckets["imbalance"] == pytest.approx(500.0 * machine.tf)
        assert buckets["latency"] == pytest.approx(10 * machine.tl)
        assert buckets["bandwidth"] == pytest.approx(500 * machine.tw)
        assert buckets["verify"] == 0.0 and buckets["recovery"] == 0.0
        assert buckets["total"] == pytest.approx(
            sum(v for k, v in buckets.items() if k != "total")
        )
        rhs2 = modeled_critical_path(flops, FakeSchedule(), machine, rhs=2)
        assert rhs2["compute"] == pytest.approx(2 * buckets["compute"])
        assert rhs2["latency"] == pytest.approx(buckets["latency"])
        assert rhs2["bandwidth"] == pytest.approx(2 * buckets["bandwidth"])
