"""Tests for the telemetry subsystem (registry, export, timeline, drift).

Covers the acceptance criteria: the Chrome-trace export is schema-valid
(`ph`/`ts`/`pid`/`tid` on every event), the drift monitor reproduces
Equations (1)/(2) exactly on the BSP simulator, and — with no registry
installed — the instrumented paths are bit-identical and read zero
clocks.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.model.machine import CRAY_T3E, MACHINES, Machine
from repro.partition.base import partition_mesh
from repro.simulate.bsp import BspSimulator
from repro.smvp.distribution import DataDistribution
from repro.smvp.executor import DistributedSMVP
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import PhaseBreakdown, SuperstepTrace, TraceLog
from repro.telemetry import (
    DriftError,
    DriftMonitor,
    DriftThresholds,
    MetricsRegistry,
    chrome_trace,
    eq2_t_comm,
    fit_machine,
    modeled_breakdown,
    render_chrome_trace,
    render_prometheus,
    render_snapshot_json,
    use_registry,
    validate_trace_events,
    write_metrics,
)
from repro.telemetry.drift import contended_t_comm, fit_machine_contended
from repro.telemetry.registry import (
    count,
    get_registry,
    observe,
    record_fault_stats,
    set_gauge,
    set_registry,
    stage_span,
)


@pytest.fixture(autouse=True)
def _no_registry_leaks():
    """Every test starts and ends with no installed registry."""
    assert get_registry() is None
    yield
    set_registry(None)


def make_trace(step=0, scale=1.0, pes=2, words=100, blocks=4):
    return SuperstepTrace(
        t_comp=3e-3 * scale,
        t_comm=1e-3 * scale,
        t_smvp=4.5e-3 * scale,
        step=step,
        kernel="csr",
        backend="serial",
        t_scatter=2.5e-4 * scale,
        t_gather=2.5e-4 * scale,
        words_sent=np.full(pes, words, dtype=np.int64),
        blocks_sent=np.full(pes, blocks, dtype=np.int64),
    )


class TestRegistry:
    def test_counter_labels_and_total(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things")
        c.inc(backend="serial")
        c.inc(2, backend="serial")
        c.inc(5, backend="threaded")
        assert c.value(backend="serial") == 3
        assert c.value(backend="threaded") == 5
        assert c.value(backend="missing") == 0
        assert c.total == 8

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("c_total").inc(-1)

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_x")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("bad name!")

    def test_gauge_overwrites(self):
        g = MetricsRegistry().gauge("repro_level")
        g.set(3.0, pe=0)
        g.set(7.0, pe=0)
        assert g.value(pe=0) == 7.0

    def test_histogram_bucket_placement(self):
        h = MetricsRegistry().histogram("repro_t", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 2.0):
            h.observe(v)
        assert h.counts == [1, 2, 1]
        assert h.cumulative_counts() == [1, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(3.05)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            MetricsRegistry().histogram("repro_t", buckets=(1.0, 0.5))

    def test_snapshot_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("repro_a_total", "a").inc(3, kind="x")
            reg.gauge("repro_b", "b").set(1.5)
            reg.histogram("repro_c", buckets=(1.0,)).observe(0.5)
            reg.add_span("stage", 1.0, 2.0, track="t")
            return json.dumps(reg.snapshot(), sort_keys=True)

        assert build() == build()
        snap = MetricsRegistry().snapshot()
        assert snap["version"] == 1
        assert set(snap) == {
            "version", "counters", "gauges", "histograms", "spans",
        }

    def test_helpers_are_noops_without_registry(self):
        count("repro_never_total", 5)
        set_gauge("repro_never", 1.0)
        observe("repro_never_hist", 0.1)
        with stage_span("never"):
            pass
        record_fault_stats(None, "nowhere")
        assert get_registry() is None

    def test_use_registry_scopes_installation(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert get_registry() is reg
            count("repro_scoped_total")
        assert get_registry() is None
        assert reg.counter("repro_scoped_total").total == 1

    def test_span_requires_explicit_clock(self):
        reads = []

        def fake_clock():
            reads.append(None)
            return float(len(reads))

        silent = MetricsRegistry()  # no clock attached
        with silent.span("quiet"):
            pass
        assert silent.spans == [] and reads == []

        timed = MetricsRegistry(clock=fake_clock)
        with timed.span("loud", track="work"):
            pass
        assert len(timed.spans) == 1
        span = timed.spans[0]
        assert (span.name, span.track) == ("loud", "work")
        assert span.duration == 1.0
        assert len(reads) == 2

    def test_registry_module_never_imports_time(self):
        import repro.telemetry.registry as registry_module

        source = Path(registry_module.__file__).read_text()
        tree_imports = [
            line for line in source.splitlines()
            if line.startswith(("import ", "from "))
        ]
        assert not any("time" in line for line in tree_imports)

    def test_record_fault_stats_folds_nonzero_fields(self):
        from repro.faults.detection import FaultStats

        reg = MetricsRegistry()
        with use_registry(reg):
            record_fault_stats(
                FaultStats(injected_drops=2, retransmits=2), "exchange"
            )
        events = reg.counter("repro_fault_events_total")
        assert events.value(kind="injected_drops", component="exchange") == 2
        assert events.value(kind="retransmits", component="exchange") == 2
        # Zero-valued fields produce no series at all.
        assert events.value(kind="injected_corruptions", component="exchange") == 0
        assert events.total == 4


class TestExport:
    @pytest.fixture()
    def populated(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", "runs").inc(2, mode="barrier")
        reg.gauge("repro_beta", "bound").set(1.25)
        h = reg.histogram("repro_t_seconds", buckets=(0.1, 1.0), help_text="t")
        h.observe(0.05)
        h.observe(5.0)
        return reg

    def test_prometheus_exposition(self, populated):
        text = render_prometheus(populated)
        assert "# HELP repro_runs_total runs" in text
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{mode="barrier"} 2' in text
        assert "repro_beta 1.25" in text
        assert 'repro_t_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_t_seconds_count 2" in text

    def test_snapshot_json_round_trips(self, populated):
        payload = json.loads(render_snapshot_json(populated))
        assert payload == populated.snapshot()

    def test_write_metrics_dispatches_on_extension(self, populated, tmp_path):
        json_path = write_metrics(populated, tmp_path / "m.json")
        prom_path = write_metrics(populated, tmp_path / "m.prom")
        assert json.loads(json_path.read_text())["version"] == 1
        assert "# TYPE repro_runs_total" in prom_path.read_text()


class TestTimeline:
    def test_chrome_trace_schema(self):
        log = TraceLog()
        log(make_trace(step=0))
        log(make_trace(step=1, scale=2.0))
        doc = chrome_trace(log)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "ts", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0
        phs = {e["ph"] for e in events}
        assert phs == {"M", "X", "C"}

    def test_timestamps_synthesized_from_durations(self):
        log = TraceLog()
        log(make_trace(step=0))
        log(make_trace(step=1))
        events = chrome_trace(log)["traceEvents"]
        compute = [
            e for e in events if e["ph"] == "X" and e["name"] == "compute"
            and e["tid"] == 1
        ]
        assert len(compute) == 2
        # Step 1's compute starts one full t_smvp (4.5ms) after step 0's.
        assert compute[1]["ts"] - compute[0]["ts"] == pytest.approx(4500.0)

    def test_per_pe_tracks_carry_traffic(self):
        log = TraceLog()
        log(make_trace(pes=3, words=7, blocks=2))
        events = chrome_trace(log)["traceEvents"]
        pe_events = [e for e in events if e["tid"] >= 100 and e["ph"] == "X"]
        assert len(pe_events) == 3
        assert all(e["args"]["words"] == 7 for e in pe_events)
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert {"phase:compute", "phase:exchange", "PE 0", "PE 2"} <= names

    def test_registry_spans_become_stage_tracks(self):
        reg = MetricsRegistry()
        reg.add_span("mesh.octree", 10.0, 10.5, track="mesh")
        reg.add_span("partition.geometric", 10.5, 10.6, track="partition")
        events = chrome_trace(registry=reg)["traceEvents"]
        stage = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in stage} == {"mesh.octree", "partition.geometric"}
        # Rebased to the earliest span; distinct tracks get distinct tids.
        assert min(e["ts"] for e in stage) == 0.0
        assert len({e["tid"] for e in stage}) == 2

    def test_render_is_byte_stable(self):
        log = TraceLog()
        log(make_trace())
        assert render_chrome_trace(log) == render_chrome_trace(log)

    def test_validator_rejects_malformed_events(self):
        with pytest.raises(ValueError, match="missing 'tid'"):
            validate_trace_events([{"ph": "X", "ts": 0, "pid": 0}])
        with pytest.raises(ValueError, match="needs name and dur"):
            validate_trace_events(
                [{"ph": "X", "ts": 0, "pid": 0, "tid": 0}]
            )
        with pytest.raises(ValueError, match="negative dur"):
            validate_trace_events(
                [{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0,
                  "dur": -1}]
            )
        with pytest.raises(ValueError, match="negative ts"):
            validate_trace_events(
                [{"name": "x", "ph": "M", "ts": -5, "pid": 0, "tid": 0}]
            )


class TestTraceLogRoundTrip:
    def test_json_round_trip_is_lossless(self):
        log = TraceLog()
        log(make_trace(step=0))
        log(make_trace(step=1, scale=0.5, pes=4))
        text = log.render_json()
        rebuilt = TraceLog.from_json(text)
        assert rebuilt.render_json() == text
        assert len(rebuilt) == 2
        assert np.array_equal(
            rebuilt.traces[1].words_sent, log.traces[1].words_sent
        )

    def test_round_trip_preserves_fault_stats(self):
        from repro.faults.detection import FaultStats

        trace = SuperstepTrace(
            t_comp=1e-3, t_comm=1e-3, t_smvp=2e-3, step=0,
            kernel="csr", backend="serial", t_scatter=0.0, t_gather=0.0,
            words_sent=np.array([10, 30]), blocks_sent=np.array([1, 2]),
            faults=FaultStats(injected_drops=1, detected_missing=1,
                              retransmits=1, words_retransmitted=10),
        )
        log = TraceLog()
        log(trace)
        rebuilt = TraceLog.from_json(log.render_json())
        assert rebuilt.traces[0].faults == trace.faults
        assert rebuilt.summary() == log.summary()

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported trace log version"):
            TraceLog.from_json(json.dumps({"version": 2, "supersteps": []}))


class TestEfficiencyEdgeCases:
    def test_normal_ratio(self):
        assert PhaseBreakdown(3.0, 1.0, 4.0).efficiency == 0.75

    def test_zero_t_smvp_reports_full_efficiency(self):
        assert PhaseBreakdown(0.0, 0.0, 0.0).efficiency == 1.0

    def test_negative_t_smvp_reports_full_efficiency(self):
        # Clock skew can make a measured total slightly negative; the
        # ratio must not flip sign or divide by a negative total.
        assert PhaseBreakdown(1.0, 1.0, -1e-9).efficiency == 1.0

    def test_retransmit_traffic_is_accounted(self):
        from repro.faults.detection import FaultStats

        clean = make_trace(pes=2, words=50)
        faulty = SuperstepTrace(
            t_comp=1e-3, t_comm=2e-3, t_smvp=3e-3, step=1,
            kernel="csr", backend="serial", t_scatter=0.0, t_gather=0.0,
            words_sent=np.array([60, 50]),  # 10 retransmitted words on PE 0
            blocks_sent=np.array([5, 4]),
            faults=FaultStats(injected_drops=1, detected_missing=1,
                              retransmits=1, words_retransmitted=10),
        )
        assert faulty.total_words == clean.total_words + 10
        log = TraceLog()
        log(clean)
        log(faulty)
        summary = log.summary()
        assert summary["words_total"] == 210
        assert summary["faults"]["words_retransmitted"] == 10


class TestDrift:
    @pytest.fixture(scope="class")
    def workload(self, demo_mesh):
        partition = partition_mesh(demo_mesh, 4)
        dist = DataDistribution(demo_mesh, partition)
        schedule = CommSchedule(dist)
        return dist.local_counts["flops"], schedule

    @pytest.mark.parametrize("instance, pes", [("demo", 4), ("sf10e", 8)])
    def test_simulator_matches_model_exactly(self, instance, pes):
        """sf10e on 8 PEs over 3 supersteps is the case CI gates on."""
        from repro.pipeline import Problem

        problem = Problem.from_instance(instance)
        dist = DataDistribution(problem.mesh, problem.partition(pes))
        flops, schedule = dist.local_counts["flops"], CommSchedule(dist)
        machine = MACHINES["t3e"]
        simulator = BspSimulator(flops, schedule, machine)
        monitor = DriftMonitor(flops, schedule, machine)
        for step in range(3):
            monitor.observe(simulator.run("barrier", step=step), step=step)
        report = monitor.report()
        assert report.max_abs_comp_drift == 0.0
        assert report.max_abs_comm_drift == 0.0
        assert report.max_abs_efficiency_delta == 0.0
        assert not report.beta_violated
        assert report.ok
        report.check()  # must not raise
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["version"] == 1
        assert payload["machine"] == "Cray T3E"
        assert payload["violations"] == []
        assert len(payload["supersteps"]) == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_thresholds_that_gate_nothing_rejected(self, bad):
        for name in vars(DriftThresholds()):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                DriftThresholds(**{name: bad})

    def test_eq2_is_pessimistic_but_beta_bounded(self, workload):
        flops, schedule = workload
        machine = MACHINES["t3e"]
        exact = modeled_breakdown(flops, schedule, machine).t_comm
        eq2 = eq2_t_comm(schedule, machine)
        assert eq2 >= exact
        monitor = DriftMonitor(flops, schedule, machine)
        assert eq2 <= monitor.beta * exact * (1 + 1e-9)

    def test_drift_violation_fails_check(self, workload):
        flops, schedule = workload
        machine = MACHINES["t3e"]
        monitor = DriftMonitor(
            flops, schedule, machine,
            thresholds=DriftThresholds(max_comp_drift=0.10),
        )
        modeled = monitor.modeled
        inflated = PhaseBreakdown(
            t_comp=modeled.t_comp * 1.5,
            t_comm=modeled.t_comm,
            t_smvp=modeled.t_comp * 1.5 + modeled.t_comm,
        )
        monitor.observe(inflated, step=0)
        report = monitor.report()
        assert not report.ok
        assert any("T_comp drift" in v for v in report.violations())
        with pytest.raises(DriftError, match="T_comp drift"):
            report.check()

    def test_monitor_is_a_trace_sink(self, workload):
        flops, schedule = workload
        monitor = DriftMonitor(flops, schedule, MACHINES["t3e"])
        monitor(make_trace(step=7))
        assert monitor.records[0].step == 7
        assert monitor.records[0].words_measured == 200

    def test_observations_counted_on_registry(self, workload):
        flops, schedule = workload
        reg = MetricsRegistry()
        with use_registry(reg):
            monitor = DriftMonitor(flops, schedule, MACHINES["t3e"])
            monitor.observe(monitor.modeled, step=0)
        assert reg.counter("repro_drift_observations_total").total == 1

    def test_fit_machine_self_consistency(self, workload):
        flops, schedule = workload
        machine = MACHINES["t3e"]
        modeled = modeled_breakdown(flops, schedule, machine)
        fitted = fit_machine([modeled] * 3, flops, schedule)
        refit = modeled_breakdown(flops, schedule, fitted)
        assert refit.t_comp == pytest.approx(modeled.t_comp, rel=1e-12)
        assert refit.t_comm == pytest.approx(modeled.t_comm, rel=1e-12)

    def test_fit_machine_needs_data(self, workload):
        flops, schedule = workload
        with pytest.raises(ValueError, match="at least one"):
            fit_machine([], flops, schedule)

    def test_faulty_simulation_shows_positive_comm_drift(self, workload):
        from repro.faults import FaultConfig, FaultInjector

        flops, schedule = workload
        machine = MACHINES["t3e"]
        injector = FaultInjector(
            FaultConfig(seed=3, drop_rate=0.2, bitflip_rate=0.2)
        )
        simulator = BspSimulator(
            flops, schedule, machine, injector=injector
        )
        tight = DriftThresholds(max_comp_drift=1e-6, max_comm_drift=1e-6)
        monitor = DriftMonitor(flops, schedule, machine, thresholds=tight)
        drifted = False
        for step in range(5):
            record = monitor.observe(
                simulator.run("barrier", step=step), step=step
            )
            drifted = drifted or record.comm_drift > 0
        assert drifted  # retransmit penalties stretch T_comm past the model
        violations = monitor.report().violations()
        assert any("T_comm drift" in v for v in violations)


class TestContentionFit:
    """The queue-search term ``T_q * Q_max**2`` and its sweep fit."""

    @staticmethod
    def _layout(mesh, p):
        dist = DataDistribution(mesh, partition_mesh(mesh, p))
        return dist.local_counts["flops"], CommSchedule(dist)

    def _sweep(self, mesh, machine, pes_list, copies=3):
        sweep = []
        for p in pes_list:
            flops, schedule = self._layout(mesh, p)
            b = modeled_breakdown(flops, schedule, machine)
            sweep.append(([b] * copies, flops, schedule))
        return sweep

    @pytest.mark.parametrize("source", ["aggregate", "simulated"])
    def test_fit_recovers_planted_tq_exactly(self, demo_mesh, source):
        """The planted ``T_q`` comes back from the exact aggregate
        model and from barrier supersteps measured by the simulator."""
        from types import SimpleNamespace

        tf, tl, tw, tq = 1e-9, 2e-6, 3e-8, 4e-7
        planted = Machine(name="planted", tf=tf, tl=tl, tw=tw, tq=tq)
        sweep = []
        for p in [2, 4, 8]:
            flops, schedule = self._layout(demo_mesh, p)
            if source == "simulated":
                sim = BspSimulator(flops, schedule, planted)
                steps = [sim.run("barrier", step=s) for s in range(2)]
            else:
                # Exact aggregate model: Eq.(2) + the queue-search term.
                b = SimpleNamespace(
                    t_comp=tf * float(flops.max()),
                    t_comm=(
                        schedule.b_max * tl
                        + schedule.c_max * tw
                        + tq * schedule.q_max**2
                    ),
                )
                steps = [b, b]
            sweep.append((steps, flops, schedule))
        fit = fit_machine_contended(sweep)
        assert fit.machine.tl == pytest.approx(tl, rel=1e-6)
        assert fit.machine.tw == pytest.approx(tw, rel=1e-6)
        assert fit.machine.tq == pytest.approx(tq, rel=1e-6)
        assert fit.contended_residual <= fit.uniform_residual
        # The uniform model cannot absorb the q**2 term: the planted
        # contention shows up as a real residual reduction.
        assert fit.residual_reduction > 0.5
        assert fit.uniform_machine.tq is None
        assert fit.samples == 6

    def test_fit_on_contended_per_pe_sweep(self, demo_mesh):
        planted = Machine(
            name="planted", tf=1e-9, tl=2e-6, tw=3e-8, tq=4e-7
        )
        fit = fit_machine_contended(
            self._sweep(demo_mesh, planted, [2, 4, 6, 8])
        )
        assert fit.contended_residual <= fit.uniform_residual
        assert fit.machine.tq is not None and fit.machine.tq >= 0

    def test_fit_contention_free_falls_back(self, demo_mesh):
        fit = fit_machine_contended(
            self._sweep(demo_mesh, CRAY_T3E, [2, 4, 8])
        )
        # Nested models: the contended fit can never be worse.
        assert fit.contended_residual <= fit.uniform_residual

    def test_fit_needs_data(self):
        with pytest.raises(ValueError):
            fit_machine_contended([])

    def test_simulator_matches_model_with_contention(self, demo_mesh):
        machine = Machine(
            name="c", tf=1e-9, tl=2e-6, tw=3e-8, tq=4e-7
        )
        flops, schedule = self._layout(demo_mesh, 6)
        phases = BspSimulator(flops, schedule, machine).run("barrier")
        # Aggregate Eq.(2)+contention bounds the exact per-PE max.
        assert contended_t_comm(schedule, machine) >= phases.t_comm

    @pytest.mark.parametrize("rhs", [1, 16])
    def test_contended_t_comm_adds_the_queue_term(self, demo_mesh, rhs):
        _, schedule = self._layout(demo_mesh, 8)
        tq = 4e-7
        machine = Machine(name="c", tf=1e-9, tl=2e-6, tw=3e-8, tq=tq)
        free = Machine(name="c0", tf=1e-9, tl=2e-6, tw=3e-8, tq=0.0)
        eq2 = eq2_t_comm(schedule, machine, rhs=rhs)
        assert contended_t_comm(schedule, free, rhs=rhs) == eq2
        assert contended_t_comm(schedule, machine, rhs=rhs) == pytest.approx(
            eq2 + tq * schedule.q_max**2, rel=1e-12
        )

    def test_contended_t_comm_requires_tq(self, demo_mesh):
        _, schedule = self._layout(demo_mesh, 4)
        with pytest.raises(ValueError):
            contended_t_comm(schedule, CRAY_T3E)


class TestZeroOverheadContract:
    """With no registry, instrumentation must be invisible and clock-free."""

    @pytest.fixture(scope="class")
    def small_setup(self, demo_mesh, demo_materials):
        partition = partition_mesh(demo_mesh, 4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(3 * demo_mesh.num_nodes)
        return partition, x

    def test_multiply_reads_zero_clocks_without_sink(
        self, demo_mesh, demo_materials, small_setup, monkeypatch
    ):
        import repro.smvp.executor as executor_module

        calls = []
        real_now = executor_module.now

        def counting_now():
            calls.append(None)
            return real_now()

        with DistributedSMVP(
            demo_mesh, small_setup[0], demo_materials
        ) as smvp:
            monkeypatch.setattr(executor_module, "now", counting_now)
            smvp.multiply(small_setup[1])
            assert calls == []
            # Sanity: the traced path *does* read the clock.
            smvp.trace_sink = TraceLog()
            smvp.multiply(small_setup[1])
            assert len(calls) == 5

    def test_registry_presence_is_bit_invisible(
        self, demo_mesh, demo_materials, small_setup
    ):
        partition, x = small_setup
        with DistributedSMVP(demo_mesh, partition, demo_materials) as smvp:
            baseline = smvp.multiply(x)
        with use_registry(MetricsRegistry()):
            with DistributedSMVP(
                demo_mesh, partition, demo_materials
            ) as smvp:
                instrumented = smvp.multiply(x)
        assert np.array_equal(baseline, instrumented)

    def test_executor_populates_registry_when_installed(
        self, demo_mesh, demo_materials, small_setup
    ):
        partition, x = small_setup
        reg = MetricsRegistry()
        with use_registry(reg):
            with DistributedSMVP(
                demo_mesh, partition, demo_materials
            ) as smvp:
                smvp.multiply(x)
        assert reg.counter("repro_smvp_setups_total").total == 1
        assert reg.counter("repro_smvp_supersteps_total").value(
            kernel="csr", backend="serial"
        ) == 1
        assert reg.counter("repro_backend_compute_phases_total").value(
            backend="serial"
        ) == 1
        assert reg.counter("repro_exchange_rounds_total").total == 1
        words = reg.counter("repro_exchange_words_total")
        assert words.total == sum(
            v for _, v in words.series()
        ) > 0
        assert reg.gauge("repro_smvp_num_pes").value() == 4


class TestRegistryEdgeCases:
    def test_histogram_exact_bucket_upper_bound(self):
        # Prometheus `le` semantics: a value equal to a bound counts
        # inside that bound's bucket, not the next one.
        h = MetricsRegistry().histogram("repro_t", buckets=(0.1, 1.0))
        h.observe(0.1)
        h.observe(1.0)
        assert h.counts == [1, 1, 0]
        assert h.cumulative_counts() == [1, 2, 2]

    def test_empty_registry_exports(self):
        reg = MetricsRegistry()
        assert render_prometheus(reg).strip() == ""
        snap = json.loads(render_snapshot_json(reg))
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert snap["spans"] == []
        # An empty registry also exports an empty (but valid) timeline.
        doc = chrome_trace(registry=reg)
        assert doc["traceEvents"] == []

    def test_use_registry_is_reentrant(self):
        outer = MetricsRegistry()
        inner = MetricsRegistry()
        with use_registry(outer):
            count("repro_reentrant_total")
            with use_registry(inner):
                assert get_registry() is inner
                count("repro_reentrant_total")
            # The outer registry is restored, not cleared.
            assert get_registry() is outer
            count("repro_reentrant_total")
        assert get_registry() is None
        assert outer.counter("repro_reentrant_total").total == 2
        assert inner.counter("repro_reentrant_total").total == 1

    def test_use_registry_restores_on_exception(self):
        outer = MetricsRegistry()
        with use_registry(outer):
            with pytest.raises(RuntimeError):
                with use_registry(MetricsRegistry()):
                    raise RuntimeError("boom")
            assert get_registry() is outer


class TestProfiledTimeline:
    @pytest.fixture(scope="class")
    def profiled_serial_log(self, demo_mesh, demo_materials):
        from repro.smvp.trace import TraceLog as _TraceLog

        partition = partition_mesh(demo_mesh, 4)
        log = _TraceLog()
        smvp = DistributedSMVP(
            demo_mesh,
            partition,
            demo_materials,
            trace_sink=log,
            profile=True,
        )
        x = np.random.default_rng(0).standard_normal(
            3 * demo_mesh.num_nodes
        )
        try:
            smvp.multiply(x)
        finally:
            smvp.close()
        return log

    def test_wire_thread_is_a_distinct_track(self, profiled_serial_log):
        from repro.telemetry.timeline import PE_TID_BASE, WIRE_TID

        doc = chrome_trace(log=profiled_serial_log)
        events = doc["traceEvents"]
        wire = [
            e
            for e in events
            if e.get("ph") == "X" and e["tid"] == WIRE_TID
        ]
        assert wire
        for e in wire:
            assert e["name"].startswith("msg:")
            assert e["args"]["words"] > 0
            assert e["args"]["src"] != e["args"]["dst"]
        names = [
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        ]
        assert "wire" in names
        # Per-PE tracks carry the actual compute spans.
        pe_kinds = {
            e["name"]
            for e in events
            if e.get("ph") == "X" and e["tid"] >= PE_TID_BASE
        }
        assert "compute" in pe_kinds

    def test_validator_accepts_profiled_export(self, profiled_serial_log):
        validate_trace_events(
            chrome_trace(log=profiled_serial_log)["traceEvents"]
        )

    def test_validator_rejects_overlapping_spans_in_a_track(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "pid": 0, "tid": 7,
             "dur": 10.0},
            {"name": "b", "ph": "X", "ts": 5.0, "pid": 0, "tid": 7,
             "dur": 10.0},
        ]
        with pytest.raises(ValueError, match="overlapping spans"):
            validate_trace_events(events)
        # Different tracks may overlap freely.
        events[1]["tid"] = 8
        validate_trace_events(events)
        # Shared boundaries within a track are fine.
        events[1]["tid"] = 7
        events[1]["ts"] = 10.0
        validate_trace_events(events)

    def test_legacy_unprofiled_export_still_validates(self):
        log = TraceLog()
        log(make_trace(step=0))
        log(make_trace(step=1))
        validate_trace_events(chrome_trace(log=log)["traceEvents"])
