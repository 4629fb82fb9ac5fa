"""Self-tests of the benchmark (not part of tier-1; run with
``python3 -m pytest bench/tests -q``).  Trials run in ``--quick`` mode
on the demo instance, in this process."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
KINDS = {"measured", "count", "computed", "simulated"}
QUICK_SECONDS = 0.2


@pytest.fixture(scope="module")
def traced():
    return {
        name: workloads.run_trial(name, 0, QUICK_SECONDS, True, quick=True)
        for name in run.WORKLOAD_NAMES
    }


@pytest.fixture(scope="module")
def untraced():
    return {
        name: workloads.run_trial(name, 0, QUICK_SECONDS, False, quick=True)
        for name in run.WORKLOAD_NAMES
    }


def test_benchmark_json_agrees_with_the_tables():
    doc = harness.BENCHMARK
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert set(e2e) == {"setup_s", "solve_s", "peak_rss_mb"}
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert len(layer) == len(doc["per_layer"]) <= 128
    assert layer == {
        name: (unit, better)
        for name, (unit, _kind, better) in harness.PER_LAYER.items()
    }
    for name in list(e2e) + list(layer) + list(run.WORKLOAD_NAMES):
        assert NAME.fullmatch(name), name
    for _unit, kind, _better in harness.PER_LAYER.values():
        assert kind in KINDS


def test_untraced_trial_reports_every_end_to_end_metric(untraced):
    for name, result in untraced.items():
        assert result["correct"] and result["failed"] == 0, result["checks"]
        assert result["attempted"] >= len(result["checks"]) + 1
        assert set(result["metrics"]) == set(harness.END_TO_END)
        for entry in result["metrics"].values():
            assert entry["value"] > 0 and entry["kind"] == "measured"
        line = json.loads(run.driver_line(result, harness.END_TO_END))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(harness.END_TO_END)


def test_traced_trial_reports_every_per_layer_metric(traced):
    for name, result in traced.items():
        assert result["correct"], result["checks"]
        assert set(result["metrics"]) == set(harness.PER_LAYER)
        for metric, entry in result["metrics"].items():
            assert entry["kind"] in KINDS and entry["unit"]
            assert (entry["value"] is None) == ("reason" in entry), metric
        line = json.loads(run.driver_line(result, harness.PER_LAYER))
        assert all(
            isinstance(m["value"], (int, float))
            for m in line["metrics"].values()
        )
    # What each workload is there to show is measured on it.
    quake = traced["quake-sf5e-p8"]["metrics"]
    for metric in (
        "assembly.global_s", "executor.construct_s", "timeloop.step_ms_p50",
        "backend.compute_ms_p50", "exchange.comm_ms_p50",
        "executor.unattributed_frac", "kernel.tf_ns.csr",
        "backend.compute_ms_p50.serial", "executor.step_ms_p50.abft",
        "executor.step_ms_p50.profiled", "trace.overhead_frac",
    ):
        assert quake[metric]["value"] is not None, quake[metric]
    assert traced["quake-sf5e-p8"]["phase_source"] == "bench_spans"
    block = traced["block-sf5e-p8-r16-overlap"]
    assert block["phase_source"] == "trace_sink"
    assert block["metrics"]["executor.unattributed_frac"]["value"] is not None
    sweep = traced["characterize-sf5e"]["metrics"]
    for p in harness.SWEEP_PES:
        for stem in ("partition.geometric_s", "sim.t_comm_us",
                     "exchange.comm_ms_p50", "model.eq2_fit_ms"):
            assert sweep[f"{stem}.p{p}"]["value"] is not None
    assert sweep["model.eq2_rel_residual_rms"]["value"] is not None


def test_phase_medians_add_up_to_the_multiply(traced):
    m = traced["quake-sf5e-p8"]["metrics"]
    phases = sum(
        m[k]["value"] for k in (
            "executor.scatter_ms_p50", "backend.compute_ms_p50",
            "exchange.comm_ms_p50", "executor.gather_ms_p50",
        )
    )
    assert phases == pytest.approx(
        m["executor.multiply_ms_p50"]["value"], rel=0.15
    )


@pytest.mark.parametrize("name", ["quake-sf5e-p8", "characterize-sf5e"])
def test_exact_metrics_repeat_exactly(traced, name):
    again = workloads.run_trial(name, 0, QUICK_SECONDS, True, quick=True)
    exact = 0
    for metric, entry in traced[name]["metrics"].items():
        if entry["kind"] in ("count", "computed", "simulated"):
            assert again["metrics"][metric]["value"] == entry["value"], metric
            exact += entry["value"] is not None
    assert exact >= 10


def test_spans_nest_and_self_times_are_non_negative(traced):
    for result in traced.values():
        record = result["spans"]
        assert record["workload"] == result["workload"]
        assert record["columns"][:4] == ["name", "start", "end", "parent"]
        rows = record["rows"]
        assert rows
        own = [end - start for _n, start, end, _p, _k in rows]
        for _n, start, end, parent, _k in rows:
            assert end >= start
            if parent >= 0:
                assert rows[parent][1] <= start and end <= rows[parent][2]
                own[parent] -= end - start
        assert min(own) >= -1e-9


def test_a_broken_check_is_a_failed_operation(monkeypatch, capsys):
    monkeypatch.setattr(checks, "VERIFY_TOL", -1.0)
    status = run.main([
        "--workload", "quake-sf5e-p8", "--seconds", "0.05", "--trace", "0",
        "--quick",
    ])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert line["correct"] is False and line["failed"] == 1


def test_a_failing_probe_nulls_only_its_own_metric():
    layer = harness.Metrics(harness.PER_LAYER)

    def gone():
        raise AttributeError("no such phase API")

    layer.guard(["kernel.tf_ns.csr"], gone)
    layer.guard(["mesh.nodes"], lambda: {"mesh.nodes": 7})
    assert layer.entries["kernel.tf_ns.csr"]["value"] is None
    assert "AttributeError" in layer.entries["kernel.tf_ns.csr"]["reason"]
    assert layer.entries["mesh.nodes"]["value"] == 7.0


def _record(solve_values):
    def q(values):
        return dict(harness.quartiles(values), unit="s")

    return {
        "workloads": {
            "quake-sf5e-p8": {
                "end_to_end": {
                    "setup_s": q([6.0, 6.1, 6.2]),
                    "solve_s": q(solve_values),
                    "peak_rss_mb": q([765.0, 765.5, 766.0]),
                },
                "per_layer": {},
            }
        }
    }


def test_compare_flags_a_regression_and_passes_noise(tmp_path):
    bound = harness.END_TO_END["solve_s"][1]
    base = [10.0, 10.05, 10.1]

    def verdict(factor, values=base):
        rows = compare.compare_records(
            _record(values), _record([v * factor for v in base])
        )
        return {r["metric"]: r["verdict"] for r in rows}["solve_s"]

    assert verdict(1.0 + bound + 0.05) == "regression"
    assert verdict(1.03) == "ok"
    assert verdict(1.0 - bound - 0.05) == "improved"
    assert verdict(1.02, values=[8.0, 10.0, 12.5]) == "unresolved"
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(_record(base)))
    new.write_text(json.dumps(_record([v * (1.05 + bound) for v in base])))
    assert compare.main([str(old), str(new)]) == 1
    assert compare.main([str(old), str(old)]) == 0


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".bench-*", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quake-sf5e-p8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
