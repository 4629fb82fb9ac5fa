"""Additional coverage for corners not exercised elsewhere."""

import numpy as np
import pytest

from repro.model.application import predict_application
from repro.model.inputs import ModelInputs
from repro.model.machine import CRAY_T3E
from repro.partition import partition_mesh
from repro.smvp.spark98 import run_kernel
from repro.stats import smvp_statistics
from repro.tables.common import clear_caches, gate_note, instance_stats
from repro.telemetry import MetricsRegistry, use_registry
from repro.mesh.instances import INSTANCES


class TestSpark98Remaining:
    def test_mmv_exchanges_and_lmv_does_not(self):
        """mmv runs whole supersteps, each moving the schedule's every
        word; lmv runs the local products alone and records none."""
        mesh, _ = INSTANCES["demo"].build()
        geometric = partition_mesh(mesh, 8, "geometric")
        total_words = smvp_statistics(mesh, partition=geometric).total_words
        assert total_words > 0
        rounds, words = {}, {}
        for kernel in ("lmv", "mmv"):
            with use_registry(MetricsRegistry()) as registry:
                run_kernel(kernel, instance="demo", num_parts=8, repetitions=2)
            rounds[kernel] = registry.counter("repro_exchange_rounds_total")
            words[kernel] = registry.counter("repro_exchange_words_total")
        assert rounds["lmv"].total == words["lmv"].total == 0
        assert rounds["mmv"].total == 3  # the warm-up and two repetitions
        assert words["mmv"].total == 3 * total_words


class TestApplicationPredictionExtras:
    def test_custom_step_count(self):
        inputs = ModelInputs.from_paper("sf5", 64)
        short = predict_application(inputs, CRAY_T3E, num_steps=100)
        full = predict_application(inputs, CRAY_T3E)
        assert full.total_seconds == pytest.approx(60 * short.total_seconds)
        assert short.t_smvp == full.t_smvp

    def test_mflops_consistent_with_efficiency(self):
        inputs = ModelInputs.from_paper("sf1", 128)
        pred = predict_application(inputs, CRAY_T3E)
        peak_local = 1e-6 / CRAY_T3E.tf
        assert pred.sustained_mflops_per_pe == pytest.approx(
            pred.efficiency * peak_local, rel=1e-9
        )


class TestTablesCommon:
    def test_stats_cache_hit_is_same_object(self):
        clear_caches()
        inst = INSTANCES["demo"]
        a = instance_stats(inst, 4)
        b = instance_stats(inst, 4)
        assert a is b
        clear_caches()

    def test_gate_note(self, monkeypatch):
        monkeypatch.delenv("REPRO_LARGE", raising=False)
        note = gate_note(INSTANCES["sf2e"])
        assert "REPRO_LARGE" in note
        assert gate_note(INSTANCES["demo"]) is None


class TestDistributedRoundTrip:
    def test_scatter_gather_identity_on_compute_free_vector(self, demo_mesh, demo_materials):
        """Scattering x and gathering (without compute/exchange) must
        reproduce x — the replication bookkeeping is lossless."""
        from repro.partition import partition_mesh
        from repro.smvp import DistributedSMVP

        partition = partition_mesh(demo_mesh, 8)
        ds = DistributedSMVP(demo_mesh, partition, demo_materials)
        x = np.random.default_rng(0).standard_normal(3 * demo_mesh.num_nodes)
        assert np.array_equal(ds.gather(ds.scatter(x)), x)
