"""Integration tests for the experiment harness and figure generators."""

import pytest

from repro.core.errors import ConfigurationError
from repro.harness import ExperimentConfig, run_experiment, sweep
from repro.harness.figures import (
    EXPERIMENTS_HEADER,
    HAND_WRITTEN_MARKER,
    claim_c1_pdu_complexity,
    claim_c2_ack_latency,
    claim_c3_buffer,
    claim_c4_retransmission,
    claim_c5_vs_isis,
    figure8,
    generate_all,
    write_experiments,
)
from repro.harness.sweeps import extract
from repro.metrics.stats import linear_fit


class TestRunner:
    def test_result_carries_config_and_metrics(self):
        config = ExperimentConfig(n=3, messages_per_entity=5, seed=1)
        result = run_experiment(config)
        assert result.config is config
        assert result.quiesced
        assert result.tco > 0
        assert result.tap.count == 45  # 15 messages x 3 destinations
        assert result.report.ok

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(protocol="nope")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(workload="nope")

    def test_fixed_duration_mode(self):
        result = run_experiment(ExperimentConfig(
            n=3, messages_per_entity=5, run_to_quiescence=False,
            fixed_duration=0.05, seed=2,
        ))
        assert result.simulated_time == pytest.approx(0.05)

    def test_with_returns_new_config(self):
        base = ExperimentConfig()
        assert base.with_(n=7).n == 7
        assert base.n == 4

    def test_sweep_and_extract(self):
        base = ExperimentConfig(n=3, messages_per_entity=5)
        results = sweep(base, "n", [2, 3, 4])
        assert [r.config.n for r in results] == [2, 3, 4]
        assert extract(results, lambda r: r.config.n) == [2, 3, 4]

    def test_sweep_reseed(self):
        base = ExperimentConfig(n=3, messages_per_entity=5, seed=100)
        results = sweep(base, "loss_rate", [0.0, 0.05], reseed=True)
        assert [r.config.seed for r in results] == [100, 101]


class TestFigures:
    """Each generator runs (fast mode) and its headline shape holds."""

    def test_figure8_tco_linear_in_n(self):
        artifact = figure8(fast=True)
        ns, tco = artifact.data["n"], artifact.data["tco_ms"]
        fit = linear_fit(ns, tco)
        assert fit.slope > 0
        assert fit.r_squared > 0.99

    def test_figure8_tap_grows_with_n(self):
        artifact = figure8(fast=True)
        tap = artifact.data["tap_ms"]
        assert tap[-1] > tap[0]

    def test_c1_immediate_traffic_dominates(self):
        artifact = claim_c1_pdu_complexity(fast=True)
        deferred = artifact.data["deferred"]
        immediate = artifact.data["immediate"]
        # At the largest n the ratio must be substantial and growing.
        assert immediate[-1] / deferred[-1] > 2.0
        assert immediate[-1] / deferred[-1] > immediate[0] / max(1, deferred[0])

    def test_c2_preack_r_ack_2r(self):
        artifact = claim_c2_ack_latency(fast=True)
        for r, preack, ack in zip(
            artifact.data["R"], artifact.data["preack"], artifact.data["ack"],
        ):
            assert preack < 3 * r
            assert 1.5 * preack < ack < 3 * preack

    def test_c3_buffer_linear_under_2nw(self):
        artifact = claim_c3_buffer(fast=True)
        ns, high = artifact.data["n"], artifact.data["high_water"]
        for n, value in zip(ns, high):
            assert value <= 2 * n * 8
        assert high[-1] > high[0]

    def test_c4_gbn_retransmits_more(self):
        artifact = claim_c4_retransmission(fast=True)
        assert artifact.data["gbn_retx"][-1] > artifact.data["sel_retx"][-1]

    def test_c5_comparison_shape(self):
        artifact = claim_c5_vs_isis(fast=True)
        assert artifact.data["cb_tap"] < artifact.data["co_tap"]
        assert artifact.data["stalled"] > 0

    def test_artifact_render_contains_table(self):
        artifact = figure8(fast=True)
        text = artifact.render()
        assert "fig8" in text and "```" in text

    def test_services_artifact_shape(self):
        from repro.harness.figures import service_classes

        artifact = service_classes(fast=True)
        assert artifact.data["co"] == 0          # CO commits no inversions
        assert artifact.data["po"] > 0           # PO does, on this workload
        assert "unordered" in artifact.table

    def test_write_experiments(self, tmp_path):
        artifacts = [figure8(fast=True)]
        generated = EXPERIMENTS_HEADER + artifacts[0].render() + "\n"
        path = tmp_path / "EXPERIMENTS.md"
        # Fresh path: header and artefacts, nothing else.
        write_experiments(str(path), artifacts)
        content = path.read_text(encoding="utf-8")
        assert "paper vs. measured" in content
        assert "fig8" in content
        assert content == generated
        # Existing file: what it holds from the marker line on is
        # hand-written and survives byte for byte; the rest is regenerated.
        tail = HAND_WRITTEN_MARKER + "\n\n## A write-up\n\n| µs | ± |\n  kept  \n"
        path.write_text("stale tables\n\n" + tail, encoding="utf-8")
        write_experiments(str(path), artifacts)
        assert path.read_text(encoding="utf-8") == generated + "\n" + tail
        write_experiments(str(path), artifacts)  # and is stable
        assert path.read_text(encoding="utf-8") == generated + "\n" + tail
