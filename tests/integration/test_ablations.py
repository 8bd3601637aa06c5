"""Integration tests for the ablation switches (DESIGN.md §6)."""

import pytest

from repro.core.cluster import build_cluster
from repro.core.config import (
    ConfirmationMode,
    DeliveryLevel,
    ProtocolConfig,
    RetransmissionScheme,
)
from repro.harness import ExperimentConfig, run_experiment
from repro.net.loss import BernoulliLoss, ScriptedLoss
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry


class TestGoBackN:
    def test_gbn_delivers_correctly(self):
        result = run_experiment(ExperimentConfig(
            protocol="co-gbn", n=4, messages_per_entity=15,
            loss_rate=0.08, seed=5,
        ))
        assert result.quiesced
        result.report.assert_ok()

    def test_gbn_retransmits_more_than_selective(self):
        # Go-back-n resends more only where a gap has PDUs behind it that
        # were already sent; under paced random loss a RET usually reaches
        # a source that has sent nothing past the gap, and the counts tie.
        # So every member sends a window's worth at once and the next
        # member loses the third: four gaps, each with five PDUs behind it.
        # Selective repeat stashes those; go-back-n discards them and the
        # source resends the whole tail from the gap on.
        def run(scheme):
            loss = ScriptedLoss([(src, 3, (src + 1) % 4) for src in range(4)])
            cluster = build_cluster(
                4, config=ProtocolConfig(retransmission=scheme, window=8),
                loss=loss, rngs=RngRegistry(6),
            )
            for src in range(4):
                for k in range(8):
                    cluster.submit(src, f"{src}-{k}")
            cluster.run_until_quiescent(max_time=60.0)
            assert loss.exhausted
            verify_run(cluster.trace, 4).assert_ok()
            return {
                key: sum(getattr(e.counters, key) for e in cluster.engines)
                for key in ("retransmissions", "discarded_out_of_order", "stashed")
            }

        gbn = run(RetransmissionScheme.GO_BACK_N)
        selective = run(RetransmissionScheme.SELECTIVE)
        assert gbn["discarded_out_of_order"] == selective["stashed"] == 4 * 5
        assert gbn["retransmissions"] > selective["retransmissions"]

    def test_gbn_never_stashes(self):
        result = run_experiment(ExperimentConfig(
            protocol="co-gbn", n=4, messages_per_entity=15,
            loss_rate=0.10, seed=7,
        ))
        assert result.entity_counters["stashed"] == 0
        assert result.entity_counters["discarded_out_of_order"] > 0


class TestConfirmationModes:
    def test_immediate_mode_correct_but_noisy(self):
        immediate = run_experiment(ExperimentConfig(
            protocol="co-immediate", n=6, messages_per_entity=10, seed=8,
        ))
        deferred = run_experiment(ExperimentConfig(
            protocol="co", n=6, messages_per_entity=10, seed=8,
        ))
        immediate.report.assert_ok()
        deferred.report.assert_ok()
        assert immediate.control_pdus_on_wire > 2 * deferred.control_pdus_on_wire


class TestDeliveryLevels:
    def test_preack_level_is_faster_and_still_causal(self):
        preack = run_experiment(ExperimentConfig(
            protocol="co-preack", n=4, messages_per_entity=15, seed=9,
        ))
        acked = run_experiment(ExperimentConfig(
            protocol="co", n=4, messages_per_entity=15, seed=9,
        ))
        preack.report.assert_ok()
        acked.report.assert_ok()
        assert preack.tap.mean < acked.tap.mean


class TestStrictPaperMode:
    def test_strict_mode_delivers_under_continuous_traffic(self):
        config = ProtocolConfig(strict_paper_mode=True)
        cluster = build_cluster(3, config=config, rngs=RngRegistry(10))
        # Continuous traffic: the paper's own evaluation regime.
        for r in range(30):
            for i in range(3):
                cluster.submit(i, f"m{i}.{r}")
        cluster.run_for(0.25)
        report = verify_run(cluster.trace, 3, expect_all_delivered=False)
        report.assert_ok()
        # The bulk of the stream must have been delivered everywhere even
        # though the tail stays unacknowledged.
        assert all(d >= 60 for d in report.deliveries)

    def test_strict_mode_uses_sequenced_nulls_not_heartbeats(self):
        config = ProtocolConfig(strict_paper_mode=True)
        cluster = build_cluster(3, config=config)
        cluster.submit(0, "x")
        cluster.run_for(0.05)
        assert cluster.trace.count("heartbeat") == 0
        nulls = sum(e.counters.sent_null for e in cluster.engines)
        assert nulls > 0

    def test_strict_mode_stalls_on_finite_workload(self):
        """The documented limitation: without the heartbeat extension the
        last PDUs can never reach the acknowledgment level."""
        config = ProtocolConfig(strict_paper_mode=True)
        cluster = build_cluster(3, config=config)
        cluster.submit(0, "tail")
        with pytest.raises(TimeoutError):
            cluster.run_until_quiescent(max_time=0.5)

    def test_strict_mode_recovers_lost_data(self):
        config = ProtocolConfig(strict_paper_mode=True)
        cluster = build_cluster(
            3, config=config,
            loss=BernoulliLoss(0.1, protect_control=True),
            rngs=RngRegistry(11),
        )
        for r in range(25):
            for i in range(3):
                cluster.submit(i, f"m{i}.{r}")
        cluster.run_for(0.3)
        report = verify_run(cluster.trace, 3, expect_all_delivered=False)
        report.assert_ok()
        assert all(d >= 50 for d in report.deliveries)


class TestWindowSizes:
    @pytest.mark.parametrize("window", [1, 2, 8, 32])
    def test_any_window_is_correct(self, window):
        result = run_experiment(ExperimentConfig(
            n=3, messages_per_entity=12, window=window, seed=12,
        ))
        assert result.quiesced
        result.report.assert_ok()

    def test_small_window_bounds_resident_pdus(self):
        small = run_experiment(ExperimentConfig(
            n=4, messages_per_entity=20, window=2, send_interval=1e-4, seed=13,
        ))
        large = run_experiment(ExperimentConfig(
            n=4, messages_per_entity=20, window=32, send_interval=1e-4, seed=13,
        ))
        assert small.resident_high_water <= large.resident_high_water
