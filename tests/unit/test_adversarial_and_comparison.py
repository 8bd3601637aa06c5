"""Unit tests for adversarial workloads, the comparison harness and the
time-series metrics."""

import pytest

from repro.analysis.causal_graph import causal_graph_stats
from repro.core.cluster import build_cluster
from repro.harness.comparison import compare_protocols
from repro.harness.runner import ExperimentConfig
from repro.metrics.timeseries import (
    _bucketize,
    delivery_latency_series,
    event_rate_series,
    resident_series,
)
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from repro.workloads.adversarial import ChainWorkload, HotspotWorkload, StormWorkload


class TestChainWorkload:
    def test_builds_a_single_causal_chain(self):
        cluster = build_cluster(3)
        ChainWorkload(hops=6).install(cluster, RngRegistry(0))
        cluster.run_until_quiescent(max_time=30.0)
        verify_run(cluster.trace, 3).assert_ok()
        stats = causal_graph_stats(cluster.trace, 3)
        assert stats.messages == 6
        assert stats.depth == 6          # one unbroken chain
        assert stats.concurrency_ratio == 0.0

    def test_chain_delivery_order_identical_everywhere(self):
        cluster = build_cluster(4)
        ChainWorkload(hops=8).install(cluster, RngRegistry(1))
        cluster.run_until_quiescent(max_time=30.0)
        orders = [
            [m.data for m in cluster.delivered(i)] for i in range(4)
        ]
        # A total chain leaves CO no freedom: all orders must agree.
        assert all(order == orders[0] for order in orders)
        assert orders[0] == [f"token:{k}" for k in range(8)]

    def test_chain_under_loss(self):
        from repro.net.loss import BernoulliLoss

        cluster = build_cluster(
            3, loss=BernoulliLoss(0.1, protect_control=True),
            rngs=RngRegistry(2),
        )
        ChainWorkload(hops=6).install(cluster, RngRegistry(2))
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, 3).assert_ok()


class TestStormWorkload:
    def test_storm_fully_delivered(self):
        cluster = build_cluster(4)
        StormWorkload(batch=8).install(cluster, RngRegistry(3))
        cluster.run_until_quiescent(max_time=60.0)
        report = verify_run(cluster.trace, 4)
        report.assert_ok()
        assert report.deliveries == [32] * 4

    def test_storm_can_overrun_small_buffers(self):
        from repro.core.cluster import CpuModel

        cluster = build_cluster(
            4, buffer_capacity=8, cpu=CpuModel(base=5e-4, per_entity=0.0),
        )
        StormWorkload(batch=10).install(cluster, RngRegistry(4))
        cluster.run_until_quiescent(max_time=120.0)
        assert sum(h.buffer.stats.overruns for h in cluster.hosts) > 0
        verify_run(cluster.trace, 4).assert_ok()


class TestHotspotWorkload:
    def test_hotspot_delivers_everywhere(self):
        cluster = build_cluster(4)
        HotspotWorkload(hot_messages=15).install(cluster, RngRegistry(5))
        cluster.run_until_quiescent(max_time=60.0)
        report = verify_run(cluster.trace, 4)
        report.assert_ok()
        assert report.deliveries == [18] * 4  # 15 hot + 3 trickle


class TestComparisonHarness:
    @pytest.fixture(scope="class")
    def report(self):
        base = ExperimentConfig(
            workload="request-reply", n=4, messages_per_entity=6,
            loss_rate=0.10, seed=13, max_time=2.0,
        )
        return compare_protocols(base)

    def test_co_wins_the_scoreboard(self, report):
        co = report.by_protocol("co")
        assert co.missing == 0
        assert co.causal_violations == 0
        assert co.completed

    def test_unordered_loses_information(self, report):
        assert report.by_protocol("unordered").missing > 0

    def test_cbcast_stalls(self, report):
        cbcast = report.by_protocol("cbcast")
        assert not cbcast.completed
        assert cbcast.stalled > 0

    def test_render_is_a_table(self, report):
        text = report.render()
        assert "protocol" in text
        assert "co" in text
        assert "cbcast" in text

    def test_unknown_protocol_lookup(self, report):
        with pytest.raises(KeyError):
            report.by_protocol("nope")


class TestTimeseries:
    @pytest.fixture(scope="class")
    def cluster(self):
        cluster = build_cluster(3)
        for k in range(10):
            cluster.sim.schedule_at(k * 1e-3, cluster.submit, k % 3, f"m{k}", 0)
        cluster.run_until_quiescent(max_time=30.0)
        return cluster

    def test_delivery_rate_series_totals(self, cluster):
        series = event_rate_series(cluster.trace, "deliver", bucket=2e-3)
        assert series.total == 30  # 10 messages x 3 entities
        assert series.peak >= 1

    def test_latency_series_positive(self, cluster):
        series = delivery_latency_series(cluster.trace, bucket=2e-3)
        assert any(v > 0 for v in series.values)

    def test_resident_series_pipeline_totals_match(self, cluster):
        series = resident_series(cluster.trace, bucket=2e-3)
        assert series["accept"].total >= series["preack"].total
        assert series["preack"].total == series["ack"].total

    def test_times_align_with_buckets(self, cluster):
        series = event_rate_series(cluster.trace, "deliver", bucket=5e-3)
        times = series.times()
        assert times[0] == 0.0
        assert times[1] - times[0] == pytest.approx(5e-3)

    @pytest.mark.parametrize("combine", ["count", "mean"])
    def test_a_series_starts_at_its_first_sample(self, combine):
        # UDP records carry loop.time(), seconds of host uptime: the same
        # samples 1e5 s later make the same series, not 4e5 more slots.
        samples = [(0.0, 1.0), (0.3, 2.0), (0.35, 4.0), (1.1, 8.0)]
        at_zero = _bucketize(samples, 0.25, combine)
        later = _bucketize([(t + 1e5, v) for t, v in samples], 0.25, combine)
        assert later.values == at_zero.values
        assert len(at_zero.values) == 5
        assert (at_zero.start, later.start) == (0.0, 1e5)

    def test_series_shown_together_share_a_start(self):
        # repro inspect passes the recording's first record time, so a
        # category whose first event is late keeps its leading buckets.
        late = _bucketize([(0.6, 1.0), (0.7, 1.0)], 0.25, "count", start=0.0)
        assert late.start == 0.0
        assert late.values == (0.0, 0.0, 2.0)

    def test_empty_trace(self):
        series = event_rate_series(TraceLog(), "deliver", bucket=1e-3)
        assert series.values == ()
        assert series.total == 0

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            event_rate_series(TraceLog(), "deliver", bucket=0)
