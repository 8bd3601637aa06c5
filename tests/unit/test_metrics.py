"""Unit tests for lifecycle collection, stats and reporting."""

import random

import pytest

from repro.metrics.collector import collect_lifecycles, latency_samples, pdu_census
from repro.metrics.reporting import bar_chart, format_series, format_table
from repro.metrics.stats import growth_ratio, linear_fit, summarize
from repro.sim.trace import TraceLog


def lifecycle_trace():
    t = TraceLog()
    t.record(0.0, "submit", 0, size=10)
    t.record(0.1, "broadcast", 0, kind="DataPdu", seq=1)
    t.record(0.1, "accept", 0, src=0, seq=1, null=False)
    t.record(1.0, "accept", 1, src=0, seq=1, null=False)
    t.record(2.0, "preack", 1, src=0, seq=1)
    t.record(3.0, "ack", 1, src=0, seq=1)
    t.record(3.0, "deliver", 1, src=0, seq=1)
    return t


class TestCollector:
    def test_lifecycle_fields(self):
        lc = collect_lifecycles(lifecycle_trace())[(0, 1)]
        assert lc.submit_time == 0.0
        assert lc.broadcast_time == 0.1
        assert lc.accept_times == {0: 0.1, 1: 1.0}
        assert lc.preack_times == {1: 2.0}
        assert lc.ack_times == {1: 3.0}
        assert lc.deliver_times == {1: 3.0}

    def test_delivery_latency(self):
        lc = collect_lifecycles(lifecycle_trace())[(0, 1)]
        assert lc.delivery_latency(1) == pytest.approx(3.0)
        assert lc.delivery_latency(2) is None
        assert lc.max_delivery_latency() == pytest.approx(3.0)

    def test_span_latencies(self):
        lc = collect_lifecycles(lifecycle_trace())[(0, 1)]
        assert lc.preack_after_accept(1) == pytest.approx(1.0)
        assert lc.ack_after_accept(1) == pytest.approx(2.0)
        assert lc.preack_after_accept(0) is None

    def test_retransmission_keeps_first_broadcast_time(self):
        t = lifecycle_trace()
        t.record(5.0, "broadcast", 0, kind="DataPdu", seq=1)
        lc = collect_lifecycles(t)[(0, 1)]
        assert lc.broadcast_time == 0.1

    def test_latency_samples(self):
        lifecycles = collect_lifecycles(lifecycle_trace())
        delivery = latency_samples(lifecycles, "delivery")
        assert len(delivery) == 1
        assert delivery[0].value == pytest.approx(3.0)
        assert latency_samples(lifecycles, "ack")[0].value == pytest.approx(2.0)
        with pytest.raises(ValueError):
            latency_samples(lifecycles, "bogus")

    def test_pdu_census(self):
        census = pdu_census(lifecycle_trace())
        assert census["broadcast"] == 1
        assert census["accept"] == 2
        assert census["deliver"] == 1


class TestStats:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.p50 == pytest.approx(2.5)

    def test_summarize_empty(self):
        s = summarize([])
        assert s.count == 0 and s.mean == 0.0

    def test_summary_scaled(self):
        s = summarize([1.0, 3.0]).scaled(1000)
        assert s.mean == pytest.approx(2000)
        assert s.count == 2

    def test_linear_fit_exact(self):
        fit = linear_fit([1, 2, 3], [2.0, 4.0, 6.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(20.0)

    def test_linear_fit_constant_series(self):
        fit = linear_fit([1, 2, 3], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == 1.0

    def test_linear_fit_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])

    def test_linear_fit_rejects_a_vertical_line(self):
        with pytest.raises(ValueError):
            linear_fit([2, 2, 2], [1.0, 2.0, 3.0])

    def test_agrees_with_numpy(self):
        """The standard-library statistics match what numpy computed before
        (linear-interpolation percentiles, least-squares polyfit)."""
        np = pytest.importorskip("numpy")
        rng = random.Random(5)
        close = dict(rel=1e-9, abs=1e-12)
        for size in (1, 2, 3, 7, 100, 2_000):
            samples = [rng.choice((rng.expovariate(3.0), rng.randint(-5, 5)))
                       for _ in range(size)]
            s = summarize(samples)
            arr = np.asarray(samples, dtype=float)
            assert s.count == size
            assert s.mean == pytest.approx(float(arr.mean()), **close)
            assert s.p50 == pytest.approx(float(np.percentile(arr, 50)), **close)
            assert s.p95 == pytest.approx(float(np.percentile(arr, 95)), **close)
            assert (s.minimum, s.maximum) == (float(arr.min()), float(arr.max()))
            if size < 2:
                continue
            xs = [rng.uniform(0, 64) for _ in range(size)]
            ys = [3.5 * x - 2.0 + rng.gauss(0, 4.0) for x in xs]
            fit = linear_fit(xs, ys)
            slope, intercept = np.polyfit(xs, ys, 1)
            y = np.asarray(ys)
            predicted = slope * np.asarray(xs) + intercept
            r_squared = 1.0 - float(np.sum((y - predicted) ** 2)) / float(
                np.sum((y - y.mean()) ** 2))
            assert fit.slope == pytest.approx(float(slope), **close)
            assert fit.intercept == pytest.approx(float(intercept), **close)
            assert fit.r_squared == pytest.approx(r_squared, **close)

    def test_growth_ratio_shapes(self):
        xs = [2, 4, 8]
        assert growth_ratio(xs, [2, 4, 8]) == pytest.approx(1.0)       # linear
        assert growth_ratio(xs, [4, 16, 64]) == pytest.approx(4.0)     # quadratic
        assert growth_ratio(xs, [3, 3, 3]) == pytest.approx(0.25)      # constant


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["n", "value"], [[2, 0.5], [10, 1.25]])
        lines = text.splitlines()
        assert lines[0].startswith("n")
        assert len(lines) == 4
        assert "10" in lines[3]

    def test_format_table_title_and_validation(self):
        text = format_table(["a"], [[1]], title="T")
        assert text.splitlines()[0] == "T"
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        text = format_series([1, 2], [[10, 20], [30, 40]], "x", ["y1", "y2"])
        assert "y1" in text and "40" in text
        with pytest.raises(ValueError):
            format_series([1], [[1, 2]], "x", ["y"])

    def test_bar_chart(self):
        text = bar_chart(["a", "bb"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bar_chart_zero_values(self):
        text = bar_chart(["a"], [0.0])
        assert "#" not in text


class TestHotPathStats:
    def test_ratios_from_counters(self):
        from repro.metrics.collector import hot_path_stats

        stats = hot_path_stats({
            "accepted": 100,
            "preacknowledged": 50,
            "pack_source_scans": 120,
            "pack_dep_blocks": 5,
            "cpi_fast_appends": 48,
            "cpi_scan_inserts": 2,
        })
        assert stats["pack_source_scans"] == 120.0
        assert stats["pack_source_scans_per_accept"] == pytest.approx(1.2)
        assert stats["cpi_fast_append_ratio"] == pytest.approx(0.96)
        assert stats["dep_blocks_per_preack"] == pytest.approx(0.1)

    def test_tolerates_pre_counter_snapshots(self):
        """Snapshots from runs predating the counters must not crash."""
        from repro.metrics.collector import hot_path_stats

        stats = hot_path_stats({"accepted": 0})
        assert stats == {
            "pack_source_scans": 0.0,
            "pack_source_scans_per_accept": 0.0,
            "cpi_fast_append_ratio": 0.0,
            "dep_blocks_per_preack": 0.0,
            "ret_retries": 0.0,
        }

    def test_engine_counters_expose_hot_path_fields(self):
        from tests.conftest import EngineDriver, make_pdu

        drv = EngineDriver(0, 3)
        drv.receive(make_pdu(1, 1, (1, 1, 1)))
        drv.receive(make_pdu(2, 1, (1, 2, 1)))
        snap = drv.engine.counters.snapshot()
        for key in ("pack_source_scans", "pack_dep_blocks",
                    "cpi_fast_appends", "cpi_scan_inserts"):
            assert key in snap
        assert snap["pack_source_scans"] >= 1
