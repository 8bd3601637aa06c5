"""Unit tests for the flight-recorder observability layer.

Covers the bounded :class:`FlightRecorder`, JSONL snapshot round trips,
the fixed-bucket :class:`Histogram`, host gauge sampling, the unified
counters schema, and the ``repro inspect`` summary.
"""

import json

from repro.analysis.recording import inspect_path, summarize_recording
from repro.cli import main as cli_main
from repro.core.cluster import build_cluster
from repro.core.config import ProtocolConfig
from repro.net.loss import TargetedLoss
from repro.metrics.collector import (
    collect_lifecycles,
    gauge_histogram,
    latency_histogram,
)
from repro.metrics.reporting import sparkline
from repro.metrics.stats import Histogram
from repro.metrics.timeseries import gauge_entities, gauge_series
from repro.sim.rng import RngRegistry
from repro.sim.trace import FlightRecorder, TraceLog, load_jsonl
from repro.workloads.generators import ContinuousWorkload


def run_small_cluster(trace=None, n=3, messages=4):
    cluster = build_cluster(n, trace=trace, rngs=RngRegistry(7))
    ContinuousWorkload(messages_per_entity=messages).install(
        cluster, RngRegistry(7),
    )
    cluster.run_until_quiescent(max_time=60.0)
    return cluster


class TestFlightRecorder:
    def test_ring_keeps_only_the_tail(self):
        recorder = FlightRecorder(capacity=5)
        for k in range(12):
            recorder.record(k * 0.1, "accept", 0, seq=k)
        assert len(recorder) == 5
        assert recorder.recorded_total == 12
        assert recorder.evicted == 7
        assert [rec.get("seq") for rec in recorder] == [7, 8, 9, 10, 11]
        assert recorder[0].get("seq") == 7  # deque __getitem__ still works

    def test_records_go_through_tracelog_record(self):
        """An instrument wrapped around ``TraceLog.record`` (the e2e
        harness's ``trace.*`` ledger rows) must see the bounded recorder's
        records too: the bound lives in the ring, not in an override."""
        assert FlightRecorder.record is TraceLog.record

    def test_meta_reports_the_bound(self):
        recorder = FlightRecorder(capacity=3)
        recorder.record(0.0, "accept", 0)
        meta = recorder.meta()
        assert meta["kind"] == "flight-recorder"
        assert meta["capacity"] == 3
        assert meta["records"] == 1
        assert meta["evicted"] == 0

    def test_disabled_recorder_records_nothing(self):
        recorder = FlightRecorder(capacity=3, enabled=False)
        recorder.record(0.0, "accept", 0)
        assert len(recorder) == 0
        assert recorder.recorded_total == 0

    def test_drop_in_for_tracelog_in_a_cluster_run(self):
        recorder = FlightRecorder(capacity=200)
        cluster = run_small_cluster(trace=recorder)
        assert len(recorder) <= 200
        assert recorder.recorded_total > 200  # the run outgrew the ring
        assert recorder.evicted == recorder.recorded_total - 200
        # Quiescence detection survived the ring (absolute cursor would not).
        assert all(len(cluster.delivered(i)) == 12 for i in range(3))


class TestJsonlRoundTrip:
    def test_dump_and_load_preserve_records(self, tmp_path):
        log = TraceLog()
        log.record(0.1, "accept", 0, src=1, seq=2)
        log.record(0.2, "drop", 1, reason="inbox-overrun")
        path = str(tmp_path / "r.jsonl")
        log.dump_jsonl(path)
        loaded, meta = load_jsonl(path)
        assert meta == {"kind": "trace", "records": 2}
        assert len(loaded) == 2
        assert loaded[0].time == 0.1
        assert loaded[0].category == "accept"
        assert loaded[0].get("src") == 1 and loaded[0].get("seq") == 2
        assert loaded[1].get("reason") == "inbox-overrun"

    def test_sets_become_sorted_lists(self, tmp_path):
        log = TraceLog()
        log.record(0.0, "view-install", 0, members={2, 0, 1})
        path = str(tmp_path / "r.jsonl")
        log.dump_jsonl(path)
        loaded, _ = load_jsonl(path)
        assert loaded[0].get("members") == [0, 1, 2]

    def test_recorder_meta_survives_the_file(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        for k in range(9):
            recorder.record(float(k), "accept", 0, seq=k)
        path = str(tmp_path / "r.jsonl")
        recorder.dump_jsonl(path)
        loaded, meta = load_jsonl(path)
        assert meta["kind"] == "flight-recorder"
        assert meta["evicted"] == 5
        assert len(loaded) == 4
        assert [rec.get("seq") for rec in loaded] == [5, 6, 7, 8]


class TestHistogram:
    def test_bucketing_and_overflow(self):
        h = Histogram([1.0, 10.0])
        h.add_many([0.5, 0.7, 5.0, 50.0])
        assert h.counts == [2, 1, 1]
        assert h.total == 4
        assert h.minimum == 0.5 and h.maximum == 50.0

    def test_percentile_upper_edge_estimate(self):
        h = Histogram([1.0, 10.0, 100.0])
        h.add_many([0.5] * 50 + [5.0] * 45 + [50.0] * 5)
        assert h.percentile(50) == 1.0
        assert h.percentile(95) == 10.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0

    def test_overflow_percentile_reports_observed_max(self):
        h = Histogram([1.0])
        h.add_many([5.0, 7.0])
        assert h.percentile(99) == 7.0

    def test_empty(self):
        h = Histogram([1.0])
        assert h.percentile(95) == 0.0
        assert h.mean == 0.0
        assert h.summary().count == 0

    def test_merge_requires_same_edges(self):
        a, b = Histogram([1.0, 2.0]), Histogram([1.0, 2.0])
        a.add(0.5)
        b.add(1.5)
        b.add(9.0)
        a.merge(b)
        assert a.total == 3
        assert a.counts == [1, 1, 1]
        assert a.maximum == 9.0
        import pytest
        with pytest.raises(ValueError):
            a.merge(Histogram([1.0, 3.0]))

    def test_dict_round_trip(self):
        h = Histogram.exponential(start=1e-5, factor=2.0, buckets=8)
        h.add_many([1e-5, 3e-4, 1.0])
        again = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert again.edges == h.edges
        assert again.counts == h.counts
        assert again.total == h.total
        assert again.percentile(50) == h.percentile(50)

    def test_summary_bridge(self):
        h = Histogram([1.0, 10.0])
        h.add_many([0.5, 5.0])
        s = h.summary()
        assert s.count == 2
        assert s.mean == 2.75
        assert s.minimum == 0.5 and s.maximum == 5.0


class TestSparkline:
    def test_scales_to_series_max(self):
        line = sparkline([0, 1, 2, 4])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_ascii_ramp(self):
        line = sparkline([0, 7], ascii_only=True)
        assert line == " #"

    def test_degenerate_series(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "▁▁▁"


class TestGaugesAndCounters:
    def test_hosts_sample_gauges_on_the_tick(self):
        cluster = run_small_cluster()
        gauges = cluster.trace.select(category="gauge")
        assert gauges, "no gauge samples recorded"
        assert gauge_entities(cluster.trace) == [0, 1, 2]
        sample = gauges[0].details
        for key in ("flow_window", "in_flight", "rrl", "prl",
                    "sending_log", "gap_backlog", "resident",
                    "buf_used", "buf_free"):
            assert key in sample, key

    def test_gauge_series_and_histogram(self):
        cluster = run_small_cluster()
        series = gauge_series(cluster.trace, "buf_free", bucket=1e-3, entity=0)
        assert series.values, "no bucketed gauge samples"
        assert series.peak > 0  # the receive buffer always has headroom here
        h = gauge_histogram(cluster.trace, "rrl")
        assert h.total == len(cluster.trace.select(category="gauge"))

    def test_unified_counters_schema(self):
        cluster = run_small_cluster()
        per_member = cluster.counters()
        assert len(per_member) == 3
        for counters in per_member:
            assert set(counters) == {"engine", "buffer", "transport"}
            assert counters["engine"]["delivered"] == 12
            assert counters["buffer"]["overruns"] == 0
            assert counters["transport"]["pdus_processed"] > 0

    def test_latency_histogram_from_lifecycles(self):
        cluster = run_small_cluster()
        lifecycles = collect_lifecycles(cluster.trace)
        h = latency_histogram(lifecycles, "delivery")
        assert h.total > 0
        assert h.percentile(50) > 0


class TestInspect:
    def _record(self, tmp_path):
        recorder = FlightRecorder(capacity=50_000)
        run_small_cluster(trace=recorder)
        path = str(tmp_path / "run.jsonl")
        recorder.dump_jsonl(path)
        return path

    def test_summary_sections(self, tmp_path):
        path = self._record(tmp_path)
        trace, meta = load_jsonl(path)
        text = summarize_recording(trace, meta)
        assert "phase latencies" in text
        assert "PDU census" in text
        assert "event timelines" in text
        assert "gauges" in text
        assert "submit -> deliver" in text

    def test_inspect_path_and_cli(self, tmp_path, capsys):
        path = self._record(tmp_path)
        assert "flight recording" in inspect_path(path)
        assert cli_main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "PDU census" in out
        assert cli_main(["inspect", path, "--bucket", "0.001"]) == 0

    def test_empty_recording_summarizes_without_crashing(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        TraceLog().dump_jsonl(path)
        text = inspect_path(path)
        assert "records: 0" in text

    def test_repair_section_present_when_repair_ran(self, tmp_path):
        recorder = FlightRecorder(capacity=50_000)
        config = ProtocolConfig(
            suspect_timeout=0.05, anti_entropy_interval=0.01,
            delta_sync_threshold=6,
        )
        cluster = build_cluster(
            4, config=config, trace=recorder,
            loss=TargetedLoss({3}, 0.5), rngs=RngRegistry(5),
        )
        for k in range(4):
            for i in range(4):
                cluster.submit(i, f"m-{i}-{k}")
        cluster.run_until_quiescent(max_time=60.0)
        path = str(tmp_path / "repair.jsonl")
        recorder.dump_jsonl(path)
        trace, meta = load_jsonl(path)
        text = summarize_recording(trace, meta)
        assert "repair activity" in text
        assert "digests sent" in text

    def test_no_repair_section_without_repair(self, tmp_path):
        path = self._record(tmp_path)
        trace, meta = load_jsonl(path)
        assert "repair activity" not in summarize_recording(trace, meta)
