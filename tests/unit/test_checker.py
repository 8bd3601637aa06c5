"""Unit tests for the run-verification checker itself.

The checker guards every integration test, so it gets direct tests: it must
*fail* on traces with planted violations, not just pass on good ones.
"""

import time

import pytest

from repro.core.errors import DeliveryOrderError, IncompleteRecordingError
from repro.ordering.checker import count_causal_anomalies, verify_run
from repro.sim.trace import FlightRecorder, TraceLog


def clean_trace():
    """E0 sends m1; E1 relays m2; both delivered causally at everyone."""
    t = TraceLog()
    t.record(0.0, "broadcast", 0, kind="DataPdu", seq=1)
    t.record(0.0, "accept", 0, src=0, seq=1, null=False)
    t.record(0.1, "accept", 1, src=0, seq=1, null=False)
    t.record(0.2, "broadcast", 1, kind="DataPdu", seq=1)
    t.record(0.2, "accept", 1, src=1, seq=1, null=False)
    t.record(0.3, "accept", 0, src=1, seq=1, null=False)
    for entity in (0, 1):
        t.record(0.4, "deliver", entity, src=0, seq=1)
        t.record(0.5, "deliver", entity, src=1, seq=1)
    return t


def test_clean_trace_passes():
    report = verify_run(clean_trace(), 2)
    assert report.ok
    report.assert_ok()
    assert report.messages_sent == 2
    assert report.deliveries == [2, 2]


def test_causality_violation_detected():
    t = clean_trace()
    # Entity 0 also delivers them inverted at a third entity... plant an
    # inversion by appending a reversed pair at a new entity index.
    t.record(0.6, "deliver", 1, src=1, seq=1)  # duplicate to keep it simple
    report = verify_run(t, 2)
    assert not report.ok
    assert report.duplicates
    with pytest.raises(DeliveryOrderError):
        report.assert_ok()


def test_inverted_delivery_is_causality_violation():
    t = TraceLog()
    t.record(0.0, "broadcast", 0, kind="DataPdu", seq=1)
    t.record(0.0, "accept", 0, src=0, seq=1, null=False)
    t.record(0.1, "accept", 1, src=0, seq=1, null=False)
    t.record(0.2, "broadcast", 1, kind="DataPdu", seq=1)
    t.record(0.2, "accept", 1, src=1, seq=1, null=False)
    t.record(0.3, "accept", 2, src=1, seq=1, null=False)
    t.record(0.4, "accept", 2, src=0, seq=1, null=False)
    # Entity 2 delivers the *reply* before the message it answers.
    t.record(0.5, "deliver", 2, src=1, seq=1)
    t.record(0.6, "deliver", 2, src=0, seq=1)
    report = verify_run(t, 3, expect_all_delivered=False)
    assert report.causality == {2: [((1, 1), (0, 1))]}
    assert count_causal_anomalies(t, 3) == 1


def test_missing_delivery_detected():
    t = clean_trace()
    t.record(0.7, "broadcast", 0, kind="DataPdu", seq=2)
    t.record(0.7, "accept", 0, src=0, seq=2, null=False)
    report = verify_run(t, 2)
    assert not report.ok
    assert (0, 2) in report.missing[0]
    assert (0, 2) in report.missing[1]


def test_missing_not_flagged_when_relaxed():
    t = clean_trace()
    t.record(0.7, "broadcast", 0, kind="DataPdu", seq=2)
    t.record(0.7, "accept", 0, src=0, seq=2, null=False)
    report = verify_run(t, 2, expect_all_delivered=False)
    assert report.ok


def test_fifo_violation_detected():
    t = TraceLog()
    t.record(0.0, "broadcast", 0, kind="DataPdu", seq=1)
    t.record(0.1, "broadcast", 0, kind="DataPdu", seq=2)
    t.record(0.2, "deliver", 1, src=0, seq=2)
    t.record(0.3, "deliver", 1, src=0, seq=1)
    report = verify_run(t, 2, expect_all_delivered=False)
    assert report.local_order[1]
    # Same-source inversion is both a FIFO and a causality violation.
    assert report.causality[1]


def test_recorder_that_shed_records_is_refused_not_misreported():
    """A ring that lost the head of the run would read as missing deliveries
    and broken causal chains; the oracle must name the real problem."""
    full = clean_trace()
    ring = FlightRecorder(capacity=len(full) - 1)
    for rec in full:
        ring.record(rec.time, rec.category, rec.entity, **rec.details)
    assert ring.evicted == 1
    with pytest.raises(IncompleteRecordingError, match="incomplete recording"):
        verify_run(ring, 2)
    with pytest.raises(IncompleteRecordingError):
        verify_run(ring, 2, expect_all_delivered=False)


def test_a_ring_is_refused_even_when_it_shed_nothing():
    """A ring keeps no per-PDU records, so even one that evicted nothing
    would verify as 0 sends / 0 deliveries, OK.  The oracle must refuse
    it and name the complete log instead of passing vacuously."""
    ring = FlightRecorder(capacity=1000)
    for rec in clean_trace():
        ring.record(rec.time, rec.category, rec.entity, **rec.details)
    assert ring.evicted == 0
    with pytest.raises(IncompleteRecordingError, match=r"TraceLog\(\)"):
        verify_run(ring, 2)


def test_summary_format():
    summary = verify_run(clean_trace(), 2).summary()
    assert "[OK]" in summary and "sent=2" in summary


def chain_trace(deliveries, n=4):
    """Round-robin senders, each message accepted and delivered everywhere
    before the next is sent: one causal chain through every message."""
    t = TraceLog()
    seqs = [0] * n
    for k in range(deliveries // n):
        src = k % n
        seqs[src] += 1
        t.record(float(k), "broadcast", src, kind="DataPdu", seq=seqs[src])
        for entity in range(n):
            t.record(float(k), "accept", entity, src=src, seq=seqs[src], null=False)
            t.record(float(k), "deliver", entity, src=src, seq=seqs[src])
    return t


@pytest.mark.slow  # ~3 s: CI's faults job runs it, tier-1 does not
def test_verify_time_is_linear_in_deliveries():
    """10x the deliveries costs at most 20x the time: linear, where a
    pairwise scan of each member's log would cost about 100x."""

    def best_of_three(trace):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert verify_run(trace, 4).ok
            times.append(time.perf_counter() - start)
        return min(times)

    small = best_of_three(chain_trace(10_000))
    large = best_of_three(chain_trace(100_000))
    assert large <= 20 * small, (small, large)
