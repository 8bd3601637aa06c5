"""Property-based tests for log structures, buffers and reporting."""

from hypothesis import given, settings, strategies as st

from repro.core.logs import Log, SendingLog
from repro.core.pdu import DataPdu
from repro.metrics.reporting import format_table
from repro.metrics.stats import summarize
from repro.net.buffers import ReceiveBuffer
from repro.ordering.checker import verify_run
from repro.sim.trace import TraceLog


@given(st.lists(st.integers()))
def test_log_is_fifo(items):
    log = Log()
    for item in items:
        log.enqueue(item)
    assert [log.dequeue() for _ in range(len(log))] == items


@given(st.integers(min_value=1, max_value=60))
def test_sending_log_roundtrip_and_prune(count):
    sl = SendingLog()
    for seq in range(1, count + 1):
        sl.append(DataPdu(cid=1, src=0, seq=seq, ack=(seq,), buf=0, data=None))
    cut = count // 2 + 1
    sl.prune_below(cut)
    assert sl.retained == count - cut + 1
    assert all(p.seq >= cut for p in sl)
    assert sl.get_range(1, count + 1) == list(sl)


@st.composite
def buffer_runs(draw):
    capacity = draw(st.integers(min_value=1, max_value=10))
    unit = draw(st.integers(min_value=1, max_value=min(3, capacity)))
    ops = draw(st.lists(st.sampled_from(["offer", "pop"]), max_size=60))
    return capacity, unit, ops


@settings(max_examples=150)
@given(buffer_runs())
def test_buffer_never_exceeds_capacity_and_counts_balance(run):
    capacity, unit, ops = run
    buf = ReceiveBuffer(capacity, unit)
    popped = 0
    for op in ops:
        if op == "offer":
            buf.offer(object())
        elif len(buf):
            buf.pop()
            popped += 1
        assert 0 <= buf.used_units <= capacity
        assert buf.free_units == capacity - buf.used_units
    assert buf.stats.accepted == popped + len(buf)
    assert buf.stats.offered == buf.stats.accepted + buf.stats.overruns
    assert buf.stats.high_water_units <= capacity


@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 20)), max_size=30,
))
def test_local_order_checker_agrees_with_sorted_filter(log):
    trace = TraceLog()
    for src, seq in log:
        trace.record(0.0, "deliver", 0, src=src, seq=seq)
    violations = verify_run(trace, 4, expect_all_delivered=False).local_order
    # A log whose per-source subsequences are strictly increasing has no
    # violations; otherwise it must have at least one.
    clean = True
    last = {}
    for src, seq in log:
        if src in last and seq < last[src]:
            clean = False
        last[src] = max(seq, last.get(src, 0))
    assert (violations == {}) == clean


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_summarize_bounds(samples):
    s = summarize(samples)
    tolerance = 1e-9 * max(1.0, abs(s.minimum), abs(s.maximum))
    assert s.minimum <= s.p50 <= s.maximum
    assert s.minimum - tolerance <= s.mean <= s.maximum + tolerance
    assert s.count == len(samples)


@given(st.lists(
    st.lists(st.integers(-99, 99), min_size=2, max_size=2),
    min_size=1, max_size=10,
))
def test_format_table_row_count(rows):
    text = format_table(["a", "b"], rows)
    assert len(text.splitlines()) == len(rows) + 2
