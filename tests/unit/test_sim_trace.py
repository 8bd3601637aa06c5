"""Unit tests for the structured trace log."""

from repro.sim.trace import TraceLog, TraceRecord


def make_log():
    log = TraceLog()
    log.record(0.1, "accept", 0, src=1, seq=1)
    log.record(0.2, "accept", 1, src=1, seq=1)
    log.record(0.3, "deliver", 0, src=1, seq=1)
    log.record(0.4, "drop", 2, reason="overrun")
    return log


def test_records_preserve_order():
    log = make_log()
    assert [r.category for r in log] == ["accept", "accept", "deliver", "drop"]


def test_len_and_getitem():
    log = make_log()
    assert len(log) == 4
    assert log[0].category == "accept"
    assert log[-1].category == "drop"


def test_select_by_category():
    log = make_log()
    assert len(log.select(category="accept")) == 2


def test_select_by_entity():
    log = make_log()
    assert len(log.select(entity=0)) == 2


def test_select_with_predicate():
    log = make_log()
    hits = log.select(predicate=lambda r: r.get("reason") == "overrun")
    assert len(hits) == 1
    assert hits[0].entity == 2


def test_count():
    log = make_log()
    assert log.count("accept") == 2
    assert log.count("accept", entity=1) == 1
    assert log.count("nonexistent") == 0


def test_first_with_match():
    log = make_log()
    rec = log.first("accept", src=1)
    assert rec is not None and rec.time == 0.1
    assert log.first("accept", src=99) is None


def test_disabled_log_records_nothing():
    log = TraceLog(enabled=False)
    log.record(0.0, "accept", 0)
    assert len(log) == 0


def test_clear():
    log = make_log()
    log.clear()
    assert len(log) == 0


def test_record_get_default():
    rec = TraceRecord(0.0, "x", 1, {"a": 2})
    assert rec.get("a") == 2
    assert rec.get("missing", "dflt") == "dflt"


def test_format_contains_fields():
    text = make_log().format(limit=1)
    assert "accept" in text and "E0" in text and "seq=1" in text


# ----------------------------------------------------------------------
# Slotted records, tail(), counting in record() itself
# ----------------------------------------------------------------------

def test_record_is_slotted_plain_data():
    rec = TraceRecord(0.5, "accept", 2, {"src": 1, "seq": 3})
    assert not hasattr(rec, "__dict__")
    assert (rec.time, rec.category, rec.entity) == (0.5, "accept", 2)
    assert TraceRecord(0.0, "x", 0).details == {}
    # No shared default dict between records.
    assert TraceRecord(0.0, "x", 0).details is not TraceRecord(0.0, "x", 0).details


def test_records_compare_by_value():
    a = TraceRecord(0.5, "accept", 2, {"src": 1, "seq": 3})
    assert a == TraceRecord(0.5, "accept", 2, {"seq": 3, "src": 1})
    assert a != TraceRecord(0.5, "accept", 2, {"src": 1, "seq": 4})
    assert a != TraceRecord(0.6, "accept", 2, {"src": 1, "seq": 3})
    assert a != TraceRecord(0.5, "deliver", 2, {"src": 1, "seq": 3})
    assert a != TraceRecord(0.5, "accept", 1, {"src": 1, "seq": 3})
    assert a != (0.5, "accept", 2, {"src": 1, "seq": 3})
    assert make_log().records == make_log().records


def test_record_str_and_repr():
    rec = TraceRecord(0.25, "drop", 7, {"seq": 3, "reason": "overrun"})
    assert str(rec) == "[    0.250000] E7   drop         reason=overrun seq=3"
    assert repr(rec) == ("TraceRecord(time=0.25, category='drop', entity=7, "
                         "details={'seq': 3, 'reason': 'overrun'})")


def test_arrive_is_not_in_the_vocabulary():
    from repro.sim.trace import CATEGORIES
    assert "arrive" not in CATEGORIES and "drop" in CATEGORIES


def _filled(log, count):
    for k in range(count):
        log.record(float(k), "accept", 0, seq=k)
    return log


def test_tail_is_newest_first_on_list_and_ring():
    from repro.sim.trace import FlightRecorder

    for log in (_filled(TraceLog(), 10), _filled(FlightRecorder(capacity=6), 10)):
        assert [r.get("seq") for r in log.tail(3)] == [9, 8, 7]
        assert list(log.tail(0)) == [] and list(log.tail(-2)) == []
        retained = [r.get("seq") for r in log]
        assert [r.get("seq") for r in log.tail(100)] == retained[::-1]


def test_recorded_total_on_a_plain_log_survives_clear():
    log = _filled(TraceLog(), 4)
    assert log.recorded_total == 4
    log.clear()
    assert len(log) == 0 and log.recorded_total == 4
    log.record(9.0, "accept", 0)
    assert log.recorded_total == 5
    assert log.meta() == {"kind": "trace", "records": 1}


def test_ring_eviction_count_accounts_for_clear():
    from repro.sim.trace import FlightRecorder

    ring = _filled(FlightRecorder(capacity=3), 5)
    assert (len(ring), ring.recorded_total, ring.evicted) == (3, 5, 2)
    ring.clear()                          # cleared records were not evicted
    assert (len(ring), ring.recorded_total, ring.evicted) == (0, 5, 2)
    _filled(ring, 4)
    assert (len(ring), ring.recorded_total, ring.evicted) == (3, 9, 3)
    assert ring.meta()["evicted"] == 3 and ring.meta()["recorded_total"] == 9


def test_disabled_log_counts_nothing():
    log = TraceLog(enabled=False)
    log.record(0.0, "accept", 0)
    assert log.recorded_total == 0 and list(log.tail(5)) == []
