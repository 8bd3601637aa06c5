"""The engine's clock contract (docs/PROTOCOL.md §13).

``submit``, ``on_pdu``, ``on_tick`` and — when a turn still owes work —
``end_turn`` each read the clock exactly once, and every trace record an
input makes — and every message it delivers — carries that one reading.
A turn's settle runs inside its last ``on_pdu`` and reads nothing more.  One timestamp per input is therefore all a recording of
a member's inputs needs to replay it.  ``engine.now`` stays a live read for
callers outside an input.

The EngineDriver clock advances on every read here, so a second read inside
one input would show up as a second timestamp.
"""

import pytest

from repro.core.pdu import BatchPdu, HeartbeatPdu, RetPdu, ViewChangePdu
from tests.conftest import EngineDriver, make_pdu

BUF = 10 ** 6


def _input_stamp(driver, run):
    """Run one input; return the clock reading every record it made shares."""
    reads, seen = driver.clock_reads, driver.trace.recorded_total
    delivered = len(driver.delivered)
    run()
    assert driver.clock_reads == reads + 1
    records = list(driver.trace)[seen:]
    assert records, "the input made no record to check"
    assert {rec.time for rec in records} == {driver.clock}
    assert all(m.delivered_at == driver.clock for m in driver.delivered[delivered:])
    return records


def test_every_input_reads_the_clock_once_and_stamps_every_record_with_it():
    driver = EngineDriver(0, 3)
    driver.clock_drift = 1e-3
    cats = lambda records: {rec.category for rec in records}  # noqa: E731

    assert "submit" in cats(_input_stamp(driver, lambda: driver.submit("m0")))
    ret = RetPdu(cid=1, src=1, lsrc=0, lseq=2, ack=(1, 1, 1), buf=BUF)
    assert "retransmit" in cats(_input_stamp(driver, lambda: driver.receive(ret)))
    data = make_pdu(1, 1, (2, 1, 1))
    assert "accept" in cats(_input_stamp(driver, lambda: driver.receive(data)))
    batch = BatchPdu(
        cid=1, src=2, ack=(2, 2, 3), pack=(1, 1, 1), buf=BUF,
        pdus=(make_pdu(2, 1, (2, 2, 1)), make_pdu(2, 2, (2, 2, 2))),
    )
    records = _input_stamp(driver, lambda: driver.receive(batch))
    assert [rec.category for rec in records].count("accept") == 2
    for src in (1, 2):
        beat = HeartbeatPdu(cid=1, src=src, ack=(2, 2, 3), pack=(2, 2, 3), buf=BUF)
        _input_stamp(driver, lambda: driver.receive(beat))
    assert "deliver" in cats(driver.trace.select())
    assert len(driver.delivered) == 4
    propose = ViewChangePdu(
        cid=1, src=1, view=1, phase="propose", members=(0, 1, 2),
        ack=(2, 2, 3), buf=BUF,
    )
    assert "view-agree" in cats(_input_stamp(driver, lambda: driver.receive(propose)))
    ahead = make_pdu(1, 4, (2, 4, 3))
    assert "ret" in cats(_input_stamp(driver, lambda: driver.receive(ahead)))
    retry = driver.engine.config.ret_timeout
    assert "ret" in cats(_input_stamp(driver, lambda: driver.tick(retry)))


def test_now_outside_an_input_is_a_live_read():
    driver = EngineDriver(0, 3)
    driver.receive(make_pdu(1, 1, (1, 1, 1)))
    stamped = driver.clock
    driver.clock += 0.25
    reads = driver.clock_reads
    assert driver.engine.now == driver.clock == stamped + 0.25
    assert driver.clock_reads == reads + 1


def _burst():
    """Two peers' data and confirmations: engine 0 of three delivers all."""
    return [
        make_pdu(1, 1, (1, 1, 1)),
        make_pdu(2, 1, (1, 2, 1)),
        HeartbeatPdu(cid=1, src=1, ack=(1, 2, 2), pack=(1, 2, 2), buf=BUF),
        HeartbeatPdu(cid=1, src=2, ack=(1, 2, 2), pack=(1, 2, 2), buf=BUF),
    ]


def _speaking(records):
    return [r for r in records
            if r.category in ("preack", "ack", "deliver", "heartbeat")]


def test_a_turn_of_k_pdus_reads_the_clock_k_times():
    """One read per PDU; the settle runs inside the last ``on_pdu`` and
    stamps everything it does with that PDU's reading."""
    driver = EngineDriver(0, 3)
    driver.clock_drift = 1e-3
    reads, seen = driver.clock_reads, driver.trace.recorded_total
    driver.receive_turn(_burst())
    assert driver.clock_reads == reads + 4
    records = list(driver.trace)[seen:]
    assert [rec.time for rec in records if rec.category == "accept"] == (
        pytest.approx([driver.clock - 3e-3, driver.clock - 2e-3]))
    assert _speaking(records)
    assert {rec.time for rec in _speaking(records)} == {driver.clock}
    assert [m.delivered_at for m in driver.delivered] == [driver.clock] * 2


def test_end_turn_is_an_input_of_its_own_with_one_read():
    """A burst whose last datagram did not decode: ``end_turn`` settles it
    with one read of its own.  With nothing owed it reads nothing."""
    driver = EngineDriver(0, 3)
    driver.clock_drift = 1e-3
    reads, seen = driver.clock_reads, driver.trace.recorded_total
    driver.receive_turn(_burst() + [None])
    assert driver.clock_reads == reads + 5
    records = list(driver.trace)[seen:]
    assert {rec.time for rec in _speaking(records)} == {driver.clock}
    assert driver.clock not in {rec.time for rec in records
                                if rec.category == "accept"}
    reads = driver.clock_reads
    driver.engine.end_turn()
    assert driver.clock_reads == reads
