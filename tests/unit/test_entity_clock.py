"""The engine's clock contract (docs/PROTOCOL.md §13).

``submit``, ``on_pdu`` and ``on_tick`` each read the clock exactly once, and
every trace record an input makes — and every message it delivers — carries
that one reading.  One timestamp per input is therefore all a recording of
a member's inputs needs to replay it.  ``engine.now`` stays a live read for
callers outside an input.

The EngineDriver clock advances on every read here, so a second read inside
one input would show up as a second timestamp.
"""

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
