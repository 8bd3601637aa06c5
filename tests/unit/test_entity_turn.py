"""One engine turn rule (docs/PROTOCOL.md §7).

A turn is the input already waiting when it began; the host's
``more_input`` says whether any of it is unread.  Each ``on_pdu`` runs
only its intake, and the speaking steps — PACK scan, heard-from-all
confirmation, probe and stale-peer answers, pump — run once, in the
turn's last ``on_pdu`` (or in ``end_turn`` when that PDU settles nothing).
``EngineDriver.receive`` is a turn of one; ``receive_turn`` is a burst.
"""

from dataclasses import replace

from repro.core.config import ConfirmationMode, ProtocolConfig
from repro.core.pdu import HeartbeatPdu, ViewChangePdu
from tests.conftest import EngineDriver, make_pdu

BUF = 10 ** 6


def beat(src, ack, pack, probe=False):
    return HeartbeatPdu(cid=1, src=src, ack=ack, pack=pack, buf=BUF, probe=probe)


def history():
    """Two peers' traffic as engine 0 of three sees it: four causally
    chained data PDUs, then both peers' confirmations of all of them."""
    return [
        make_pdu(1, 1, (1, 1, 1), "a"),
        make_pdu(2, 1, (1, 2, 1), "b"),
        make_pdu(1, 2, (1, 2, 2), "c"),
        make_pdu(2, 2, (1, 3, 2), "d"),
        beat(1, (1, 3, 3), (1, 3, 3)),
        beat(2, (1, 3, 3), (1, 3, 3)),
    ]


def observable(driver):
    engine = driver.engine
    return {
        "req": engine.state.req_vector(),
        "al": [list(row) for row in engine.state.al],
        "pal": [list(row) for row in engine.state.pal],
        "prl": [p.pdu_id for p in engine.prl],
        "delivered": [(m.src, m.seq, m.data) for m in driver.delivered],
    }


def confirmations(driver):
    return [hb for hb in driver.heartbeats_sent if not hb.probe]


def test_a_turn_reaches_the_state_the_one_by_one_feed_reaches():
    for k in range(1, len(history()) + 1):
        one_by_one, turn = EngineDriver(0, 3), EngineDriver(0, 3)
        for pdu in history()[:k]:
            one_by_one.receive(pdu)
        turn.receive_turn(history()[:k])
        assert observable(turn) == observable(one_by_one), k
    assert [d for _, _, d in observable(turn)["delivered"]] == ["a", "b", "c", "d"]


def test_a_turn_confirms_the_round_once():
    one_by_one, turn = EngineDriver(0, 3), EngineDriver(0, 3)
    for pdu in history()[:4]:
        one_by_one.receive(pdu)
    turn.receive_turn(history()[:4])
    # Heard from both peers after "b" and again after "d".
    assert len(confirmations(one_by_one)) == 2
    assert [hb.ack for hb in confirmations(turn)] == [(1, 3, 3)]


def test_immediate_confirmation_confirms_per_receipt_within_a_turn():
    """The C1 ablation opts out of turns: a turn sends what one-by-one
    handling sends."""
    config = ProtocolConfig(confirmation=ConfirmationMode.IMMEDIATE)
    one_by_one, turn = EngineDriver(0, 3, config), EngineDriver(0, 3, config)
    for pdu in history()[:4]:
        one_by_one.receive(pdu)
    turn.receive_turn(history()[:4])
    assert len(confirmations(turn)) == 4
    assert turn.sent == one_by_one.sent


def test_a_probe_is_answered_once_after_the_turns_pack_scan():
    """The probe arrives before the heartbeat that lets E1's first PDU
    pre-acknowledge; answered at the turn's end, it carries that."""
    def fresh():
        drv = EngineDriver(0, 3, unicast=True)
        drv.receive(make_pdu(1, 1, (1, 1, 1), "a"))
        return drv

    burst = [
        beat(2, (1, 2, 1), (1, 1, 1), probe=True),
        beat(2, (1, 2, 1), (1, 1, 1), probe=True),
        beat(1, (1, 2, 1), (1, 1, 1)),
    ]
    one_by_one, turn = fresh(), fresh()
    for pdu in burst:
        one_by_one.receive(pdu)
    turn.receive_turn(burst)
    assert [(dst, hb.pack) for dst, hb in one_by_one.unicasts] == [
        (2, (1, 1, 1)), (2, (1, 1, 1))]
    assert [(dst, hb.pack) for dst, hb in turn.unicasts] == [(2, (1, 2, 1))]


def test_a_membership_pdu_settles_the_turn_before_it_runs():
    drv = EngineDriver(0, 3)
    propose = ViewChangePdu(
        cid=1, src=1, view=1, phase="propose", members=(0, 1, 2),
        ack=(1, 2, 2), buf=BUF,
    )
    drv.receive_turn(history()[:2] + [propose])
    assert [type(p).__name__ for p in drv.sent] == ["HeartbeatPdu", "ViewChangePdu"]


def test_a_last_pdu_that_owes_nothing_leaves_the_turn_to_end_turn():
    """A foreign cluster's frame ends the burst: its ``on_pdu`` owes
    nothing, so ``end_turn`` settles the turn with a reading of its own."""
    drv = EngineDriver(0, 3)
    foreign = replace(make_pdu(1, 3, (1, 1, 1)), cid=9)
    reads = drv.clock_reads
    drv.receive_turn(history()[:2] + [foreign])
    assert drv.engine.counters.foreign_cluster == 1
    assert [hb.ack for hb in confirmations(drv)] == [(1, 2, 2)]
    assert drv.clock_reads == reads + 4


def test_end_turn_settles_a_burst_whose_last_datagram_did_not_decode():
    drv = EngineDriver(0, 3)
    drv.receive_turn(history() + [None])
    assert [d for _, _, d in observable(drv)["delivered"]] == ["a", "b", "c", "d"]
    assert len(confirmations(drv)) == 1
    assert not drv.engine._owed
