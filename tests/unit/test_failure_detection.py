"""Unit tests for failure conditions (1) and (2) and the retransmission
action — the two cases of Figure 6."""

from repro.core.config import ProtocolConfig, RetransmissionScheme
from repro.core.pdu import RetPdu
from repro.core.retransmit import RET_SUPPRESSION_INTERVAL
from tests.conftest import EngineDriver, make_pdu


def test_failure_condition_1_sequence_gap(driver):
    """Fig. 6(a): REQ=4 but p.SEQ=5 arrives -> RET with range [4, 5)."""
    for seq in (1, 2, 3):
        driver.receive(make_pdu(1, seq, (1, seq, 1)))
    assert driver.engine.state.req[1] == 4
    driver.receive(make_pdu(1, 5, (1, 5, 1)))    # seq 4 was lost
    rets = driver.rets_sent
    assert len(rets) == 1
    ret = rets[0]
    assert ret.lsrc == 1
    assert ret.requested_from == 4
    assert ret.requested_upto == 5


def test_failure_condition_2_ack_gap(driver):
    """Fig. 6(b): q from E2 carries q.ACK_1=5 while REQ_1=4 -> RET to E1."""
    for seq in (1, 2, 3):
        driver.receive(make_pdu(1, seq, (1, seq, 1)))
    # E2's PDU proves E2 accepted seq 4 from E1 (index 1 in our 0-based
    # cluster; index 0 is this entity itself).
    driver.receive(make_pdu(2, 1, (1, 5, 1)))
    rets = driver.rets_sent
    assert len(rets) == 1
    assert rets[0].lsrc == 1
    assert rets[0].requested_from == 4
    assert rets[0].requested_upto == 5


def test_out_of_order_pdu_stashed_selective(driver):
    driver.receive(make_pdu(1, 2, (1, 2, 1), data="second"))
    assert driver.engine.counters.stashed == 1
    assert driver.engine.state.req[1] == 1
    # The missing PDU arrives (retransmitted): both accept in order.
    driver.receive(make_pdu(1, 1, (1, 1, 1), data="first"))
    assert driver.engine.state.req[1] == 3
    assert driver.engine.counters.accepted == 2


def test_out_of_order_discarded_go_back_n():
    drv = EngineDriver(0, 3, ProtocolConfig(retransmission=RetransmissionScheme.GO_BACK_N))
    drv.receive(make_pdu(1, 2, (1, 2, 1)))
    assert drv.engine.counters.discarded_out_of_order == 1
    assert drv.engine.counters.stashed == 0
    drv.receive(make_pdu(1, 1, (1, 1, 1)))
    assert drv.engine.state.req[1] == 2  # seq 2 must come again


def test_stash_deduplicates(driver):
    p = make_pdu(1, 3, (1, 3, 1))
    driver.receive(p)
    driver.receive(p)
    assert driver.engine.counters.stashed == 1


def test_no_duplicate_ret_for_same_evidence(driver):
    driver.receive(make_pdu(1, 3, (1, 3, 1)))
    driver.receive(make_pdu(1, 3, (1, 3, 1)))   # same gap again
    assert len(driver.rets_sent) == 1


def test_wider_gap_triggers_new_ret(driver):
    driver.receive(make_pdu(1, 3, (1, 3, 1)))
    driver.receive(make_pdu(1, 5, (1, 5, 1)))
    rets = driver.rets_sent
    assert len(rets) == 2
    assert rets[1].requested_upto == 5


def test_ret_timeout_reissues(driver):
    driver.receive(make_pdu(1, 3, (1, 3, 1)))
    assert len(driver.rets_sent) == 1
    driver.tick(dt=driver.engine.config.ret_timeout + 1e-9)
    assert len(driver.rets_sent) == 2


def test_gap_closes_on_recovery_no_more_rets(driver):
    driver.receive(make_pdu(1, 2, (1, 2, 1)))
    driver.receive(make_pdu(1, 1, (1, 1, 1)))
    driver.tick(dt=1.0)
    assert len(driver.rets_sent) == 1  # only the original


def test_source_answers_ret_with_selective_range(driver):
    for name in "abc":
        driver.submit(name)
    before = len(driver.data_sent)
    ret = RetPdu(cid=1, src=1, lsrc=0, lseq=3, ack=(1, 1, 1), buf=10**6)
    driver.receive(ret)
    resent = driver.data_sent[before:]
    assert [p.seq for p in resent] == [1, 2]   # [ack[0]=1, lseq=3)
    assert driver.engine.counters.retransmissions == 2


def test_source_answers_ret_with_go_back_n_range():
    drv = EngineDriver(0, 3, ProtocolConfig(retransmission=RetransmissionScheme.GO_BACK_N))
    for name in "abcd":
        drv.submit(name)
    before = len(drv.data_sent)
    ret = RetPdu(cid=1, src=1, lsrc=0, lseq=3, ack=(2, 1, 1), buf=10**6)
    drv.receive(ret)
    resent = drv.data_sent[before:]
    # Go-back-n: everything from the first missing PDU, ignoring lseq.
    assert [p.seq for p in resent] == [2, 3, 4]


def test_ret_for_other_source_not_answered(driver):
    driver.submit("a")
    before = len(driver.data_sent)
    ret = RetPdu(cid=1, src=1, lsrc=2, lseq=2, ack=(1, 1, 1), buf=10**6)
    driver.receive(ret)
    assert len(driver.data_sent) == before


def test_ret_suppression_window(driver):
    driver.submit("a")
    ret = RetPdu(cid=1, src=1, lsrc=0, lseq=2, ack=(1, 1, 1), buf=10**6)
    before = len(driver.data_sent)
    driver.receive(ret)
    driver.receive(ret)  # a second receiver asks within the window
    assert len(driver.data_sent) == before + 1
    assert driver.engine.counters.retransmissions_suppressed == 1
    # After the suppression interval a repeat is honoured again.
    driver.tick(dt=RET_SUPPRESSION_INTERVAL + 1e-9)
    driver.receive(ret)
    assert len(driver.data_sent) == before + 2


def test_ret_ack_vector_updates_knowledge(driver):
    """RET PDUs carry ACK/BUF and update AL like any PDU (§4.3)."""
    ret = RetPdu(cid=1, src=1, lsrc=2, lseq=2, ack=(1, 4, 1), buf=99)
    driver.receive(ret)
    assert driver.engine.state.al[1] == [1, 4, 1]
    assert driver.engine.state.buf[1] == 99


def test_ret_ack_vector_can_trigger_f2(driver):
    # E1's RET (about E2) reveals that E1 accepted PDUs from E2 we miss.
    ret = RetPdu(cid=1, src=1, lsrc=2, lseq=2, ack=(1, 1, 3), buf=10**6)
    driver.receive(ret)
    rets = driver.rets_sent
    assert len(rets) == 1
    assert rets[0].lsrc == 2
    assert rets[0].requested_upto == 3


def test_heartbeat_reveals_senders_own_data_gap(driver):
    """An unsequenced heartbeat is the only way to learn the *sender* sent
    data we never saw — the F2 carrier-component case."""
    from repro.core.pdu import HeartbeatPdu

    hb = HeartbeatPdu(cid=1, src=1, ack=(1, 3, 1), pack=(1, 1, 1), buf=10**6)
    driver.receive(hb)
    rets = driver.rets_sent
    assert len(rets) == 1
    assert rets[0].lsrc == 1
    assert rets[0].requested_from == 1
    assert rets[0].requested_upto == 3
