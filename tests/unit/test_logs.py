"""Unit tests for the paper's log structures (SL, RRL, generic Log)."""

import pytest

from repro.core.causality import cpi_insert, is_causality_preserved
from repro.core.logs import CausalLog, Log, ReceiptSublogs, SendingLog
from repro.core.pdu import DataPdu


def pdu(src, seq, ack=(1, 1, 1)):
    return DataPdu(cid=1, src=src, seq=seq, ack=ack, buf=0, data=f"{src}.{seq}")


class TestLog:
    def test_enqueue_dequeue_order(self):
        log = Log()
        log.enqueue("a")
        log.enqueue("b")
        assert log.dequeue() == "a"
        assert log.dequeue() == "b"

    def test_top_and_last(self):
        log = Log(["a", "b", "c"])
        assert log.top == "a"
        assert log.last == "c"

    def test_empty_top_last_none(self):
        log = Log()
        assert log.top is None and log.last is None

    def test_dequeue_empty_raises(self):
        with pytest.raises(IndexError):
            Log().dequeue()

    def test_len_bool_iter_getitem(self):
        log = Log([1, 2, 3])
        assert len(log) == 3
        assert bool(log)
        assert list(log) == [1, 2, 3]
        assert log[1] == 2
        assert not Log()

    def test_as_list_copy(self):
        log = Log([1])
        out = log.as_list()
        out.append(2)
        assert len(log) == 1


class TestSendingLog:
    def test_append_and_get(self):
        sl = SendingLog()
        p = pdu(0, 1)
        sl.append(p)
        assert sl.get(1) is p
        assert sl.get(2) is None
        assert sl.next_seq == 2

    def test_sequence_must_be_consecutive(self):
        sl = SendingLog()
        with pytest.raises(ValueError):
            sl.append(pdu(0, 2))

    def test_get_range(self):
        sl = SendingLog()
        for k in range(1, 6):
            sl.append(pdu(0, k))
        assert [p.seq for p in sl.get_range(2, 5)] == [2, 3, 4]

    def test_get_range_clamps(self):
        sl = SendingLog()
        sl.append(pdu(0, 1))
        assert [p.seq for p in sl.get_range(0, 99)] == [1]

    def test_prune_below(self):
        sl = SendingLog()
        for k in range(1, 6):
            sl.append(pdu(0, k))
        removed = sl.prune_below(4)
        assert removed == 3
        assert sl.get(2) is None
        assert sl.get(4) is not None
        assert sl.retained == 2

    def test_prune_is_monotone(self):
        sl = SendingLog()
        for k in range(1, 4):
            sl.append(pdu(0, k))
        sl.prune_below(3)
        assert sl.prune_below(2) == 0  # going backwards removes nothing

    def test_len_counts_all_ever_sent(self):
        sl = SendingLog()
        for k in range(1, 4):
            sl.append(pdu(0, k))
        sl.prune_below(3)
        assert len(sl) == 3
        assert sl.retained == 1

    def test_iter_in_seq_order(self):
        sl = SendingLog()
        for k in range(1, 4):
            sl.append(pdu(0, k))
        assert [p.seq for p in sl] == [1, 2, 3]


class TestReceiptSublogs:
    def test_enqueue_routes_by_source(self):
        rrl = ReceiptSublogs(3)
        rrl.enqueue(pdu(1, 1))
        rrl.enqueue(pdu(2, 1))
        rrl.enqueue(pdu(1, 2))
        assert [p.seq for p in rrl.sublog(1)] == [1, 2]
        assert len(rrl.sublog(0)) == 0
        assert rrl.total == 3

    def test_top_and_dequeue(self):
        rrl = ReceiptSublogs(2)
        p = pdu(1, 1, ack=(1, 1))
        rrl.enqueue(p)
        assert rrl.top(1) is p
        assert rrl.dequeue(1) is p
        assert rrl.top(1) is None

    def test_len_is_source_count(self):
        assert len(ReceiptSublogs(4)) == 4


class TestCausalLog:
    def test_protocol_order_inserts_are_fast_appends(self):
        """PDUs arriving in dependency-gated PACK order (each PDU's causal
        predecessors inserted first) are appended in arrival order."""
        log = CausalLog()
        log.insert(pdu(1, 1, ack=(1, 1, 1)))
        log.insert(pdu(2, 1, ack=(2, 1, 1)))     # saw E1's first
        log.insert(pdu(1, 2, ack=(1, 1, 2)))     # saw E2's first
        assert [p.pdu_id for p in log] == [(1, 1), (2, 1), (1, 2)]
        assert is_causality_preserved(log)

    def test_matches_reference_cpi_insert(self):
        stream = [
            pdu(1, 1, ack=(1, 1, 1)),
            pdu(2, 1, ack=(1, 1, 1)),      # concurrent with (1,1)
            pdu(1, 2, ack=(1, 1, 2)),
            pdu(2, 2, ack=(1, 3, 2)),
            pdu(1, 3, ack=(1, 2, 3)),
        ]
        log = CausalLog()
        reference = []
        for p in stream:
            log.insert(p)
            cpi_insert(reference, p)
        assert log == reference
        assert log.as_list() == reference

    def test_popleft_top_and_reads(self):
        a, b = pdu(1, 1), pdu(2, 1, ack=(2, 1, 1))
        log = CausalLog([a, b])
        assert log.top is a
        assert log[0] is a and log[1] is b
        assert len(log) == 2 and bool(log)
        assert log.popleft() is a
        assert log.top is b
        assert log == [b]
        assert not CausalLog()
