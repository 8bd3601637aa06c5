"""Unit tests for the checker's send stamps and the relation read off them."""

from repro.analysis.causal_graph import causal_pairs
from repro.ordering.checker import CausalPass
from repro.ordering.properties import delivery_logs
from repro.sim.trace import TraceLog


def relay_trace():
    """E0 sends m1; E1 accepts it then sends m2; E2 accepts both and
    delivers them in causal order."""
    t = TraceLog()
    t.record(0.0, "broadcast", 0, kind="DataPdu", seq=1)
    t.record(0.0, "accept", 0, src=0, seq=1, null=False)      # self-accept
    t.record(1.0, "accept", 1, src=0, seq=1, null=False)
    t.record(1.1, "broadcast", 1, kind="DataPdu", seq=1)
    t.record(1.1, "accept", 1, src=1, seq=1, null=False)
    t.record(2.0, "accept", 2, src=0, seq=1, null=False)
    t.record(2.1, "accept", 2, src=1, seq=1, null=False)
    t.record(3.0, "deliver", 2, src=0, seq=1)
    t.record(3.1, "deliver", 2, src=1, seq=1)
    return t


def test_sends_are_stamped_in_send_order():
    stamps = CausalPass(relay_trace(), 3).stamps
    assert list(stamps.items()) == [((0, 1), (1, 0, 0)), ((1, 1), (1, 1, 0))]


def test_retransmissions_are_one_send_event():
    t = TraceLog()
    t.record(0.0, "broadcast", 0, kind="DataPdu", seq=1)
    t.record(1.0, "broadcast", 0, kind="DataPdu", seq=1)   # retransmission
    assert list(CausalPass(t, 1).stamps) == [(0, 1)]


def test_self_accept_is_the_send_without_a_broadcast():
    # Runtimes that record no broadcast (UDP, ring and gossip relays) and
    # PDUs stamped in an open batch: the self-accept is the send.
    t = TraceLog()
    t.record(0.0, "accept", 0, src=0, seq=1, null=False)
    t.record(0.1, "accept", 1, src=0, seq=1, null=False)
    t.record(0.2, "accept", 1, src=1, seq=1, null=False)
    t.record(0.3, "broadcast", 0, kind="BatchPdu", seqs=(1,))
    assert CausalPass(t, 2).stamps == {(0, 1): (1, 0), (1, 1): (1, 1)}


def test_control_broadcasts_excluded():
    t = TraceLog()
    t.record(0.0, "broadcast", 0, kind="RetPdu")
    t.record(0.0, "broadcast", 0, kind="HeartbeatPdu")
    assert CausalPass(t, 1).stamps == {}


def test_delivery_logs_per_entity():
    logs = delivery_logs(relay_trace(), 3)
    assert logs[0] == [] and logs[1] == []
    assert logs[2] == [(0, 1), (1, 1)]


def test_sent_excludes_null():
    t = TraceLog()
    t.record(0.0, "broadcast", 0, kind="DataPdu", seq=1)
    t.record(0.0, "accept", 0, src=0, seq=1, null=True)    # null confirmation
    t.record(0.1, "broadcast", 0, kind="DataPdu", seq=2)
    t.record(0.1, "accept", 0, src=0, seq=2, null=False)
    check = CausalPass(t, 1)
    assert check.sent() == [(0, 2)]
    assert list(check.stamps) == [(0, 1), (0, 2)]


class TestOracle:
    """The happened-before relation read off the stamps."""

    def test_relay_precedence(self):
        pairs = list(causal_pairs(CausalPass(relay_trace(), 3).stamps))
        assert ((0, 1), (1, 1)) in pairs
        assert ((1, 1), (0, 1)) not in pairs

    def test_concurrent_sends(self):
        t = TraceLog()
        t.record(0.0, "broadcast", 0, kind="DataPdu", seq=1)
        t.record(0.0, "broadcast", 1, kind="DataPdu", seq=1)
        assert list(causal_pairs(CausalPass(t, 2).stamps)) == []

    def test_same_source_order(self):
        t = TraceLog()
        t.record(0.0, "broadcast", 0, kind="DataPdu", seq=1)
        t.record(0.1, "broadcast", 0, kind="DataPdu", seq=2)
        assert list(causal_pairs(CausalPass(t, 2).stamps)) == [((0, 1), (0, 2))]

    def test_causal_pairs(self):
        pairs = causal_pairs(CausalPass(relay_trace(), 3).stamps)
        assert list(pairs) == [((0, 1), (1, 1))]
