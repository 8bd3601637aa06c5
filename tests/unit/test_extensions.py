"""Unit tests for the total-order and selective-group extensions."""

import pytest

from repro.core.cluster import build_cluster
from repro.core.pdu import DataPdu
from repro.extensions.selective_groups import SelectiveBroadcastService
from repro.extensions.total_order import TotalOrderEntity, total_order_key
from repro.ordering.properties import delivery_logs, total_order_agreement


def pdu(src, seq, ack):
    return DataPdu(cid=1, src=src, seq=seq, ack=tuple(ack), buf=0, data="x")


class TestTotalOrderKey:
    def test_rank_extends_same_source_causality(self):
        p = pdu(0, 1, (1, 1, 1))
        q = pdu(0, 2, (2, 1, 1))
        assert total_order_key(p) < total_order_key(q)

    def test_rank_extends_cross_source_causality(self):
        p = pdu(0, 2, (2, 1, 1))          # Table 1's c
        q = pdu(1, 1, (3, 1, 2))          # Table 1's d, c < d
        assert total_order_key(p) < total_order_key(q)

    def test_rank_is_deterministic_total_order(self):
        b = pdu(2, 1, (2, 1, 1))
        c = pdu(0, 2, (2, 1, 1))          # b ~ c: tie on sum, src breaks it
        assert total_order_key(c) != total_order_key(b)
        assert sorted([total_order_key(b), total_order_key(c)]) == [
            total_order_key(c), total_order_key(b),
        ]


class TestTotalOrderCluster:
    def build(self, n=3):
        return build_cluster(n, engine_factory=TotalOrderEntity)

    def test_all_entities_agree_on_order(self):
        cluster = self.build(3)
        for r in range(10):
            for i in range(3):
                cluster.submit(i, f"m{i}.{r}")
        cluster.run_until_quiescent(max_time=30.0)
        logs = delivery_logs(cluster.trace, 3)
        assert total_order_agreement(logs) == []
        assert all(len(log) > 0 for log in logs)

    def test_tail_is_held_back_not_misordered(self):
        cluster = self.build(3)
        cluster.submit(0, "only")
        cluster.run_until_quiescent(max_time=10.0)
        # A single message has no successor from every source: held back.
        held = [e.undelivered_tail for e in cluster.engines]
        assert all(h >= 0 for h in held)
        logs = delivery_logs(cluster.trace, 3)
        assert total_order_agreement(logs) == []

    def test_delivered_prefix_is_causal(self):
        from repro.ordering.checker import verify_run

        cluster = self.build(4)
        for r in range(8):
            for i in range(4):
                cluster.submit(i, f"x{i}.{r}")
        cluster.run_until_quiescent(max_time=30.0)
        report = verify_run(cluster.trace, 4, expect_all_delivered=False)
        assert not report.causality
        assert not report.local_order


class TestSelectiveGroups:
    def test_multicast_filters_destinations(self):
        svc = SelectiveBroadcastService(n=4, seed=1)
        svc.multicast(0, {1, 2}, "duo")
        svc.broadcast(3, "all")
        svc.run_until_quiescent(max_time=10.0)
        assert svc.delivered_payloads(0) == ["all"]
        assert svc.delivered_payloads(1) == ["duo", "all"]
        assert svc.delivered_payloads(2) == ["duo", "all"]
        assert svc.delivered_payloads(3) == ["all"]

    def test_sender_not_in_destinations(self):
        svc = SelectiveBroadcastService(n=3)
        svc.multicast(0, {1}, "not-for-me")
        svc.run_until_quiescent(max_time=10.0)
        assert svc.delivered_payloads(0) == []
        assert svc.delivered_payloads(1) == ["not-for-me"]

    def test_invalid_destination_rejected(self):
        svc = SelectiveBroadcastService(n=3)
        with pytest.raises(ValueError):
            svc.multicast(0, {5}, "x")

    def test_causal_order_across_overlapping_groups(self):
        svc = SelectiveBroadcastService(n=3, seed=3)
        svc.multicast(0, {1}, "first")     # group {1}
        svc.run_until_quiescent(max_time=10.0)
        svc.multicast(1, {1, 2}, "second")  # causally after "first"
        svc.run_until_quiescent(max_time=10.0)
        at_one = svc.delivered_payloads(1)
        assert at_one.index("first") < at_one.index("second")

    def test_delivery_metadata_unwrapped(self):
        svc = SelectiveBroadcastService(n=2)
        svc.multicast(0, {1}, {"k": 1})
        svc.run_until_quiescent(max_time=10.0)
        message = svc.delivered(1)[0]
        assert message.data == {"k": 1}
        assert message.src == 0
