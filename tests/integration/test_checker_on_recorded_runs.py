"""The run checker against recorded runs with planted defects.

A checker that passes every clean run proves nothing by itself.  Here a
recorded run is mutated one record at a time, and each defect must land in
its own table of the report:

* two causally related deliveries swapped at one member -> ``causality``;
* one delivery dropped -> ``missing``;
* one delivery duplicated -> ``duplicates``.

Completeness must also hold where the only record of a send is the sender's
self-acceptance: UDP members and ring relays write no ``broadcast`` record.
"""

import asyncio

import pytest

from repro.analysis.causal_graph import causal_pairs
from repro.core.cluster import build_cluster
from repro.core.config import DisseminationMode, ProtocolConfig
from repro.ordering.checker import CausalPass, verify_run
from repro.runtime.udp import udp_cluster
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from repro.workloads.generators import RequestReplyWorkload


def rewritten(trace, records):
    """A fresh trace holding ``records`` (TraceRecords) in the given order."""
    out = TraceLog()
    for rec in records:
        out.record(rec.time, rec.category, rec.entity, **rec.details)
    return out


def deliver_indices(trace, entity):
    return [k for k, rec in enumerate(trace) if rec.category == "deliver" and rec.entity == entity]


def message(rec):
    return (rec.get("src"), rec.get("seq"))


@pytest.fixture(scope="module")
def request_reply():
    """n=4, requests from E0 answered by everyone else: real causal chains."""
    cluster = build_cluster(4, rngs=RngRegistry(9))
    RequestReplyWorkload(requests=4, max_depth=2).install(cluster, RngRegistry(9))
    cluster.run_until_quiescent(max_time=20.0)
    verify_run(cluster.trace, 4).assert_ok()
    return cluster.trace


class TestMutations:
    def test_swapped_causal_pair_is_a_causality_violation(self, request_reply):
        records = list(request_reply)
        precedes = set(causal_pairs(CausalPass(request_reply, 4).stamps))
        accepted_at = {}
        for k, rec in enumerate(records):
            if rec.category == "accept":
                accepted_at.setdefault(message(rec), k)
        # Two consecutive deliveries at one member, from different sources,
        # the first a causal predecessor of the second, which was already
        # sent (and accepted somewhere) when the first was delivered.
        for entity in range(4):
            at = deliver_indices(request_reply, entity)
            pairs = [
                (i, j) for i, j in zip(at, at[1:])
                if (message(records[i]), message(records[j])) in precedes
                and records[i].get("src") != records[j].get("src")
                and accepted_at[message(records[j])] < i
            ]
            if pairs:
                break
        i, j = pairs[0]
        p, q = message(records[i]), message(records[j])
        records[i], records[j] = records[j], records[i]
        report = verify_run(rewritten(request_reply, records), 4)
        assert report.causality == {entity: [(q, p)]}
        assert not (report.missing or report.duplicates or report.local_order)

    def test_dropped_delivery_is_missing(self, request_reply):
        records = list(request_reply)
        k = deliver_indices(request_reply, 2)[3]
        dropped = message(records.pop(k))
        report = verify_run(rewritten(request_reply, records), 4)
        assert report.missing == {2: [dropped]}
        assert not (report.duplicates or report.local_order or report.causality)

    def test_duplicated_delivery_is_a_duplicate(self, request_reply):
        records = list(request_reply)
        k = deliver_indices(request_reply, 1)[2]
        records.insert(k + 1, records[k])
        report = verify_run(rewritten(request_reply, records), 4)
        assert report.duplicates == {1: [message(records[k])]}
        assert not (report.missing or report.local_order or report.causality)


def drop_last_delivery(trace, entity):
    records = list(trace)
    dropped = message(records.pop(deliver_indices(trace, entity)[-1]))
    return rewritten(trace, records), dropped


def test_dropped_delivery_on_a_ring_sim_run_is_missing():
    config = ProtocolConfig(dissemination=DisseminationMode.RING)
    cluster = build_cluster(4, config=config, rngs=RngRegistry(11))
    for k in range(8):
        cluster.submit(k % 4, f"ring-{k}")
    cluster.run_until_quiescent(max_time=20.0)
    # Ring relays are unicasts: no data PDU is ever broadcast.
    assert not any(
        rec.get("kind") in ("DataPdu", "BatchPdu") for rec in cluster.trace.select("broadcast")
    )
    report = verify_run(cluster.trace, 4)
    assert report.ok and report.messages_sent == 8
    mutated, dropped = drop_last_delivery(cluster.trace, 3)
    assert verify_run(mutated, 4).missing == {3: [dropped]}


def test_dropped_delivery_on_a_udp_run_is_missing():
    async def scenario():
        members = await udp_cluster(3, base_port=20200, seed=12, trace=TraceLog())
        try:
            for k in range(6):
                members[k % 3].broadcast(f"u{k}".encode())
            for _ in range(1000):
                if all(len(m.delivered) == 6 for m in members):
                    break
                await asyncio.sleep(0.01)
        finally:
            for member in members:
                await member.stop()
        return members

    members = asyncio.run(scenario())
    trace = members[0].trace
    report = verify_run(trace, 3)
    assert report.ok and report.messages_sent == 6
    mutated, dropped = drop_last_delivery(trace, 2)
    assert verify_run(mutated, 3).missing == {2: [dropped]}
