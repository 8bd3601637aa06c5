"""Conformance: batching changes the wire, not the service.

The same seeded workload runs twice — once with classic one-PDU frames
(``batch_max_pdus=1``) and once with up to eight PDUs per frame
(``batch_max_pdus=8``) — and the *application-visible* outcome must be
indistinguishable.  A frame is what one pump of the send queue releases,
so only a sender blocked on its flow window ever has several PDUs to
pack: the storm submits three windows' worth per member at once.

* for workloads whose causal structure forces a total order (a chain, a
  single sender), the per-entity delivery sequences are **identical**;
* for concurrent workloads, where the CO contract deliberately leaves the
  interleaving of concurrent messages free, the delivered *sets*, the
  per-source delivery subsequences, and the final PACK floors and REQ
  vectors agree — everything the service pins down.

This is the equivalence that makes batching a pure transport optimisation:
Theorem 4.1's acceptance/sequencing arithmetic runs PDU-by-PDU on exactly
the same inputs either way.
"""

import pytest

from repro.core.cluster import build_cluster
from repro.core.config import ProtocolConfig
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry
from repro.workloads.adversarial import ChainWorkload, StormWorkload
from repro.workloads.generators import ContinuousWorkload

#: Bursts three default windows deep: the first W go out one by one as they
#: are submitted, the rest leave in whatever the reopening window releases.
DEEP_STORM = StormWorkload(batch=24)


def _run(batch, workload, n=4, seed=11, loss=None):
    cluster = build_cluster(
        n,
        config=ProtocolConfig(batch_max_pdus=batch),
        rngs=RngRegistry(seed),
        loss=loss,
    )
    workload.install(cluster, RngRegistry(seed))
    cluster.run_until_quiescent(max_time=60.0)
    verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
    return cluster


def _delivery_sequences(cluster):
    return [
        [(m.src, m.seq) for m in cluster.delivered(i)]
        for i in range(cluster.n)
    ]


def _per_source(sequence, n):
    split = [[] for _ in range(n)]
    for src, seq in sequence:
        split[src].append(seq)
    return split


def _final_floors(cluster):
    """Per entity: (final PACK floor, final REQ vector)."""
    return [
        (
            tuple(host.engine._preack_floor),
            tuple(host.engine.state.req),
        )
        for host in cluster.hosts
    ]


class TestForcedOrderIdentical:
    """Workloads with a total causal order: sequences must match exactly."""

    def test_chain_identical_sequences(self):
        chain_a = _run(1, ChainWorkload(hops=12))
        chain_b = _run(8, ChainWorkload(hops=12))
        assert _delivery_sequences(chain_a) == _delivery_sequences(chain_b)
        assert _final_floors(chain_a) == _final_floors(chain_b)

    def test_single_sender_identical_sequences(self):
        workload = ContinuousWorkload(messages_per_entity=0)

        def run(batch):
            cluster = build_cluster(
                4, config=ProtocolConfig(batch_max_pdus=batch),
                rngs=RngRegistry(5),
            )
            for k in range(20):
                cluster.submit(0, f"solo-{k}")
            cluster.run_until_quiescent(max_time=60.0)
            verify_run(cluster.trace, 4, expect_all_delivered=True).assert_ok()
            return cluster

        a, b = run(1), run(8)
        assert _delivery_sequences(a) == _delivery_sequences(b)
        assert _final_floors(a) == _final_floors(b)


class TestConcurrentEquivalent:
    """Concurrent workloads: everything the contract pins down agrees."""

    @pytest.mark.parametrize("workload", [
        ContinuousWorkload(messages_per_entity=12, interval=3e-4),
        DEEP_STORM,
    ], ids=["continuous", "storm"])
    def test_sets_subsequences_and_floors_agree(self, workload):
        n = 4
        a = _run(1, workload, n=n)
        b = _run(8, workload, n=n)
        seq_a, seq_b = _delivery_sequences(a), _delivery_sequences(b)
        for i in range(n):
            # Same delivered set at every entity...
            assert set(seq_a[i]) == set(seq_b[i])
            # ...in the same per-source order (local order is pinned)...
            assert _per_source(seq_a[i], n) == _per_source(seq_b[i], n)
        # ...and the protocol state converged to the same knowledge.
        assert _final_floors(a) == _final_floors(b)

    def test_equivalence_survives_loss(self):
        from repro.net.loss import BernoulliLoss

        n = 4
        workload = ContinuousWorkload(messages_per_entity=8, interval=3e-4)
        a = _run(1, workload, n=n, loss=BernoulliLoss(0.1, protect_control=True))
        b = _run(8, workload, n=n, loss=BernoulliLoss(0.1, protect_control=True))
        seq_a, seq_b = _delivery_sequences(a), _delivery_sequences(b)
        for i in range(n):
            assert set(seq_a[i]) == set(seq_b[i])
            assert _per_source(seq_a[i], n) == _per_source(seq_b[i], n)
        assert _final_floors(a) == _final_floors(b)


class TestBatchingEngaged:
    """The batch=8 run genuinely batched (guards against a silent no-op)."""

    def test_frames_carry_multiple_pdus(self):
        cluster = _run(8, DEEP_STORM)
        stats = cluster.network.stats
        assert stats.batch_frames > 0
        assert stats.batched_data_pdus >= 2 * stats.batch_frames
        # Every member was blocked on its window and released several at once.
        for host in cluster.hosts:
            counters = host.engine.counters
            assert counters.flow_blocked > 0
            assert counters.batched_pdus >= 2 * counters.sent_batches > 0

    def test_unbatched_run_has_no_batch_frames(self):
        cluster = _run(1, DEEP_STORM)
        assert cluster.network.stats.batch_frames == 0
