"""What a member keeps and sends does not grow with how long it has run.

The paper bounds the resident PDUs of an entity (claim C3); once a message
is delivered the protocol owes it nothing.  These tests pin that down on
the simulator: the rejoin snapshot is O(n) whatever the run length, and
every engine container returns to the same size at quiescence after a
short and a long run.
"""

from repro.core.cluster import build_cluster
from repro.core.codec import encode_pdu
from repro.core.config import ProtocolConfig
from repro.core.pdu import StatePdu
from repro.harness.nemesis import check_rejoin_coverage
from repro.net.loss import TargetedLoss
from repro.sim.rng import RngRegistry

#: The largest UDP payload over IPv4.
MAX_DATAGRAM = 65_507


def _snapshot_after(monkeypatch, messages):
    """Deliver ``messages`` on a 3-member cluster, evict and restart member
    2, and return the one snapshot its sponsor served."""
    cluster = build_cluster(
        3, config=ProtocolConfig(suspect_timeout=0.02, evict_timeout=0.05),
    )
    for k in range(messages):
        cluster.submit(k % 2, b"x")
    cluster.run_until_quiescent(max_time=120.0)
    assert len(cluster.delivered(0)) == messages
    cluster.crash(2)
    cluster.run_for(0.7)
    served = []
    broadcast = cluster.network.broadcast

    def tap(src, pdu):
        if isinstance(pdu, StatePdu):
            served.append(pdu)
        broadcast(src, pdu)

    monkeypatch.setattr(cluster.network, "broadcast", tap)
    cluster.restart(2)
    cluster.run_until_quiescent(max_time=30.0)
    assert cluster.engines[2].view == 2 and not cluster.engines[2].joining
    check_rejoin_coverage(cluster, 2, [0, 1])
    assert len(served) == 1
    return served[0]


def test_snapshot_size_does_not_grow_with_deliveries(monkeypatch):
    """Past about 10.9k deliveries a snapshot listing every delivered id no
    longer fits one datagram; the frontier is the same size at any length."""
    short = _snapshot_after(monkeypatch, 100)
    long = _snapshot_after(monkeypatch, 11_000)
    assert long.ack[0] > 5_000 and long.ack[1] > 5_000
    sizes = [len(encode_pdu(s)) for s in (short, long)]
    assert sizes[0] == sizes[1] <= MAX_DATAGRAM, sizes
    assert long.wire_size() == short.wire_size()


#: Member 3 loses 40 % of what reaches it, and anti-entropy is on: RETs,
#: repair pulls and peer-assisted answers all run, so every store and
#: suppressor fills during the run.
REPAIR = ProtocolConfig(
    suspect_timeout=0.05, anti_entropy_interval=0.01,
    delta_sync_threshold=6,
)


def _lossy_cluster(seed=3):
    return build_cluster(
        4, config=REPAIR, loss=TargetedLoss({3}, rate=0.4),
        rngs=RngRegistry(seed),
    )


def _run(cluster, messages):
    for k in range(messages):
        cluster.submit(k % 4, f"m{k}")
    cluster.run_until_quiescent(max_time=120.0)
    assert [len(cluster.delivered(i)) for i in range(4)] == [messages] * 4


def _container_sizes(engine):
    return {
        "sl": engine.sl.retained,
        "rrl": engine.rrl.total,
        "prl": len(engine.prl),
        "stash": [len(s) for s in engine._stash],
        "peer_store": [len(s) for s in engine._peer_store],
        "suppressors": [len(s._last_sent) for s in engine._suppressors],
        "gaps": engine.gaps.open_gaps,
        "gapless_ack": len(engine._gapless_ack),
        "repair": len(engine.repair._last_delta_at),
        "pending": len(engine._pending),
        "dep_waiters": sum(len(w) for w in engine._dep_waiters),
        "pack_dirty": len(engine._pack_dirty),
    }


def test_engine_containers_do_not_grow_with_run_length():
    sizes = []
    for messages in (500, 4_000):
        cluster = _lossy_cluster()
        _run(cluster, messages)
        assert sum(e.counters.pull_pdus_served for e in cluster.engines) > 0
        sizes.append([_container_sizes(e) for e in cluster.engines])
    assert sizes[0] == sizes[1]


def test_peer_assist_suppressors_are_pruned_with_the_peer_store():
    """PDUs served on another source's behalf (repair pulls, peer-assisted
    RETs) leave suppressor entries; the prune floor that empties the peer
    store clears them too."""
    cluster = _lossy_cluster()
    assisted = []
    for engine in cluster.engines:
        for j, suppressor in enumerate(engine._suppressors):
            if j != engine.index:
                suppressor.should_send = _recording(
                    suppressor.should_send, assisted,
                )
    _run(cluster, 200)
    assert assisted
    for engine in cluster.engines:
        for j, suppressor in enumerate(engine._suppressors):
            assert all(s >= engine._pruned_below[j] for s in suppressor._last_sent)
            assert not engine._peer_store[j]


def _recording(should_send, calls):
    def recorded(seq, now):
        calls.append(seq)
        return should_send(seq, now)
    return recorded
