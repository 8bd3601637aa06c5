"""Regression tests for congestion pathologies found during development.

Each of these configurations once deadlocked or live-locked the protocol:

1. a sender whose window was shut by stale BUF advertisements and who had
   no reason to speak (fixed: pending data makes the entity *needy*, so it
   probes and receives fresh advertisements);
2. probe/answer traffic saturating receivers slower than the probe rate,
   whose full buffers advertised BUF=0 forever (fixed: exponential probe
   backoff, reset on progress);
3. the sender's own stale BUF advertisement constraining its own window
   (fixed: minBUF excludes the self entry);
4. every saturated member probing on its own silence while still hearing
   confirmations, and every receiver answering each probe by broadcast —
   3 724 of 3 756 heartbeats in a loss-free n=32 run recovered nothing
   (fixed: probe only when stuck, answer only the prober);
5. the 2 ms confirmation timer pre-empting the paper's heard-from-all
   round on hosts that were merely behind on their inbox — 32 members x one
   changed heartbeat per 2 ms x 74 us of service is more than a host has
   (fixed: read before you announce — a member with a round of unread
   input defers its timer-paced confirmations).
"""

import pytest

from repro.core.cluster import CpuModel, build_cluster
from repro.core.pdu import HeartbeatPdu
from repro.net.delay import JitterDelay
from repro.net.loss import BernoulliLoss, LossModel
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry
from repro.workloads.generators import ContinuousWorkload


def test_slow_cpu_small_buffer_burst_recovers():
    """The full pathology: service time ~ probe interval, 6-unit buffers,
    a burst bigger than the buffer.  Must quiesce with everything
    delivered, not livelock in a heartbeat storm."""
    cpu = CpuModel(base=2e-3, per_entity=0.0)
    cluster = build_cluster(3, buffer_capacity=6, cpu=cpu)
    for k in range(8):
        cluster.submit(0, f"m{k}")
    cluster.run_until_quiescent(max_time=60.0)
    report = verify_run(cluster.trace, 3)
    report.assert_ok()
    assert report.deliveries == [8] * 3
    # The run must actually have exercised overrun loss.
    assert sum(h.buffer.stats.overruns for h in cluster.hosts) > 0


def test_probe_backoff_caps_control_traffic():
    """While blocked, probes must thin out instead of hammering receivers."""
    cpu = CpuModel(base=2e-3, per_entity=0.0)
    cluster = build_cluster(3, buffer_capacity=6, cpu=cpu)
    for k in range(6):
        cluster.submit(0, f"m{k}")
    cluster.run_until_quiescent(max_time=60.0)
    heartbeats = sum(e.counters.sent_heartbeats for e in cluster.engines)
    elapsed = cluster.sim.now
    # Without backoff this scenario produced a heartbeat every deferred
    # interval (2 ms) per entity for the whole run — hundreds per second.
    assert heartbeats < 3 * elapsed / 2e-3, (
        f"{heartbeats} heartbeats in {elapsed:.3f}s looks like a storm"
    )


def test_all_senders_blocked_simultaneously():
    """Symmetric window exhaustion: every entity fills its window at once;
    confirmations must still circulate and unblock everyone."""
    from repro.core.config import ProtocolConfig

    cluster = build_cluster(4, config=ProtocolConfig(window=1))
    for i in range(4):
        for k in range(5):
            cluster.submit(i, f"m{i}.{k}")
    cluster.run_until_quiescent(max_time=60.0)
    report = verify_run(cluster.trace, 4)
    report.assert_ok()
    assert report.deliveries == [20] * 4


def test_sustained_overload_eventually_drains():
    """Offered load far above service capacity for a while, then silence:
    the queue must drain and every message must be delivered."""
    cpu = CpuModel(base=5e-4, per_entity=0.0)
    cluster = build_cluster(3, buffer_capacity=12, cpu=cpu)
    for k in range(30):
        cluster.sim.schedule_at(k * 1e-4, cluster.submit, k % 3, f"m{k}", 0)
    cluster.run_until_quiescent(max_time=120.0)
    report = verify_run(cluster.trace, 3)
    report.assert_ok()
    assert report.deliveries == [30] * 3


def _run_wide(n, seed, loss=None, per_sender=4):
    """The ``sim_wide`` recipe (benchmarks/e2e): seeded 20 us jitter,
    4096-unit buffers, every member sending continuously — 4 messages."""
    rngs = RngRegistry(seed)
    cluster = build_cluster(
        n, rngs=rngs, delay_model=JitterDelay(20e-6), buffer_capacity=4096,
        loss=loss,
    )
    ContinuousWorkload(messages_per_entity=per_sender).install(cluster, rngs)
    cluster.run_until_quiescent(max_time=60.0)
    verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
    return cluster


def test_loss_free_saturated_cluster_sends_no_probe():
    """At n=24 every host is saturated from the first message to the last:
    members that are still learning are not stuck, and nothing is ever lost,
    so nobody may probe.  (Before: 311 probes among 614 heartbeats; n=16
    does not discriminate.)  And a member that is behind on its inbox waits
    for the round instead of announcing every 2 ms: 147 heartbeats where
    the timer alone sent 422."""
    counters = [e.counters for e in _run_wide(24, seed=7).engines]
    assert sum(c.probes_sent for c in counters) == 0
    assert sum(c.probe_answers_sent for c in counters) == 0
    assert sum(c.sent_heartbeats for c in counters) <= 150


def test_member_held_backlogged_still_confirms_through_the_round():
    """Liveness of the gate.  E0's inbox is kept a round deep for 50
    deferred intervals by injected arrivals (stale repeats of E1's first
    heartbeat — nothing to learn, one more thing to read).  Its timer may
    not announce; E0 submits nothing, so no data carries its vectors
    either.  The paper's round rule still confirms, so its peers deliver
    *during* the hold, and once the flood stops the inbox drains and the
    last changed vector goes out by the timer: everything is delivered."""
    n, hold = 4, 50 * 2e-3
    cluster = build_cluster(n)
    host, engine = cluster.hosts[0], cluster.engines[0]
    stale = HeartbeatPdu(cid=engine.config.cluster_id, src=1, ack=(1,) * n,
                         pack=(1,) * n, buf=256)
    asked = []
    may_announce = engine._may_announce

    def recording(now):
        asked.append(may_announce(now))
        return asked[-1]

    engine._may_announce = recording

    def top_up():
        while len(host.buffer) < n + 2:
            host.on_arrival(stale)
        if cluster.sim.now < hold:
            cluster.sim.schedule(20e-6, top_up)

    top_up()
    for k in range(30):
        cluster.sim.schedule_at(1e-3 + k * 3e-3, cluster.submit, 1 + k % 3, f"m{k}", 64)
    cluster.run_for(hold)
    # Held: asked at every tick and every stale repeat, refused every time.
    assert len(asked) > 50 and not any(asked)
    during = engine.counters.sent_heartbeats
    assert during >= 10                       # the round rule kept speaking
    assert engine.counters.probes_sent == 0   # reading is learning: not stuck
    assert min(len(h.delivered) for h in cluster.hosts) >= 20
    cluster.run_until_quiescent(max_time=10.0)
    assert any(asked)
    report = verify_run(cluster.trace, n, expect_all_delivered=True)
    report.assert_ok()
    assert report.deliveries == [30] * n


#: ``copies_sent`` of the run below when every simulated ``on_pdu`` was a
#: turn of its own: a saturated member confirmed each round it completed.
_WIDE_COPIES_TURNS_OF_ONE = 16_213


def test_a_saturated_wide_cluster_folds_its_rounds_into_turns():
    """docs/PROTOCOL.md §7: a turn is the input already waiting when it
    began, so a member that reads a round's worth of confirmations in one
    turn confirms once.  At n=32 that must take copies per message well
    below the turn-of-one figure."""
    cluster = _run_wide(32, seed=7000, per_sender=6)
    assert cluster.network.stats.copies_sent <= 0.8 * _WIDE_COPIES_TURNS_OF_ONE


#: Copies per message of the run below before a backlogged member deferred
#: its timer confirmation: flat it was not.
_RUN_LENGTH_COPIES_BEFORE = {3: 327, 6: 310, 10: 431, 15: 474}


@pytest.mark.slow  # ~40 s in all: CI's faults job runs it, tier-1 does not
def test_copies_per_message_stay_flat_as_the_run_gets_longer():
    """ROADMAP item 1: ``sim_wide`` at 3 / 6 / 10 / 15 messages per sender.
    Hosts stay saturated for longer as the run grows; the changed vectors
    each message causes must not grow with it.  (They may fall: a longer
    saturated run folds more of its rounds into turns.)"""
    per_msg = {}
    for per_sender in sorted(_RUN_LENGTH_COPIES_BEFORE):
        cluster = _run_wide(32, seed=7000, per_sender=per_sender)
        assert sum(e.counters.probes_sent for e in cluster.engines) == 0
        per_msg[per_sender] = cluster.network.stats.copies_sent / (32 * per_sender)
    assert max(per_msg.values()) <= 160, per_msg           # <= 1/3 of 634, with room
    shortest = per_msg[min(per_msg)]
    assert all(v <= 1.3 * shortest for v in per_msg.values()), per_msg


#: ``copies_sent`` of the run below before probes waited for silence and
#: answers went to the prober alone (overruns: 47 469 / 52 974 / 36 275).
_LOSSY_WIDE_COPIES_BEFORE = {7: 659_680, 8: 626_138, 9: 640_057}


@pytest.mark.slow  # ~10 s per seed: CI's faults job runs it, tier-1 does not
@pytest.mark.parametrize("seed", sorted(_LOSSY_WIDE_COPIES_BEFORE))
def test_lossy_wide_cluster_stays_out_of_the_answer_storm(seed):
    """n=32 with 5 % of all copies lost: lost heartbeats drew probes, 31
    members answered each by broadcast, the answers overran the buffers,
    and the overruns lost more heartbeats."""
    cluster = _run_wide(32, seed, loss=BernoulliLoss(0.05))
    assert cluster.network.stats.copies_sent <= 0.6 * _LOSSY_WIDE_COPIES_BEFORE[seed]
    assert sum(h.buffer.stats.overruns for h in cluster.hosts) == 0


class _DropKthHeartbeatCopy(LossModel):
    """Drops exactly the ``k``-th heartbeat copy put in flight (1-based)."""

    def __init__(self, k):
        self.k = k
        self.copies = 0

    def should_drop(self, src, dst, pdu, rng):
        if not isinstance(pdu, HeartbeatPdu):
            return False
        self.copies += 1
        return self.copies == self.k


def _two_messages_losing_heartbeat_copy(k):
    loss = _DropKthHeartbeatCopy(k)
    cluster = build_cluster(3, loss=loss)
    cluster.submit(0, "a")
    cluster.submit(1, "b")
    cluster.run_until_quiescent(max_time=10.0)
    return cluster, loss


def test_every_single_heartbeat_loss_recovers_some_through_a_probe():
    """Heartbeats are unsequenced — a lost one leaves no gap to detect — and
    probes are their only recovery path, so that path is enumerated rather
    than sampled: lose each heartbeat copy of a small run in turn."""
    _, loss_free = _two_messages_losing_heartbeat_copy(0)
    assert loss_free.copies >= 10
    probed = 0
    for k in range(1, loss_free.copies + 1):
        cluster, _ = _two_messages_losing_heartbeat_copy(k)
        report = verify_run(cluster.trace, 3, expect_all_delivered=True)
        assert report.ok, (k, report.summary())
        assert report.deliveries == [2] * 3, k
        probes = sum(e.counters.probes_sent for e in cluster.engines)
        answers = sum(e.counters.probe_answers_sent for e in cluster.engines)
        # Each probe reaches both peers, each answers the prober alone.
        assert answers == 2 * probes == cluster.network.stats.unicasts, k
        probed += probes > 0
    assert probed > 0  # the path was exercised, not merely survived
