"""Integration tests for the crash-stop membership extension.

The paper assumes a fixed cluster; the extension (DESIGN.md §6 /
``ProtocolConfig.suspect_timeout``) lets survivors keep delivering when an
entity crash-stops: silent entities are *suspected* and excluded from every
knowledge minimum, their PDUs are re-served by live holders, and delivery
comes to mean "accepted by every live member".
"""

import pytest

from repro.core.cluster import build_cluster
from repro.core.config import ProtocolConfig
from repro.net.loss import BernoulliLoss, ScriptedLoss
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry

CFG = ProtocolConfig(suspect_timeout=0.02)


def survivors_report(cluster, n):
    report = verify_run(cluster.trace, n, expect_all_delivered=False)
    report.assert_ok()
    return report


class TestCrashStop:
    def test_survivors_quiesce_and_deliver_everything(self):
        cluster = build_cluster(3, config=CFG)
        for k in range(5):
            cluster.submit(0, f"pre-{k}")
            cluster.submit(1, f"one-{k}")
        cluster.run_for(0.01)
        cluster.crash(0)
        for k in range(5):
            cluster.submit(1, f"post-{k}")
            cluster.submit(2, f"two-{k}")
        cluster.run_until_quiescent(max_time=30.0)
        report = survivors_report(cluster, 3)
        # Survivors delivered all 20 messages, including the crashed
        # entity's pre-crash broadcasts.
        assert report.deliveries[1] == 20
        assert report.deliveries[2] == 20

    def test_survivors_suspect_the_crashed_entity(self):
        cluster = build_cluster(3, config=CFG)
        cluster.submit(0, "hello")
        cluster.run_for(0.005)
        cluster.crash(0)
        cluster.submit(1, "keepalive")
        cluster.run_until_quiescent(max_time=30.0)
        for host in cluster.hosts[1:]:
            assert host.engine.suspected == {0}
        assert cluster.trace.count("suspect") >= 2

    def test_without_timeout_crash_stalls_cluster(self):
        # The paper's fixed-membership model: a crash blocks acknowledgment
        # of everything the dead entity never confirmed.
        cluster = build_cluster(3)  # no suspect_timeout
        cluster.run_for(0.001)
        cluster.crash(0)
        cluster.submit(1, "doomed")
        with pytest.raises(TimeoutError):
            cluster.run_until_quiescent(max_time=0.5)

    def test_peer_assisted_retransmission(self):
        # E0's last PDU reaches E1 but is dropped on its way to E2; E0 then
        # crashes.  E2 must obtain the PDU from E1.
        loss = ScriptedLoss([(0, 1, 2)])
        cluster = build_cluster(3, config=CFG, loss=loss)
        cluster.submit(0, "only-E1-got-this")
        # Crash right after the copies hit the wire (arrival is at 200 us),
        # before E0 could answer any retransmission request itself.
        cluster.run_for(0.0005)
        cluster.crash(0)
        cluster.submit(1, "traffic-1")
        cluster.submit(2, "traffic-2")
        cluster.run_until_quiescent(max_time=30.0)
        assert loss.exhausted
        payloads_e2 = [m.data for m in cluster.delivered(2)]
        assert "only-E1-got-this" in payloads_e2
        assisted = [
            r for r in cluster.trace.select("retransmit")
            if r.get("on_behalf_of") == 0
        ]
        assert assisted
        survivors_report(cluster, 3)

    def test_survivor_pair_agrees_on_acknowledged_set(self):
        cluster = build_cluster(4, config=CFG, rngs=RngRegistry(5))
        for k in range(6):
            cluster.submit(k % 4, f"m{k}")
        cluster.run_for(0.008)
        cluster.crash(3)
        for k in range(6):
            cluster.submit(k % 3, f"post-{k}")
        cluster.run_until_quiescent(max_time=30.0)
        ack_sets = [
            {
                (r.get("src"), r.get("seq"))
                for r in cluster.trace.select("ack", entity=host.index)
            }
            for host in cluster.hosts
            if not host.crashed
        ]
        assert all(s == ack_sets[0] for s in ack_sets)
        survivors_report(cluster, 4)

    def test_crash_under_loss(self):
        cluster = build_cluster(
            4, config=CFG,
            loss=BernoulliLoss(0.08, protect_control=True),
            rngs=RngRegistry(9),
        )
        for k in range(8):
            cluster.submit(k % 4, f"m{k}")
        cluster.run_for(0.01)
        cluster.crash(2)
        for k in range(8):
            cluster.submit(k % 2, f"post-{k}")
        cluster.run_until_quiescent(max_time=60.0)
        survivors_report(cluster, 4)

    def test_two_entity_cluster_survives_solo(self):
        cluster = build_cluster(2, config=CFG)
        cluster.submit(0, "together")
        cluster.run_until_quiescent(max_time=10.0)
        cluster.crash(1)
        cluster.submit(0, "alone")
        cluster.run_until_quiescent(max_time=10.0)
        assert [m.data for m in cluster.delivered(0)] == ["together", "alone"]


class TestSlownessIsRevocable:
    def test_slow_entity_is_unsuspected_on_return(self):
        # Entity 1's host pauses (no ticks -> no keepalives): the others
        # suspect it.  When it resumes, its first keepalive re-includes it
        # and everything still delivers everywhere.
        cluster = build_cluster(3, config=CFG)
        cluster.submit(0, "early")
        cluster.run_until_quiescent(max_time=10.0)
        cluster.hosts[1].stop()        # pause: alive but silent
        cluster.run_for(0.06)
        assert 1 in cluster.engines[0].suspected
        assert 1 in cluster.engines[2].suspected
        cluster.hosts[1].start()       # resume
        cluster.run_for(0.06)
        assert cluster.trace.count("unsuspect") > 0
        assert cluster.engines[0].suspected == set()
        cluster.submit(1, "i-am-back")
        cluster.run_until_quiescent(max_time=10.0)
        for i in range(3):
            assert [m.data for m in cluster.delivered(i)] == ["early", "i-am-back"]
        report = verify_run(cluster.trace, 3)
        report.assert_ok()

    def test_mutual_suspicion_resolves(self):
        # Entities are born silent; before any keepalive has circulated a
        # suspicion can fire, but traffic re-includes everyone and the
        # keepalives prevent fresh false suspicion afterwards.
        cluster = build_cluster(3, config=CFG)
        cluster.run_for(0.1)
        for k in range(4):
            cluster.submit(k % 3, f"m{k}")
        cluster.run_until_quiescent(max_time=10.0)
        report = verify_run(cluster.trace, 3)
        report.assert_ok()
        assert report.deliveries == [4, 4, 4]
        for engine in cluster.engines:
            assert engine.suspected == set()

    def test_keepalives_prevent_false_suspicion_during_idle(self):
        cluster = build_cluster(3, config=CFG)
        cluster.submit(0, "warmup")
        cluster.run_until_quiescent(max_time=10.0)
        # A long healthy silence: keepalives keep everyone un-suspected.
        cluster.run_for(0.2)
        for engine in cluster.engines:
            assert engine.suspected == set()


EVICT_CFG = ProtocolConfig(suspect_timeout=0.02, evict_timeout=0.05)

#: Long enough for suspicion to ripen, the eviction round to run and the
#: install barrier to clear under the EVICT_CFG timing.
EVICTION_WINDOW = 0.7


class TestViewChangeEviction:
    """Agreed eviction: the crash-recovery extension's first half.

    Where plain crash-stop *suspicion* merely excludes the silent entity
    from the knowledge minima, the view change makes the shrinkage
    permanent and agreed: survivors flush the old view's stable PDUs,
    install an identical shrunken membership everywhere, and resume the
    PACK -> ACK ladder (and store pruning) with n-1 entities.
    """

    def _evicted_cluster(self, n=4, victim=2, traffic=6):
        cluster = build_cluster(n, config=EVICT_CFG)
        for k in range(traffic):
            cluster.submit(k % n, f"pre-{k}")
        cluster.run_for(0.01)
        cluster.crash(victim)
        cluster.run_for(EVICTION_WINDOW)
        return cluster

    def test_crash_installs_shrunken_view_everywhere(self):
        cluster = self._evicted_cluster()
        survivors = [0, 1, 3]
        for i in survivors:
            engine = cluster.hosts[i].engine
            assert engine.view == 1
            assert engine.members == {0, 1, 3}
            assert engine.evicted == {2}
        # Identical view history at every survivor: one view change, same
        # member set — the view-safety invariant.
        logs = {tuple(cluster.hosts[i].engine.view_log) for i in survivors}
        assert len(logs) == 1

    def test_post_eviction_broadcasts_reach_ack_level(self):
        cluster = self._evicted_cluster()
        survivors = [0, 1, 3]
        for k in range(5):
            cluster.submit(survivors[k % 3], f"post-{k}")
        cluster.run_until_quiescent(max_time=30.0)
        survivors_report(cluster, 4)
        for i in survivors:
            delivered = {m.data for m in cluster.delivered(i)}
            assert all(f"post-{k}" in delivered for k in range(5))
            # ACK level reached: the sending log pruned back to empty, so
            # the dead member's frozen expectations no longer pin stores.
            assert cluster.hosts[i].engine.sl.retained == 0

    def test_minority_cannot_evict(self):
        # 2-of-2 with one crash: the lone survivor is not a majority of the
        # old view, so the quorum guard must hold the membership steady.
        cluster = build_cluster(2, config=EVICT_CFG)
        cluster.submit(0, "hello")
        cluster.run_for(0.005)
        cluster.crash(1)
        cluster.run_for(EVICTION_WINDOW)
        assert cluster.hosts[0].engine.view == 0
        assert cluster.hosts[0].engine.members == {0, 1}

    def test_eviction_is_traced(self):
        cluster = self._evicted_cluster()
        assert cluster.trace.count("view-propose") >= 1
        assert cluster.trace.count("view-install") == 3
        assert cluster.trace.count("evict") == 3


class TestCrashRecoveryRejoin:
    """Rejoin with state transfer: the extension's second half."""

    def _full_cycle(self, n=4, victim=2):
        cluster = build_cluster(n, config=EVICT_CFG)
        for k in range(6):
            cluster.submit(k % n, f"pre-{k}")
        cluster.run_for(0.01)
        cluster.crash(victim)
        cluster.run_for(EVICTION_WINDOW)
        assert cluster.hosts[0].engine.view == 1
        missed = [f"missed-{k}" for k in range(3)]
        for k, payload in enumerate(missed):
            cluster.submit((victim + 1 + k) % n, payload)
        cluster.run_until_quiescent(max_time=30.0)
        cluster.restart(victim)
        cluster.run_until_quiescent(max_time=30.0)
        return cluster, missed

    def test_restart_readmits_via_second_view_change(self):
        cluster, _ = self._full_cycle()
        for engine in cluster.engines:
            assert engine.view == 2
            assert engine.members == {0, 1, 2, 3}
            assert engine.evicted == set()
            assert not engine.joining
        logs = {tuple(e.view_log) for e in cluster.engines}
        assert len(logs) == 1

    def test_snapshot_prefix_covers_missed_traffic(self):
        cluster, missed = self._full_cycle()
        rejoined = cluster.hosts[2].engine
        # Everything a survivor delivered while the victim was down lies
        # below the recovered frontier, per source: no delivery gap.
        frontier = rejoined.recovered_frontier
        own_ids = {(m.src, m.seq) for m in cluster.delivered(2)}
        missed = [
            (m.src, m.seq) for m in cluster.delivered(0)
            if (m.src, m.seq) not in own_ids and m.seq >= frontier[m.src]
        ]
        assert missed == []
        assert frontier[0] > 1
        assert cluster.trace.count("state-transfer") >= 1
        assert cluster.trace.count("readmit") >= 3

    def test_post_rejoin_traffic_delivered_at_everyone(self):
        cluster, _ = self._full_cycle()
        cluster.submit(2, "from-the-returnee")
        cluster.submit(0, "welcome-back")
        cluster.run_until_quiescent(max_time=30.0)
        survivors_report(cluster, 4)
        for i in range(4):
            delivered = {m.data for m in cluster.delivered(i)}
            assert "from-the-returnee" in delivered
            assert "welcome-back" in delivered
        for host in cluster.hosts:
            assert host.engine.sl.retained == 0

    def test_rejoin_under_loss(self):
        cluster = build_cluster(
            4,
            config=EVICT_CFG,
            loss=BernoulliLoss(0.05, protect_control=True),
            rngs=RngRegistry(11),
        )
        for k in range(4):
            cluster.submit(k % 4, f"pre-{k}")
        cluster.run_for(0.01)
        cluster.crash(1)
        cluster.run_for(EVICTION_WINDOW)
        cluster.submit(0, "while-away")
        cluster.run_until_quiescent(max_time=60.0)
        cluster.restart(1)
        cluster.run_until_quiescent(max_time=60.0)
        survivors_report(cluster, 4)
        assert all(e.view == 2 for e in cluster.engines)
