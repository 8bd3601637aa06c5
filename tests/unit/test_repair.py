"""The anti-entropy repair layer (docs/PROTOCOL.md §15).

Unit tests for the pure decision logic in :class:`RepairManager`, the
repair knobs' config validation, and the eviction-time gap/stash cleanup
the repair work exposed (a gap opened for a member the view later removes
targets seqs above the flush — nothing can ever close it).
"""

import pytest

from repro.core.cluster import build_cluster
from repro.core.config import ConfigurationError, ProtocolConfig
from repro.core.repair import PULL_AFTER_RETRIES, PULL_MAX_RANGES, RepairManager
from repro.core.retransmit import GapTracker
from repro.net.loss import LossModel
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry


def _manager(**overrides):
    defaults = dict(suspect_timeout=0.02, anti_entropy_interval=0.01)
    defaults.update(overrides)
    return RepairManager(owner=0, n=4, config=ProtocolConfig(**defaults))


class TestConfigValidation:
    def test_repair_disabled_by_default(self):
        config = ProtocolConfig()
        assert config.anti_entropy_interval is None
        assert not config.repair_enabled
        assert not RepairManager(0, 4, config).enabled

    def test_repair_enabled_property(self):
        assert ProtocolConfig(anti_entropy_interval=0.5).repair_enabled

    def test_strict_paper_mode_forbids_anti_entropy(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(strict_paper_mode=True, anti_entropy_interval=0.5)

    @pytest.mark.parametrize("field, bad", [
        ("anti_entropy_interval", 0.0),
        ("anti_entropy_interval", -1.0),
        ("delta_sync_threshold", 0),
    ])
    def test_bad_repair_knobs_rejected(self, field, bad):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(**{field: bad})


class TestDigestScheduling:
    def test_not_due_before_interval(self):
        repair = _manager()
        assert repair.digest_target(0.0, [1, 2, 3]) is not None
        assert repair.digest_target(0.005, [1, 2, 3]) is None
        assert repair.digest_target(0.011, [1, 2, 3]) is not None

    def test_rotation_covers_every_candidate(self):
        repair = _manager()
        targets = [repair.digest_target(0.02 * k, [3, 1, 2]) for k in range(6)]
        # Deterministic rotation over the *sorted* candidates, twice around.
        assert targets == [1, 2, 3, 1, 2, 3]

    def test_no_candidates_or_disabled_means_no_digest(self):
        assert _manager().digest_target(0.0, []) is None
        off = _manager(anti_entropy_interval=None)
        assert not off.enabled
        assert off.digest_target(0.0, [1, 2]) is None

    def test_rotation_survives_membership_change(self):
        repair = _manager()
        assert repair.digest_target(0.00, [1, 2, 3]) == 1
        # Candidate 2 evicted: the rotation carries on from the last peer
        # digested instead of stalling on a stale index.
        assert repair.digest_target(0.02, [1, 3]) == 3
        assert repair.digest_target(0.04, [1, 3]) == 1

    def test_rotation_cursor_is_stable_across_eviction(self):
        """Regression: the old ``rounds % len(candidates)`` cursor re-mapped
        every position when the candidate set changed mid-cycle, so a peer
        could be starved for many rounds.  The stable per-peer cursor must
        digest every live peer within ``len(candidates)`` intervals of any
        membership change."""
        repair = _manager(anti_entropy_interval=0.01)
        now = 0.0
        # Walk partway through a 5-candidate cycle...
        candidates = [1, 2, 3, 4, 5]
        first = [repair.digest_target(now + 0.02 * k, candidates) for k in range(2)]
        assert first == [1, 2]
        # ...then evict 3 mid-rotation.  Every survivor must be digested
        # within len(survivors) further intervals — no starvation window.
        survivors = [1, 2, 4, 5]
        seen = [
            repair.digest_target(1.0 + 0.02 * k, survivors)
            for k in range(len(survivors))
        ]
        assert sorted(seen) == survivors
        # And the cycle continued from the cursor (last digested: 2).
        assert seen == [4, 5, 1, 2]

    def test_rotation_cursor_is_stable_across_rejoin(self):
        repair = _manager()
        assert [repair.digest_target(0.02 * k, [1, 3]) for k in range(2)] == [1, 3]
        # Member 2 rejoins: the cursor (at 3) wraps and picks 2 up next
        # cycle without skipping anyone.
        grown = [repair.digest_target(1.0 + 0.02 * k, [1, 2, 3]) for k in range(3)]
        assert grown == [1, 2, 3]


class TestRangePlanning:
    def test_plans_only_positive_deficits(self):
        repair = _manager()
        ranges = repair.plan_ranges([1, 5, 2, 9], [1, 7, 2, 4])
        assert ranges == [(1, 5, 7)]  # source 3 is *ahead* locally: no range

    def test_owner_and_skip_excluded(self):
        repair = _manager()
        # Owner (0) behind remote, but pulling our own PDUs is nonsense.
        assert repair.plan_ranges([1, 1, 1, 1], [5, 1, 1, 1]) == []
        assert repair.plan_ranges([1, 1, 1, 1], [1, 9, 1, 1], skip=(1,)) == []

    def test_clamped_to_largest_deficits(self):
        # One range too many: every peer source is 2 PDUs behind except
        # source 9, whose 1-PDU hole waits for the next digest round.
        n = PULL_MAX_RANGES + 2
        repair = RepairManager(0, n, ProtocolConfig(anti_entropy_interval=0.01))
        remote = [3] * n
        remote[9] = 2
        ranges = repair.plan_ranges([1] * n, remote)
        assert ranges == [(j, 1, 3) for j in range(1, n) if j != 9]

    def test_escalation_threshold(self):
        repair = _manager()
        assert not repair.should_escalate(PULL_AFTER_RETRIES)
        assert repair.should_escalate(PULL_AFTER_RETRIES + 1)
        off = _manager(anti_entropy_interval=None)
        assert not off.should_escalate(100)


class TestDeltaSync:
    def test_deficit_sums_positive_terms_only(self):
        repair = _manager()
        assert repair.deficit([1, 3, 1, 1], [4, 1, 9, 1]) == 3 + 8
        assert repair.deficit([1, 3, 1, 1], [4, 1, 9, 1], skip=(2,)) == 3

    def test_delta_due_threshold_and_rate_limit(self):
        repair = _manager(delta_sync_threshold=10)
        assert not repair.delta_due(2, 9, now=0.0)
        assert repair.delta_due(2, 10, now=0.0)
        repair.mark_delta(2, now=0.0)
        # Rate limit: one burst per peer per interval; other peers unaffected.
        assert not repair.delta_due(2, 50, now=0.005)
        assert repair.delta_due(3, 50, now=0.005)
        assert repair.delta_due(2, 50, now=0.011)

    def test_delta_due_is_a_pure_check(self):
        """Regression: the old API stamped the rate limit inside the check,
        so an answer that then sent zero PDUs (deficit fully pruned from
        the sending log) silently burned the peer's interval."""
        repair = _manager(delta_sync_threshold=10)
        assert repair.delta_due(2, 50, now=0.0)
        # Engine sent nothing, never marked: immediately due again.
        assert repair.delta_due(2, 50, now=0.001)
        repair.mark_delta(2, now=0.001)
        assert not repair.delta_due(2, 50, now=0.002)

    def test_forget_peer_resets_rate_limit(self):
        """Regression: ``_last_delta_at`` survived eviction, so a rejoined
        incarnation's first (most valuable) delta burst was suppressed by
        its predecessor's timestamp."""
        repair = _manager(delta_sync_threshold=10)
        assert repair.delta_due(2, 50, now=0.0)
        repair.mark_delta(2, now=0.0)
        assert not repair.delta_due(2, 50, now=0.005)
        repair.forget_peer(2)
        assert repair.delta_due(2, 50, now=0.005)
        # Out-of-range peers are ignored, not an error.
        repair.forget_peer(-1)
        repair.forget_peer(99)


class TestGapTrackerDropSource:
    def test_drop_source_forgets_gap(self):
        gaps = GapTracker(4)
        gaps.note(2, 5, now=0.0)
        assert gaps.open_gaps == 1
        assert gaps.drop_source(2)
        assert gaps.open_gaps == 0
        assert not gaps.drop_source(2)
        assert gaps.due(10.0, 0.01) == []


class TestEvictionGapCleanup:
    """Regression: a gap (and stash) for an evicted member above the flush
    could never close — its RET timer fired against the dead peer forever
    and the stale stash blocked quiescence."""

    class _DropSeqTwoForever(LossModel):
        """Every copy (original *and* retransmission) of the victim's seq 2
        is lost, so nobody ever holds it and the gap is unserviceable."""

        def __init__(self, victim):
            self.victim = victim

        def should_drop(self, src, dst, pdu, rng):
            return src == self.victim and getattr(pdu, "seq", None) == 2

    def _run(self, seed=3):
        # The victim's seq 2 never reaches anyone; seq 3 arrives and is
        # stashed with an F1 gap.  RETs for seq 2 are answered but the
        # answers drop too, then the victim crashes: only the eviction
        # flush (= 2) can retire the gap and the stashed seq 3.
        config = ProtocolConfig(suspect_timeout=0.02, evict_timeout=0.05)
        victim, n = 3, 4
        cluster = build_cluster(n, config=config,
                                loss=self._DropSeqTwoForever(victim),
                                rngs=RngRegistry(seed))
        cluster.submit(victim, "first")
        cluster.run_until_quiescent(max_time=10.0)
        cluster.submit(victim, "lost")     # seq 2: dropped everywhere
        cluster.submit(victim, "stashed")  # seq 3: stashed behind the hole
        cluster.run_for(0.01)
        cluster.crash(victim)
        return cluster, victim, n

    def test_gap_and_stash_dropped_at_install(self):
        cluster, victim, n = self._run()
        survivors = [i for i in range(n) if i != victim]
        # Survivors saw evidence of the hole before the crash.
        assert any(
            cluster.hosts[i].engine.gaps.get(victim) is not None
            for i in survivors
        )
        cluster.run_until_quiescent(max_time=30.0)
        for i in survivors:
            engine = cluster.hosts[i].engine
            assert engine.view == 1, "eviction never installed"
            assert engine.gaps.open_gaps == 0
            assert all(not s for s in engine._stash)
            assert engine.quiescent
        assert cluster.trace.count("stash-drop") > 0
        verify_run(cluster.trace, n, expect_all_delivered=False).assert_ok()

    def test_survivors_progress_after_cleanup(self):
        cluster, victim, n = self._run(seed=11)
        survivors = [i for i in range(n) if i != victim]
        cluster.run_until_quiescent(max_time=30.0)
        for k, payload in enumerate(["after-0", "after-1"]):
            cluster.submit(survivors[k], payload)
        cluster.run_until_quiescent(max_time=30.0)
        for i in survivors:
            delivered = [m.data for m in cluster.delivered(i)]
            assert "after-0" in delivered and "after-1" in delivered
            # The unserviceable tail stays undelivered — consistently.
            assert "lost" not in delivered and "stashed" not in delivered
