"""Deterministic nemesis: scripted fault injection with safety oracles.

Jepsen-style fault campaigns for the simulated cluster, entirely
deterministic: every fault (crash, restart, partition, duplication, frame
corruption) is scheduled at fixed simulated times and every random draw
comes from the seeded :class:`~repro.sim.rng.RngRegistry`, so a scenario's
entire trace — including its failures — replays bit-for-bit from its seed.

Each scenario runs a faulted cluster to quiescence and then asserts the
**safety invariants** of the crash-recovery extension on top of the usual
happened-before ordering oracle:

* *view agreement* — no two engines ever installed the same view number
  with different member sets, and all final members sit in the same view;
* *prefix-consistent delivery* — per source, any two entities' delivery
  logs are prefixes of one another (survivors: equal), so no delivery gap
  opened across a view change;
* *rejoin coverage* — a restarted member's own deliveries plus its
  recovered snapshot frontier cover everything the survivors delivered, and
  its per-source logs stay strictly increasing across incarnations;
* *post-eviction progress* — broadcasts submitted after an eviction reach
  the acknowledged level (they are delivered) at every surviving member,
  and the survivors' sending logs prune back to empty (the evicted row no
  longer pins the stores).

With ``--record-dir`` (or the ``REPRO_FLIGHT_DIR`` environment variable)
every scenario runs against a bounded :class:`~repro.sim.trace.FlightRecorder`
and a failing scenario dumps its recording as JSONL next to the verdict —
``python -m repro inspect`` summarizes it.

Run from the command line::

    python -m repro.harness.nemesis --seed 7 --verbose
    python -m repro.harness.nemesis --scenario crash-evict-rejoin
    REPRO_FLIGHT_DIR=/tmp/flight python -m repro.harness.nemesis
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cluster import Cluster, build_cluster
from repro.core.config import DisseminationMode, FailureDetectorMode, ProtocolConfig
from repro.core.groups import (
    GroupPartition,
    HierarchicalCluster,
    build_hierarchical_cluster,
)
from repro.net.delay import LinkDelay
from repro.net.loss import (
    BernoulliLoss,
    CompositeLoss,
    CorruptionLoss,
    DuplicatingChannel,
    LinkLoss,
    LossModel,
    PartitionLoss,
    TargetedLoss,
)
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry
from repro.sim.trace import FlightRecorder, TraceLog

MessageId = Tuple[int, int]

#: Timing profile every scenario shares: fast suspicion and eviction so a
#: whole campaign stays inside a CI-friendly simulated (and wall) budget.
SUSPECT_TIMEOUT = 0.02
EVICT_TIMEOUT = 0.05

#: The gray-failure scenarios run *deliberately tight* fixed bounds — tight
#: enough that a plain fixed-timeout detector flaps under timing faults —
#: and show the adaptive phi detector absorbing the same faults.
GRAY_SUSPECT = 0.01
GRAY_EVICT = 0.03

#: Absolute bound on crash-detection latency in the gray scenarios: even
#: with a window freshly trained on degraded timing, a genuinely dead peer
#: must be suspected within a few fixed timeouts.
DETECT_BOUND = 6 * GRAY_SUSPECT


@dataclass
class NemesisOutcome:
    """Verdict of one scenario run."""

    scenario: str
    seed: int
    ok: bool
    detail: str = ""
    #: Scenario-specific observations (view logs, counters) for reports
    #: and for the determinism property test.
    observations: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        flag = "ok " if self.ok else "FAIL"
        return f"[{flag}] {self.scenario} (seed {self.seed}) {self.detail}"


class InvariantViolation(AssertionError):
    """A nemesis safety invariant did not hold."""


# ----------------------------------------------------------------------
# Safety invariants
# ----------------------------------------------------------------------
def check_view_agreement(engines: Sequence[Any], live: Sequence[int]) -> None:
    """Same view sequence everywhere.

    No two engines may have installed the same view number with different
    member sets (that would be a split brain), and every live engine must
    have converged to the same final view.
    """
    members_of: Dict[int, Tuple[int, ...]] = {}
    for engine in engines:
        for view_id, members in engine.view_log:
            seen = members_of.setdefault(view_id, members)
            if seen != members:
                raise InvariantViolation(
                    f"view {view_id} installed with different member sets: "
                    f"{seen} vs {members} (E{engine.index})"
                )
    finals = {(engines[i].view, tuple(sorted(engines[i].members))) for i in live}
    if len(finals) != 1:
        raise InvariantViolation(f"live members disagree on the final view: {finals}")


def per_source_logs(deliveries: Sequence[Any], n: int) -> List[List[int]]:
    """Split one entity's delivery list into per-source seq sequences."""
    logs: List[List[int]] = [[] for _ in range(n)]
    for message in deliveries:
        logs[message.src].append(message.seq)
    return logs


def check_prefix_consistency(cluster: Cluster, live: Sequence[int]) -> None:
    """Per source, live entities' delivery logs are prefixes of one another.

    This is the no-delivery-gap invariant: a view change may only *truncate*
    a slower member's progress, never let two members deliver diverging
    sequences from the same source.
    """
    n = cluster.n
    split = {i: per_source_logs(cluster.delivered(i), n) for i in live}
    for src in range(n):
        for i in live:
            for j in live:
                if i >= j:
                    continue
                a, b = split[i][src], split[j][src]
                short, long = (a, b) if len(a) <= len(b) else (b, a)
                if long[: len(short)] != short:
                    raise InvariantViolation(
                        f"delivery divergence for source E{src}: "
                        f"E{i} saw {a[:10]}..., E{j} saw {b[:10]}..."
                    )


def check_rejoin_coverage(cluster: Cluster, rejoined: int, survivors: Sequence[int]) -> None:
    """The rejoined member missed nothing: own deliveries + snapshot frontier
    cover every survivor delivery, and its logs stay strictly increasing
    across the crash (no duplicate or regressed delivery between
    incarnations)."""
    n = cluster.n
    own = per_source_logs(cluster.delivered(rejoined), n)
    for src in range(n):
        seqs = own[src]
        if any(b <= a for a, b in zip(seqs, seqs[1:])):
            raise InvariantViolation(
                f"rejoined E{rejoined} delivered non-increasing seqs from "
                f"E{src}: {seqs}"
            )
    reference = {(m.src, m.seq) for m in cluster.delivered(survivors[0])}
    missing = reference - delivered_covers(cluster, [rejoined], reference)[rejoined]
    if missing:
        raise InvariantViolation(
            f"rejoined E{rejoined} covers neither by delivery nor by "
            f"snapshot frontier: {sorted(missing)[:5]}"
        )


def check_post_eviction_ack(cluster: Cluster, payloads: Sequence[Any], live: Sequence[int]) -> None:
    """Broadcasts submitted after the eviction reached every live member.

    Delivery at the default delivery level *is* the acknowledged level, so
    presence in every live delivery log proves the PACK→ACK ladder runs
    with the shrunken membership.
    """
    for i in live:
        delivered = {message.data for message in cluster.delivered(i)}
        lost = [p for p in payloads if p not in delivered]
        if lost:
            raise InvariantViolation(
                f"post-eviction broadcasts never reached ACK at E{i}: {lost}"
            )


def check_prune_resumption(cluster: Cluster, live: Sequence[int]) -> None:
    """After an eviction, survivors' sending logs prune back to empty —
    the dead member's frozen expectations no longer pin the stores."""
    for i in live:
        retained = cluster.hosts[i].engine.sl.retained
        if retained:
            raise InvariantViolation(
                f"E{i} still retains {retained} sent PDUs after quiescence "
                "(eviction failed to unpin the prune floor)"
            )


def delivered_covers(cluster: Cluster, entities: Sequence[int], ids: Optional[set] = None) -> dict:
    """Per entity, the ids out of ``ids`` it accounts for: delivered, or
    below the frontier a rejoined incarnation recovered out of band
    (``seq < recovered_frontier[src]``).  ``ids`` defaults to every id one
    of ``entities`` delivered: a frontier also spans null seqs, which
    nobody delivers."""
    own = {i: {(m.src, m.seq) for m in cluster.delivered(i)} for i in entities}
    ids = set().union(*own.values()) if ids is None else ids
    covers = {}
    for i in entities:
        f = cluster.hosts[i].engine.recovered_frontier
        covers[i] = {x for x in ids if x in own[i] or f and x[1] < f[x[0]]}
    return covers


def check_convergence(cluster: Cluster, live: Sequence[int]) -> None:
    """The convergence oracle: all live entities account for the *same* set
    of message ids.  Together with prefix consistency this means identical
    delivered prefixes — after the faults stop, nobody is left stale."""
    covers = delivered_covers(cluster, live)
    reference = covers[live[0]]
    for i in live[1:]:
        if covers[i] != reference:
            diff = sorted(covers[i] ^ reference)[:8]
            raise InvariantViolation(
                f"live entities did not converge: E{live[0]} and E{i} "
                f"disagree on {len(covers[i] ^ reference)} ids, e.g. {diff}"
            )


def _converged(cluster: Cluster, live: Sequence[int], expected: set) -> bool:
    covers = list(delivered_covers(cluster, live).values())
    if any(c != covers[0] for c in covers[1:]):
        return False
    if expected:
        for i in live:
            if not expected <= {m.data for m in cluster.delivered(i)}:
                return False
    return True


def run_until_converged(
    cluster: Cluster,
    live: Sequence[int],
    expected: Sequence[Any] = (),
    max_time: float = 30.0,
    chunk: float = 0.02,
) -> float:
    """Step the sim until the convergence oracle holds; return the elapsed
    simulated time (the scenario's *time-to-converge* once faults stop).

    ``expected`` payloads must additionally appear in every live entity's
    delivery log, so a transient agreement on a shared stale prefix is not
    mistaken for convergence while submissions are still outstanding.
    """
    start = cluster.sim.now
    want = set(expected)
    while True:
        if _converged(cluster, live, want):
            return cluster.sim.now - start
        if cluster.sim.now - start >= max_time:
            counts = {
                i: len(c) for i, c in delivered_covers(cluster, live).items()
            }
            raise InvariantViolation(
                f"no convergence within {max_time} simulated seconds of the "
                f"last fault (covered ids per live entity: {counts})"
            )
        cluster.run_for(chunk)


def _engine_totals(cluster: Cluster) -> Dict[str, int]:
    """Cluster-wide sums of the per-engine counters."""
    totals: Dict[str, int] = {}
    for member in cluster.counters():
        for key, value in member["engine"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _observations(cluster: Cluster, live: Sequence[int]) -> Dict[str, Any]:
    """Determinism fingerprint: view logs + per-entity delivery ids."""
    return {
        "view_logs": {
            i: list(cluster.hosts[i].engine.view_log) for i in range(cluster.n)
        },
        "deliveries": {
            i: [(m.src, m.seq) for m in cluster.delivered(i)] for i in range(cluster.n)
        },
        "live": list(live),
    }


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _cluster(
    n: int,
    seed: int,
    loss: Optional[LossModel] = None,
    duplication: Optional[DuplicatingChannel] = None,
    evict: bool = True,
    trace: Optional[TraceLog] = None,
) -> Cluster:
    config = ProtocolConfig(
        suspect_timeout=SUSPECT_TIMEOUT,
        evict_timeout=EVICT_TIMEOUT if evict else None,
    )
    return build_cluster(
        n,
        config=config,
        trace=trace,
        loss=loss,
        duplication=duplication,
        rngs=RngRegistry(seed),
    )


def _repair_cluster(
    n: int,
    seed: int,
    loss: Optional[LossModel] = None,
    trace: Optional[TraceLog] = None,
) -> Cluster:
    """A cluster with the anti-entropy repair layer switched on.

    A fast digest cadence and a low delta threshold so the staleness the
    scenarios inject is healed by the repair tiers, not merely by luck of
    the ordinary RET machinery, inside the CI time budget.
    """
    config = ProtocolConfig(
        suspect_timeout=SUSPECT_TIMEOUT,
        evict_timeout=EVICT_TIMEOUT,
        anti_entropy_interval=0.01,
        delta_sync_threshold=8,
    )
    return build_cluster(
        n, config=config, trace=trace, loss=loss, rngs=RngRegistry(seed),
    )


def scenario_crash_evict_rejoin(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Crash → agreed eviction → post-eviction traffic → rejoin → re-admit."""
    name = "crash-evict-rejoin"
    n, victim = 4, 2
    cluster = _cluster(n, seed, loss=BernoulliLoss(0.05, protect_control=True), trace=trace)
    survivors = [i for i in range(n) if i != victim]
    for k in range(6):
        cluster.submit(k % n, f"pre-{k}")
    cluster.run_for(0.01)
    cluster.crash(victim)
    # Suspicion alone keeps the engines quiescent, so drive simulated time
    # past suspect + evict timeouts (plus the agreement round trips) rather
    # than waiting for quiescence here.
    cluster.run_for(10 * (SUSPECT_TIMEOUT + EVICT_TIMEOUT))
    views = {cluster.hosts[i].engine.view for i in survivors}
    if views != {1}:
        return NemesisOutcome(name, seed, False, f"no eviction view: {views}")
    post = [f"post-{k}" for k in range(4)]
    for k, payload in enumerate(post):
        cluster.submit(survivors[k % len(survivors)], payload)
    cluster.run_until_quiescent(max_time=60.0)
    cluster.restart(victim)
    cluster.run_until_quiescent(max_time=60.0)
    rejoined = [f"rejoined-{k}" for k in range(2)]
    cluster.submit(victim, rejoined[0])
    cluster.submit(survivors[0], rejoined[1])
    cluster.run_until_quiescent(max_time=60.0)
    live = list(range(n))
    try:
        verify_run(cluster.trace, n, expect_all_delivered=False).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, survivors)
        check_rejoin_coverage(cluster, victim, survivors)
        # The victim recovers the post-eviction broadcasts via the state
        # snapshot, not its own delivery log — judge the survivors on
        # those, and everyone on the post-rejoin round.
        check_post_eviction_ack(cluster, post, survivors)
        check_post_eviction_ack(cluster, rejoined, live)
        check_prune_resumption(cluster, live)
        check_convergence(cluster, live)
        if cluster.hosts[victim].engine.view < 2:
            raise InvariantViolation("victim never re-admitted")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    return NemesisOutcome(name, seed, True, "", _observations(cluster, live))


def scenario_partition_heal(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Symmetric split (no quorum on either side) healed before eviction.

    The quorum guard must hold the membership steady — a 2/2 split of a
    4-cluster may suspect across the boundary but can never install a
    shrunken view — and after the heal both halves reconcile.
    """
    name = "partition-heal"
    n = 4
    partition = PartitionLoss()
    cluster = _cluster(n, seed, loss=partition, evict=True, trace=trace)
    cluster.sim.schedule(0.005, lambda: partition.split({0, 1}, {2, 3}))
    cluster.sim.schedule(0.2, partition.heal)
    for k in range(4):
        cluster.submit(k % n, f"pre-{k}")
    cluster.run_for(0.1)  # mid-partition traffic on both sides
    cluster.submit(0, "left")
    cluster.submit(2, "right")
    cluster.run_for(0.15)  # cross the heal
    cluster.run_until_quiescent(max_time=60.0)
    live = list(range(n))
    try:
        verify_run(cluster.trace, n, expect_all_delivered=False).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, live)
        if any(engine.view != 0 for engine in cluster.engines):
            raise InvariantViolation(
                "a minority partition installed a view (split brain): "
                f"{[e.view for e in cluster.engines]}"
            )
        check_post_eviction_ack(cluster, ["left", "right"], live)
        check_convergence(cluster, live)
        if partition.partitioned_drops == 0:
            raise InvariantViolation("partition never dropped anything")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    return NemesisOutcome(name, seed, True, "", _observations(cluster, live))


def scenario_duplication(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """A duplicating medium: bounded extra copies of every fifth PDU.

    The acceptance condition must shed every duplicate — the ordering
    oracle and exactly-once delivery do the judging.
    """
    name = "duplication"
    n = 3
    duplication = DuplicatingChannel(rate=0.2, max_extra=2)
    cluster = _cluster(n, seed, duplication=duplication, evict=False, trace=trace)
    for k in range(9):
        cluster.submit(k % n, f"dup-{k}")
    cluster.run_until_quiescent(max_time=60.0)
    live = list(range(n))
    try:
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        if duplication.duplicated == 0:
            raise InvariantViolation("duplication channel never fired")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["duplicated"] = duplication.duplicated
    return outcome


def scenario_corruption(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """A corrupting medium: random single-byte flips on encoded frames.

    Every flip must be caught by the codec's CRC trailer (zero undetected
    corruptions) and the protocol must recover the dropped frames like any
    other loss.
    """
    name = "corruption"
    n = 3
    corruption = CorruptionLoss(rate=0.1)
    cluster = _cluster(n, seed, loss=corruption, evict=False, trace=trace)
    for k in range(9):
        cluster.submit(k % n, f"crc-{k}")
    cluster.run_until_quiescent(max_time=60.0)
    live = list(range(n))
    try:
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_convergence(cluster, live)
        if corruption.undetected_corruptions:
            raise InvariantViolation(
                f"{corruption.undetected_corruptions} corrupted frames "
                "slipped past the checksum"
            )
        if corruption.corrupt_frames == 0:
            raise InvariantViolation("corruption fault never fired")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["corrupt_frames"] = corruption.corrupt_frames
    return outcome


def scenario_combo(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Everything at once: loss + duplication + a crash with eviction and
    rejoin.  The kitchen-sink regression for the whole recovery stack."""
    name = "combo"
    n, victim = 5, 4
    loss = CompositeLoss([BernoulliLoss(0.05, protect_control=True)])
    duplication = DuplicatingChannel(rate=0.1, max_extra=1)
    cluster = _cluster(n, seed, loss=loss, duplication=duplication, trace=trace)
    survivors = [i for i in range(n) if i != victim]
    for k in range(10):
        cluster.submit(k % n, f"pre-{k}")
    cluster.run_for(0.015)
    cluster.crash(victim)
    cluster.run_for(10 * (SUSPECT_TIMEOUT + EVICT_TIMEOUT))
    if {cluster.hosts[i].engine.view for i in survivors} != {1}:
        return NemesisOutcome(name, seed, False, "no eviction under combo faults")
    post = [f"post-{k}" for k in range(5)]
    for k, payload in enumerate(post):
        cluster.submit(survivors[k % len(survivors)], payload)
    cluster.run_until_quiescent(max_time=120.0)
    cluster.restart(victim)
    cluster.run_until_quiescent(max_time=120.0)
    live = list(range(n))
    try:
        verify_run(cluster.trace, n, expect_all_delivered=False).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, survivors)
        check_rejoin_coverage(cluster, victim, survivors)
        check_post_eviction_ack(cluster, post, survivors)
        check_convergence(cluster, live)
        if cluster.hosts[victim].engine.joining:
            raise InvariantViolation("victim still joining at quiescence")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    return NemesisOutcome(name, seed, True, "", _observations(cluster, live))


def scenario_batching(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Frame batching under loss and duplication.

    A batching cluster (several data PDUs per frame, one confirmation
    header for all of them) faces a dropping, duplicating medium.  Losing
    one frame loses *all* the PDUs it carried at once — the burstiest loss
    the RET machinery ever sees — and duplicated frames replay whole
    batches.  The ordering oracle judges causal safety; the scenario
    additionally proves the batching layer actually engaged: a frame is
    what one pump releases, so every member submits three windows' worth at
    once and the reopening window lets several out together on every seed.
    """
    name = "batching"
    n = 4
    config = ProtocolConfig(
        suspect_timeout=SUSPECT_TIMEOUT,
        batch_max_pdus=4,
    )
    duplication = DuplicatingChannel(rate=0.15, max_extra=1)
    cluster = build_cluster(
        n,
        config=config,
        trace=trace,
        loss=BernoulliLoss(0.1, protect_control=True),
        duplication=duplication,
        rngs=RngRegistry(seed),
    )
    # Bursts deeper than the flow window: the first W leave one by one,
    # the backlog leaves in multi-PDU frames as confirmations reopen it.
    for k in range(n * 3 * config.window):
        cluster.submit(k % n, f"batch-{k}")
    cluster.run_until_quiescent(max_time=60.0)
    live = list(range(n))
    stats = cluster.network.stats
    try:
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        if stats.batch_frames == 0:
            raise InvariantViolation("batching never produced a frame")
        if stats.batched_data_pdus <= stats.batch_frames:
            raise InvariantViolation(
                "no frame ever carried more than one PDU "
                f"({stats.batched_data_pdus} PDUs in {stats.batch_frames} frames)"
            )
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["batch_frames"] = stats.batch_frames
    outcome.observations["batched_data_pdus"] = stats.batched_data_pdus
    return outcome


def scenario_partition_stale(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Long asymmetric partition: one member sends but receives nothing.

    The nastiest staleness case: the deaf member keeps being heard, so it
    is never suspected and never evicted, while its knowledge silently
    freezes and stalls cluster-wide delivery.  After the heal, the repair
    tiers (digests → pulls → delta sync) must catch it up — without any
    full state snapshot — and the convergence oracle bounds how long that
    takes.
    """
    name = "partition-stale"
    n, deaf = 5, 4
    link = LinkLoss()
    cluster = _repair_cluster(n, seed, loss=link, trace=trace)
    cluster.sim.schedule(
        0.005, lambda: link.block_towards(deaf, set(range(n)) - {deaf}),
    )
    heal_at = 0.3
    cluster.sim.schedule(heal_at, link.heal)
    payloads = []
    for k in range(20):
        payload = f"stale-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.01 + 0.012 * k,
            lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(heal_at + 0.005)
    live = list(range(n))
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        if any(engine.view != 0 for engine in cluster.engines):
            raise InvariantViolation(
                "the asymmetric partition caused an eviction — the deaf "
                f"member was heard the whole time: {[e.view for e in cluster.engines]}"
            )
        if link.blocked_drops == 0:
            raise InvariantViolation("the asymmetric partition never dropped anything")
        totals = _engine_totals(cluster)
        if totals.get("digests_sent", 0) == 0:
            raise InvariantViolation("repair layer never sent a digest")
        if totals.get("pull_pdus_served", 0) + totals.get("delta_pdus_sent", 0) == 0:
            raise InvariantViolation("staleness healed without any pull/delta repair")
        if cluster.trace.count("state-transfer"):
            raise InvariantViolation(
                "healing the partition fell back to a full state snapshot"
            )
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["repair"] = {
        k: v for k, v in _engine_totals(cluster).items()
        if k.startswith(("digest", "pull", "delta", "repair"))
    }
    return outcome


def scenario_partition_flapping(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """A flapping partition: repeated short splits along changing cuts.

    Each flap is shorter than the eviction timeout, so the membership must
    hold steady while every flap strands different knowledge on each side;
    the repair layer (and the RET machinery it backs up) must reconcile
    all of it once the flapping stops.
    """
    name = "partition-flapping"
    n = 5
    partition = PartitionLoss()
    cluster = _repair_cluster(n, seed, loss=partition, trace=trace)
    cuts = [
        ({0, 1}, {2, 3, 4}),
        ({0, 3, 4}, {1, 2}),
        ({0, 2, 4}, {1, 3}),
    ]
    t = 0.01
    for cut in cuts * 2:
        cluster.sim.schedule(t, lambda c=cut: partition.split(*c))
        cluster.sim.schedule(t + 0.025, partition.heal)
        t += 0.05
    payloads = []
    for k in range(18):
        payload = f"flap-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.005 + 0.016 * k,
            lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(t)
    live = list(range(n))
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        if any(engine.view != 0 for engine in cluster.engines):
            raise InvariantViolation(
                "a sub-eviction-timeout flap still shrank the membership: "
                f"{[e.view for e in cluster.engines]}"
            )
        if partition.partitioned_drops == 0:
            raise InvariantViolation("the flapping partition never dropped anything")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["converge_time"] = converge_time
    return outcome


def scenario_loss_storm(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """A loss storm aimed at one slow receiver — control PDUs included.

    70% of everything *towards* the victim drops while the storm lasts, so
    RETs go unanswered (answers drop too) and gaps must escalate through
    the repair tiers.  The victim keeps transmitting, so it is never
    suspected; once the storm stops, convergence must follow quickly.
    """
    name = "loss-storm"
    n, victim = 5, 3
    storm = TargetedLoss({victim}, rate=0.7)
    cluster = _repair_cluster(n, seed, loss=storm, trace=trace)

    def stop_storm() -> None:
        storm.rate = 0.0

    cluster.sim.schedule(0.25, stop_storm)
    payloads = []
    for k in range(20):
        payload = f"storm-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.005 + 0.012 * k,
            lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.26)
    live = list(range(n))
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        if any(engine.view != 0 for engine in cluster.engines):
            raise InvariantViolation(
                "the loss storm caused an eviction — the victim was never "
                f"silent towards the coordinator: {[e.view for e in cluster.engines]}"
            )
        if storm.storm_drops == 0:
            raise InvariantViolation("the loss storm never dropped anything")
        if _engine_totals(cluster).get("digests_sent", 0) == 0:
            raise InvariantViolation("repair layer never sent a digest")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["storm_drops"] = storm.storm_drops
    outcome.observations["repair"] = {
        k: v for k, v in _engine_totals(cluster).items()
        if k.startswith(("digest", "pull", "delta", "repair"))
    }
    return outcome


def _topology_cluster(
    n: int,
    seed: int,
    mode: DisseminationMode,
    loss: Optional[LossModel] = None,
    trace: Optional[TraceLog] = None,
) -> Cluster:
    """A cluster disseminating over a relay topology, repair tiers on.

    A severed relay route loses every downstream copy of a frame at once —
    far burstier than uniform loss — so these scenarios lean on the
    anti-entropy path (digests → pulls → delta sync) as the completion
    mechanism, exactly as docs/PROTOCOL.md §16 prescribes for gossip.
    """
    config = ProtocolConfig(
        suspect_timeout=SUSPECT_TIMEOUT,
        evict_timeout=EVICT_TIMEOUT,
        dissemination=mode,
        gossip_fanout=2,
        gossip_seed=seed,
        anti_entropy_interval=0.01,
        delta_sync_threshold=8,
    )
    return build_cluster(
        n, config=config, trace=trace, loss=loss, rngs=RngRegistry(seed),
    )


def scenario_ring_partition(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Ring dissemination across a symmetric split.

    The ring is the most fragile route: cutting a 4-cluster in half severs
    the relay chain in two places, so every in-flight frame strands on its
    origin's side.  The quorum guard must hold the membership steady (a 2/2
    split has no majority), and after the heal the RET machinery and repair
    tiers must ferry the stranded halves across — forwarding alone cannot,
    because relays are never retransmitted.
    """
    name = "ring-partition"
    n = 4
    partition = PartitionLoss()
    cluster = _topology_cluster(
        n, seed, DisseminationMode.RING, loss=partition, trace=trace,
    )
    cluster.sim.schedule(0.005, lambda: partition.split({0, 1}, {2, 3}))
    cluster.sim.schedule(0.2, partition.heal)
    payloads = []
    for k in range(16):
        payload = f"ring-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.01 + 0.012 * k,
            lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.21)
    live = list(range(n))
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        if any(engine.view != 0 for engine in cluster.engines):
            raise InvariantViolation(
                "a no-quorum split still shrank the membership: "
                f"{[e.view for e in cluster.engines]}"
            )
        if partition.partitioned_drops == 0:
            raise InvariantViolation("partition never dropped anything")
        totals = _engine_totals(cluster)
        if totals.get("relays_sent", 0) == 0:
            raise InvariantViolation("ring mode never relayed a frame")
        if totals.get("relay_forwards", 0) == 0:
            raise InvariantViolation("no relay was ever forwarded around the ring")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["relay"] = {
        k: v for k, v in _engine_totals(cluster).items()
        if k.startswith("relay")
    }
    return outcome


def scenario_gossip_loss_storm(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Gossip dissemination under a loss storm aimed at one receiver.

    70% of everything towards the victim drops — including the unicast
    relay pushes that are gossip's only data path to it — while the victim
    keeps transmitting, so it is never suspected.  The epidemic keeps the
    other members current; the victim's catch-up must come from the
    anti-entropy tier (digest → pull → delta), and once the storm stops the
    convergence oracle bounds how long that takes.
    """
    name = "gossip-loss-storm"
    n, victim = 5, 3
    storm = TargetedLoss({victim}, rate=0.7)
    cluster = _topology_cluster(
        n, seed, DisseminationMode.GOSSIP, loss=storm, trace=trace,
    )

    def stop_storm() -> None:
        storm.rate = 0.0

    cluster.sim.schedule(0.25, stop_storm)
    payloads = []
    for k in range(20):
        payload = f"gossip-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.005 + 0.012 * k,
            lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.26)
    live = list(range(n))
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        if any(engine.view != 0 for engine in cluster.engines):
            raise InvariantViolation(
                "the loss storm caused an eviction — the victim was never "
                f"silent: {[e.view for e in cluster.engines]}"
            )
        if storm.storm_drops == 0:
            raise InvariantViolation("the loss storm never dropped anything")
        totals = _engine_totals(cluster)
        if totals.get("relays_sent", 0) == 0:
            raise InvariantViolation("gossip mode never pushed a relay")
        if totals.get("digests_sent", 0) == 0:
            raise InvariantViolation("repair layer never sent a digest")
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["storm_drops"] = storm.storm_drops
    outcome.observations["relay"] = {
        k: v for k, v in _engine_totals(cluster).items()
        if k.startswith("relay")
    }
    return outcome


# ----------------------------------------------------------------------
# Gray failures: the node/link is degraded, not dead (docs/PROTOCOL.md §17)
# ----------------------------------------------------------------------
def _gray_cluster(
    n: int,
    seed: int,
    adaptive: bool = True,
    delay_model: Optional[LinkDelay] = None,
    trace: Optional[TraceLog] = None,
) -> Cluster:
    """A cluster on the deliberately tight gray-failure timing profile.

    ``adaptive=True`` runs the phi-accrual detector on top of the *same*
    timeouts (so adaptive and fixed runs differ in nothing but the
    detector); ``adaptive=False`` is the fixed-timeout contrast baseline.
    """
    config = ProtocolConfig(
        suspect_timeout=GRAY_SUSPECT,
        evict_timeout=GRAY_EVICT,
        **(
            dict(
                failure_detector=FailureDetectorMode.PHI,
                detector_window=16,
                resuspect_cooldown=0.05,
            )
            if adaptive
            else {}
        ),
    )
    return build_cluster(
        n, config=config, trace=trace, rngs=RngRegistry(seed),
        delay_model=delay_model,
    )


def _check_no_eviction(cluster: Cluster, live: Sequence[int]) -> None:
    """The no-spurious-eviction oracle: a degraded-but-live member must
    never be voted out, so every live engine is still in view 0 with
    nobody evicted."""
    views = [cluster.hosts[i].engine.view for i in live]
    if any(view != 0 for view in views):
        raise InvariantViolation(
            f"gray failure caused an eviction of a live member: views {views}"
        )
    evicted = {j for i in live for j in cluster.hosts[i].engine.evicted}
    if evicted:
        raise InvariantViolation(f"live members evicted: {sorted(evicted)}")


def _crash_and_measure(cluster: Cluster, victim: int, live: Sequence[int]) -> float:
    """Crash ``victim`` now and return the simulated time until some live
    engine suspects it — the bounded-detection-latency oracle.  The gray
    phase may have widened the victim's inter-arrival windows; a real
    crash must still be flagged within :data:`DETECT_BOUND`."""
    start = cluster.sim.now
    cluster.crash(victim)
    while cluster.sim.now - start < DETECT_BOUND:
        cluster.run_for(0.001)
        if any(victim in cluster.hosts[i].engine.suspected for i in live):
            return cluster.sim.now - start
    raise InvariantViolation(
        f"crash of E{victim} undetected after {DETECT_BOUND}s of silence"
    )


def _check_crash_evicted(cluster: Cluster, survivors: Sequence[int]) -> None:
    """After the crash phase, drive past the eviction budget and insist the
    survivors agreed on exactly one eviction view."""
    cluster.run_for(10 * (GRAY_SUSPECT + GRAY_EVICT))
    views = {cluster.hosts[i].engine.view for i in survivors}
    if views != {1}:
        raise InvariantViolation(f"no eviction view after a real crash: {views}")


def _phi_observations(cluster: Cluster) -> Dict[str, int]:
    return {
        key: value
        for key, value in _engine_totals(cluster).items()
        if key.startswith("phi_")
    }


def scenario_slow_node(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """CPU-starved member: 30x service times for 0.2 simulated seconds.

    The victim's tick loop still heartbeats on time while its *processing*
    lags far behind — acks go stale and its own view of the peers is
    delayed by queueing (so the victim itself may transiently suspect
    others; the minority quorum guard keeps that harmless).  Nobody may
    evict the slow-but-live member; once the victim genuinely crashes,
    detection latency is bounded.
    """
    name = "slow-node"
    n, victim = 5, 3
    cluster = _gray_cluster(n, seed, trace=trace)
    cluster.sim.schedule(0.05, lambda: cluster.set_cpu_scale(victim, 30.0))
    cluster.sim.schedule(0.25, lambda: cluster.set_cpu_scale(victim, 1.0))
    payloads = []
    for k in range(24):
        payload = f"slow-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.005 + 0.009 * k,
            lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.30)
    live = list(range(n))
    survivors = [i for i in live if i != victim]
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        _check_no_eviction(cluster, live)
        busy = [cluster.hosts[i].busy_time for i in range(n)]
        if busy[victim] <= 2 * max(b for i, b in enumerate(busy) if i != victim):
            raise InvariantViolation("cpu scaling never actually starved the victim")
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        detect_latency = _crash_and_measure(cluster, victim, survivors)
        _check_crash_evicted(cluster, survivors)
        cluster.run_until_quiescent(max_time=60.0)
        check_view_agreement(cluster.engines, survivors)
        check_prefix_consistency(cluster, survivors)
        check_convergence(cluster, survivors)
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, survivors))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["detect_latency"] = detect_latency
    outcome.observations["detector"] = _phi_observations(cluster)
    return outcome


#: Outbound delay spikes for the jittery-link scenario: three training
#: spikes widen the adaptive window, then a large spike opens a silence
#: that exceeds the fixed suspect + evict budget (10ms + 30ms < 45ms).
JITTER_SPIKES = (
    (0.05, 0.012, 0.012),
    (0.09, 0.018, 0.015),
    (0.13, 0.022, 0.020),
    (0.17, 0.045, 0.045),
)


def _schedule_spikes(cluster: Cluster, link: LinkDelay, victim: int, n: int) -> None:
    peers = [j for j in range(n) if j != victim]
    for start, extra, duration in JITTER_SPIKES:
        cluster.sim.schedule(start, lambda e=extra: link.set_out(victim, peers, e))
        cluster.sim.schedule(
            start + duration, lambda: link.set_out(victim, peers, 0.0),
        )


def scenario_jittery_link(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Variable outbound delay, no loss — the acceptance scenario.

    The victim's outbound links suffer scripted delay spikes; the FIFO
    clamp turns each spike into a silent window at every receiver.  The
    adaptive run must ride out all of them with **zero** evictions, while
    a fixed-timeout contrast cluster under the *identical* fault schedule
    wrongly evicts the live victim — the flap the phi bound absorbs:
    trained on the earlier spikes, the adaptive detector crosses
    ``phi_suspect`` late enough that the eviction ripeness clock never
    expires before the victim is heard again.
    """
    name = "jittery-link"
    n, victim = 8, 6
    link = LinkDelay()
    cluster = _gray_cluster(n, seed, adaptive=True, delay_model=link, trace=trace)
    _schedule_spikes(cluster, link, victim, n)
    payloads = []
    for k in range(26):
        payload = f"jitter-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.004 + 0.008 * k,
            lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.30)
    live = list(range(n))
    survivors = [i for i in live if i != victim]
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        _check_no_eviction(cluster, live)
        if link.delayed_copies == 0:
            raise InvariantViolation("the delay spikes never hit a copy")
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_view_agreement(cluster.engines, live)
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)

        # Contrast baseline: identical spikes and traffic, fixed timeouts.
        fixed_link = LinkDelay()
        fixed = _gray_cluster(n, seed, adaptive=False, delay_model=fixed_link)
        _schedule_spikes(fixed, fixed_link, victim, n)
        for k in range(26):
            fixed.sim.schedule(
                0.004 + 0.008 * k,
                lambda s=k % n, p=f"fixed-{k}": fixed.submit(s, p),
            )
        fixed.run_for(0.30)
        flapped = any(
            victim not in members
            for i in survivors
            for _view, members in fixed.hosts[i].engine.view_log
        )
        if not flapped:
            raise InvariantViolation(
                "fixed-timeout baseline never evicted under the same spikes — "
                "the scenario lost its discriminating power"
            )

        detect_latency = _crash_and_measure(cluster, victim, survivors)
        _check_crash_evicted(cluster, survivors)
        cluster.run_until_quiescent(max_time=60.0)
        check_view_agreement(cluster.engines, survivors)
        check_prefix_consistency(cluster, survivors)
        check_convergence(cluster, survivors)
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, survivors))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["detect_latency"] = detect_latency
    outcome.observations["delayed_copies"] = link.delayed_copies
    outcome.observations["fixed_baseline_flapped"] = True
    outcome.observations["detector"] = _phi_observations(cluster)
    return outcome


def scenario_asymmetric_link(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """One-direction slowness: the victim's outbound delay steps up while
    its inbound stays pristine.

    Constant extra delay shifts the victim's traffic without changing its
    cadence, so only the step *transitions* open silences — all small
    enough that the adaptive detector holds (transient degradation at
    worst).  No evictions while degraded; bounded detection once crashed.
    """
    name = "asymmetric-link"
    n, victim = 5, 4
    link = LinkDelay()
    cluster = _gray_cluster(n, seed, delay_model=link, trace=trace)
    peers = [j for j in range(n) if j != victim]
    for t, extra in ((0.05, 0.008), (0.10, 0.016), (0.15, 0.028)):
        cluster.sim.schedule(t, lambda e=extra: link.set_out(victim, peers, e))
    cluster.sim.schedule(0.22, link.clear)
    payloads = []
    for k in range(20):
        payload = f"asym-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.005 + 0.008 * k,
            lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.30)
    live = list(range(n))
    survivors = [i for i in live if i != victim]
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        _check_no_eviction(cluster, live)
        if link.delayed_copies == 0:
            raise InvariantViolation("the asymmetric delay never hit a copy")
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        detect_latency = _crash_and_measure(cluster, victim, survivors)
        _check_crash_evicted(cluster, survivors)
        cluster.run_until_quiescent(max_time=60.0)
        check_view_agreement(cluster.engines, survivors)
        check_prefix_consistency(cluster, survivors)
        check_convergence(cluster, survivors)
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, survivors))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["detect_latency"] = detect_latency
    outcome.observations["delayed_copies"] = link.delayed_copies
    outcome.observations["detector"] = _phi_observations(cluster)
    return outcome


def scenario_pause_resume(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """GC-pause model: the victim's host freezes twice, then resumes.

    The first 30ms pause trips the detector (suspicion is fine — it is
    revoked the moment the victim is heard) but must not reach eviction:
    the adaptive crossing comes late enough that the ripeness clock
    outlives the pause.  The second pause lands inside the re-suspicion
    cooldown and must be absorbed *entirely* — no suspicion at all,
    observable as a non-zero ``phi_cooldown_blocks`` counter.  The resumed
    victim drains its arrival backlog in a burst; the detector's absolute
    silence floor keeps the burst-poisoned windows from making the victim
    suspect its healthy peers at normal cadence.
    """
    name = "pause-resume"
    n, victim = 5, 2
    cluster = _gray_cluster(n, seed, trace=trace)
    cluster.sim.schedule(0.060, lambda: cluster.pause(victim))
    cluster.sim.schedule(0.090, lambda: cluster.resume(victim))
    cluster.sim.schedule(0.105, lambda: cluster.pause(victim))
    cluster.sim.schedule(0.135, lambda: cluster.resume(victim))
    sources = [i for i in range(n) if i != victim]
    payloads = []
    for k in range(20):
        payload = f"pause-{k}"
        payloads.append(payload)
        cluster.sim.schedule(
            0.005 + 0.007 * k,
            lambda s=sources[k % len(sources)], p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.20)
    live = list(range(n))
    survivors = [i for i in live if i != victim]
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        _check_no_eviction(cluster, live)
        totals = _engine_totals(cluster)
        if totals.get("phi_suspects", 0) == 0:
            raise InvariantViolation("the first pause never tripped the detector")
        if totals.get("phi_cooldown_blocks", 0) == 0:
            raise InvariantViolation(
                "the second pause never exercised the re-suspicion cooldown"
            )
        cluster.run_until_quiescent(max_time=60.0)
        verify_run(cluster.trace, n, expect_all_delivered=True).assert_ok()
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        detect_latency = _crash_and_measure(cluster, victim, survivors)
        _check_crash_evicted(cluster, survivors)
        cluster.run_until_quiescent(max_time=60.0)
        check_view_agreement(cluster.engines, survivors)
        check_prefix_consistency(cluster, survivors)
        check_convergence(cluster, survivors)
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, survivors))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["detect_latency"] = detect_latency
    outcome.observations["detector"] = _phi_observations(cluster)
    return outcome


# ----------------------------------------------------------------------
# Hierarchy scenarios (docs/PROTOCOL.md §18)
# ----------------------------------------------------------------------
def _hierarchy_cluster(
    n: int,
    group_size: int,
    seed: int,
    backbone_loss: Optional[LossModel] = None,
) -> HierarchicalCluster:
    """A sharded cluster with the campaign's fast fault timings.

    The per-group traces live inside the returned cluster, so the flight
    recorder hook of the flat scenarios does not apply here; a failing
    hierarchy scenario is replayed from its seed instead.
    """
    config = ProtocolConfig(
        suspect_timeout=SUSPECT_TIMEOUT,
        evict_timeout=EVICT_TIMEOUT,
        group_size=group_size,
        bridge_tick_interval=0.01,
    )
    return build_hierarchical_cluster(
        n, config=config, rngs=RngRegistry(seed), backbone_loss=backbone_loss,
    )


def check_intergroup_gaps(cluster: HierarchicalCluster) -> None:
    """Zero orphaned inter-group sequence gaps.

    Every bridge's counter for every origin stream must equal the origin
    bridge's own production counter — a lower value is a relay that went
    permanently missing — and no bridge may be left holding stashed
    out-of-order relays whose gap never filled.
    """
    for origin, owner in enumerate(cluster.bridges):
        produced = owner.seen[origin]
        for bridge in cluster.bridges:
            if bridge.seen[origin] != produced:
                raise InvariantViolation(
                    f"inter-group sequence gap: group {bridge.gid} advanced "
                    f"origin {origin} only to {bridge.seen[origin]} of "
                    f"{produced}"
                )
            if bridge.pending[origin]:
                raise InvariantViolation(
                    f"orphaned inter-group relays: group {bridge.gid} still "
                    f"holds gseqs {sorted(bridge.pending[origin])} from "
                    f"origin {origin}"
                )


def scenario_bridge_failover(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Crash a group's active bridge mid-stream; its successor takes over.

    The victim group's detector must evict the dead bridge, the lowest
    surviving member must assume the relay role, and the successor's
    re-forward of undelivered relays plus the backbone retransmit protocol
    must leave *zero* inter-group sequence gaps — every live entity
    converges on the same delivered set.
    """
    name = "bridge-failover"
    n, group_size, gid = 12, 4, 1
    cluster = _hierarchy_cluster(n, group_size, seed)
    bridge = cluster.bridges[gid]
    old_local = bridge.active_local
    victim = bridge.partition[gid][old_local]
    live = [i for i in range(n) if i != victim]
    pre = [f"pre-{k}" for k in range(12)]
    for k, payload in enumerate(pre):
        cluster.sim.schedule(
            0.002 * k, lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.sim.schedule(0.030, lambda: cluster.crash(victim))
    post = [f"post-{k}" for k in range(8)]
    for k, payload in enumerate(post):
        cluster.sim.schedule(
            0.040 + 0.005 * k,
            lambda s=live[k % len(live)], p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.030 + 10 * (SUSPECT_TIMEOUT + EVICT_TIMEOUT))
    try:
        if bridge.active_local == old_local:
            raise InvariantViolation(
                f"group {gid} never promoted a successor bridge"
            )
        converge_time = run_until_converged(cluster, live, expected=post)
        cluster.run_until_quiescent(max_time=60.0)
        check_intergroup_gaps(cluster)
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        for group in cluster.groups:
            verify_run(group.trace, group.n, expect_all_delivered=False).assert_ok()
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["successor"] = bridge.active_local
    return outcome


def scenario_intergroup_partition(seed: int, trace: Optional[TraceLog] = None) -> NemesisOutcome:
    """Cut one group off the backbone mid-stream, then heal.

    Intra-group life goes on — the split must cause **no** member eviction
    anywhere (groups are internally healthy; only relays are dark) — and
    after the heal the bridges' retransmit protocol alone must close every
    inter-group gap and reconverge all entities.
    """
    name = "intergroup-partition"
    n, group_size = 12, 4
    partition = GroupPartition()
    cluster = _hierarchy_cluster(n, group_size, seed, backbone_loss=partition)
    cluster.sim.schedule(0.005, lambda: partition.partition(0, 1))
    cluster.sim.schedule(0.005, lambda: partition.partition(0, 2))
    cluster.sim.schedule(0.120, partition.heal)
    payloads = [f"split-{k}" for k in range(24)]
    for k, payload in enumerate(payloads):
        cluster.sim.schedule(
            0.002 + 0.006 * k, lambda s=k % n, p=payload: cluster.submit(s, p),
        )
    cluster.run_for(0.180)
    live = list(range(n))
    try:
        converge_time = run_until_converged(cluster, live, expected=payloads)
        cluster.run_until_quiescent(max_time=60.0)
        if partition.partitioned_drops == 0:
            raise InvariantViolation("backbone partition never dropped anything")
        for group in cluster.groups:
            for engine in group.engines:
                if engine.view != 0 or engine.evicted:
                    raise InvariantViolation(
                        "a backbone split caused a member eviction: group "
                        f"views {[e.view for e in group.engines]}"
                    )
        check_intergroup_gaps(cluster)
        check_prefix_consistency(cluster, live)
        check_convergence(cluster, live)
        for group in cluster.groups:
            verify_run(group.trace, group.n, expect_all_delivered=False).assert_ok()
    except (InvariantViolation, Exception) as exc:
        return NemesisOutcome(name, seed, False, str(exc), _observations(cluster, live))
    outcome = NemesisOutcome(name, seed, True, "", _observations(cluster, live))
    outcome.observations["converge_time"] = converge_time
    outcome.observations["backbone_drops"] = partition.partitioned_drops
    return outcome


SCENARIOS: Dict[str, Callable[[int], NemesisOutcome]] = {
    "crash-evict-rejoin": scenario_crash_evict_rejoin,
    "partition-heal": scenario_partition_heal,
    "duplication": scenario_duplication,
    "corruption": scenario_corruption,
    "combo": scenario_combo,
    "batching": scenario_batching,
    "partition-stale": scenario_partition_stale,
    "partition-flapping": scenario_partition_flapping,
    "loss-storm": scenario_loss_storm,
    "ring-partition": scenario_ring_partition,
    "gossip-loss-storm": scenario_gossip_loss_storm,
    "slow-node": scenario_slow_node,
    "jittery-link": scenario_jittery_link,
    "asymmetric-link": scenario_asymmetric_link,
    "pause-resume": scenario_pause_resume,
    "bridge-failover": scenario_bridge_failover,
    "intergroup-partition": scenario_intergroup_partition,
}


def run_nemesis(
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    rounds: int = 1,
    verbose: bool = False,
    record_dir: Optional[str] = None,
    recorder_capacity: int = 200_000,
) -> List[NemesisOutcome]:
    """Run the selected scenarios ``rounds`` times with derived seeds.

    With ``record_dir`` every scenario runs against a bounded
    :class:`FlightRecorder`; a failing scenario dumps its recording as
    ``nemesis-<scenario>-<seed>.jsonl`` in that directory (created on
    demand) and notes the path in the outcome's observations.
    """
    names = list(scenarios) if scenarios else list(SCENARIOS)
    outcomes: List[NemesisOutcome] = []
    for round_index in range(rounds):
        for name in names:
            fn = SCENARIOS.get(name)
            if fn is None:
                raise ValueError(
                    f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
                )
            run_seed = seed + round_index * 1009
            recorder = (
                FlightRecorder(capacity=recorder_capacity)
                if record_dir is not None else None
            )
            outcome = fn(run_seed, trace=recorder)
            if not outcome.ok and recorder is not None:
                os.makedirs(record_dir, exist_ok=True)
                path = os.path.join(
                    record_dir, f"nemesis-{name}-{run_seed}.jsonl",
                )
                recorder.dump_jsonl(path)
                outcome.observations["flight_recording"] = path
                outcome.detail += f" [recording: {path}]"
            outcomes.append(outcome)
            if verbose:
                print(outcome.summary())
    return outcomes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        help="run one scenario (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="repeat the campaign with derived seeds")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--record-dir", default=os.environ.get("REPRO_FLIGHT_DIR"),
                        help="dump a JSONL flight recording here when a "
                             "scenario fails (default: $REPRO_FLIGHT_DIR)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    outcomes = run_nemesis(
        scenarios=args.scenarios, seed=args.seed, rounds=args.rounds,
        verbose=args.verbose, record_dir=args.record_dir,
    )
    failures = [o for o in outcomes if not o.ok]
    wall = time.perf_counter() - start
    status = "CLEAN" if not failures else f"{len(failures)} FAILURES"
    print(f"nemesis: {len(outcomes)} scenario runs, {wall:.1f}s wall — {status}")
    for failure in failures:
        print(f"  {failure.summary()}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
