"""Deterministic nemesis: declarative fault campaigns with safety oracles.

Jepsen-style fault campaigns for the simulated cluster, entirely
deterministic: every fault (crash, restart, partition, duplication, frame
corruption, delay spikes, CPU starvation, pauses, backbone cuts) is
scheduled at fixed simulated times and every random draw comes from the
seeded :class:`~repro.sim.rng.RngRegistry`, so a scenario's entire trace —
including its failures — replays bit-for-bit from its seed.

A scenario is data: one :class:`Scenario` record holds the cluster size,
the timing profile, a factory for fresh fault objects, the timed fault
schedule, the traffic waves, how the run settles and the tuple of oracles
that judge it.  One runner, :func:`run_scenario`, builds, runs, judges and
reports every scenario (and the soak harness's membership trials) the same
way, inside one ``try``: a scenario that crashes, stalls or breaks an
invariant comes back as a failed :class:`NemesisOutcome`, never as an
exception out of the campaign.

Each scenario runs a faulted cluster to quiescence and then asserts the
**safety invariants** of the crash-recovery extension on top of the
causal-order checker (:func:`repro.ordering.checker.verify_run`):

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

Every scenario records into a complete :class:`~repro.sim.trace.TraceLog`,
which its oracles read.  With ``--record-dir`` (or the ``REPRO_FLIGHT_DIR``
environment variable) a failing scenario dumps that log as JSONL next to
the verdict — one file per group trace plus the backbone's for the
hierarchy scenarios — and ``python -m repro inspect`` summarizes it.

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
import traceback
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
    PartitionLoss,
    TargetedLoss,
)
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

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
    #: and for the golden-history tests.
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


def check_no_eviction(cluster: Cluster, live: Sequence[int]) -> None:
    """The no-spurious-eviction oracle: a degraded-but-live member must
    never be voted out, so every live engine is still in view 0 with
    nobody evicted."""
    views = [cluster.hosts[i].engine.view for i in live]
    if any(view != 0 for view in views):
        raise InvariantViolation(
            f"a live member was evicted: views {views}"
        )
    evicted = {j for i in live for j in cluster.hosts[i].engine.evicted}
    if evicted:
        raise InvariantViolation(f"live members evicted: {sorted(evicted)}")


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


# ----------------------------------------------------------------------
# Scenario specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Traffic:
    """One wave of broadcasts: payload ``f"{prefix}-{k}"`` from
    ``sources[k % len(sources)]`` (default: every member), submitted at once
    or, with ``start`` set, scheduled at ``start + spacing * k``."""

    prefix: str
    count: int
    start: Optional[float] = None
    spacing: float = 0.0
    sources: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class Crash:
    """The one script step, for runs whose next move depends on the last.

    The victim crashes after ``at`` of simulated time — a direct call
    between runs, not a scheduled event.  With ``evict_wait`` the survivors
    must have installed the eviction view that much later: suspicion alone
    keeps the engines quiescent, so the wait drives simulated time past
    suspect + evict timeouts (plus the agreement round trips) rather than
    waiting for quiescence.  Then the ``post`` wave goes out and, with
    ``restart``, the victim comes back once the cluster has quiesced;
    ``rejoined`` goes out once the rejoin has quiesced in turn.
    """

    at: float
    evict_wait: Optional[float] = None
    post: Optional[Traffic] = None
    restart: bool = False
    rejoined: Optional[Traffic] = None


#: Placeholders in a schedule step's arguments, resolved per run: the
#: spec's victim, and every other member.
VICTIM = "<victim>"
PEERS = "<peers>"

Oracle = Callable[["Run"], None]


@dataclass(frozen=True)
class Scenario:
    """One fault campaign as data; :func:`run_scenario` runs any of them."""

    name: str
    #: Why the scenario exists: the fault it models and what must hold.
    doc: str
    n: int
    #: ``ProtocolConfig`` arguments: a timing profile plus overrides.  A
    #: ``group_size`` builds a hierarchical cluster.
    config: Mapping[str, Any]
    #: Fresh fault objects per run, keyed by the cluster-builder argument
    #: they fill: ``loss``, ``duplication``, ``delay_model``, ``backbone_loss``.
    faults: Callable[[], Dict[str, Any]] = dict
    #: Fault key -> the counter that proves the fault fired; each must end
    #: positive and is reported in the observations.
    fired: Mapping[str, str] = field(default_factory=dict)
    #: Timed faults ``(at, "target.name", *args)``, scheduled before any
    #: traffic: at simulated time ``at``, call method ``name`` of the
    #: ``cluster`` or of a fault object, or set a plain attribute to the
    #: one argument.
    schedule: Tuple[Tuple[Any, ...], ...] = ()
    traffic: Tuple[Traffic, ...] = ()
    victim: Optional[int] = None
    crash: Optional[Crash] = None
    #: Simulated time to run before settling.
    run: float = 0.0
    #: Settle by converging on this wave's payloads (the time-to-converge),
    #: then quiescing; without it, by quiescing alone.
    converge_on: Optional[str] = None
    #: Simulated-time bound on every wait for quiescence.
    max_time: float = 60.0
    oracles: Tuple[Oracle, ...] = ()
    #: Observation name -> prefixes of the engine counters it sums.
    observe: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Gray crash phase after the verdict: crash the victim, bound the
    #: detection latency, require the eviction, re-judge the survivors.
    gray_crash: bool = False


@dataclass
class Run:
    """One execution of a :class:`Scenario` — what the oracles judge."""

    spec: Scenario
    seed: int
    cluster: Any
    faults: Dict[str, Any]
    #: Wave prefix -> the payloads it submitted.
    payloads: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def live(self) -> List[int]:
        """The members not crashed right now."""
        return [i for i, host in enumerate(self.cluster.hosts) if not host.crashed]

    @property
    def survivors(self) -> List[int]:
        return [i for i in range(self.spec.n) if i != self.spec.victim]

    def submit(self, wave: Traffic) -> None:
        sources = wave.sources or range(self.spec.n)
        payloads = self.payloads.setdefault(wave.prefix, [])
        for k in range(wave.count):
            payload = f"{wave.prefix}-{k}"
            payloads.append(payload)
            source = sources[k % len(sources)]
            if wave.start is None:
                self.cluster.submit(source, payload)
            else:
                self.cluster.sim.schedule(
                    wave.start + wave.spacing * k, self.cluster.submit, source, payload,
                )

    def play(self) -> None:
        """The crash script, if any, then ``spec.run`` of simulated time."""
        step, cluster = self.spec.crash, self.cluster
        if step is not None:
            cluster.run_for(step.at)
            cluster.crash(self.spec.victim)
            if step.evict_wait is not None:
                await_eviction(self, step.evict_wait)
            if step.post is not None:
                self.submit(step.post)
            if step.restart:
                cluster.run_until_quiescent(max_time=self.spec.max_time)
                cluster.restart(self.spec.victim)
                if step.rejoined is not None:
                    cluster.run_until_quiescent(max_time=self.spec.max_time)
                    self.submit(step.rejoined)
        if self.spec.run:
            cluster.run_for(self.spec.run)


def start(spec: Scenario, seed: int, trace: Optional[TraceLog] = None) -> Run:
    """Build the spec's cluster on fresh faults, schedule the timed faults,
    then the traffic (so same-instant events keep that order)."""
    faults = spec.faults()
    config = ProtocolConfig(**spec.config, gossip_seed=seed)
    if config.hierarchy_enabled:
        cluster = build_hierarchical_cluster(
            spec.n, config=config, rngs=RngRegistry(seed), **faults,
        )
    else:
        cluster = build_cluster(
            spec.n, config=config, trace=trace, rngs=RngRegistry(seed), **faults,
        )
    run = Run(spec, seed, cluster, faults)
    resolve = {VICTIM: spec.victim, PEERS: run.survivors}
    for at, call, *args in spec.schedule:
        target, name = call.split(".")
        obj = cluster if target == "cluster" else faults[target]
        args = [resolve.get(a, a) if isinstance(a, str) else a for a in args]
        if callable(getattr(obj, name)):
            cluster.sim.schedule(at, getattr(obj, name), *args)
        else:
            cluster.sim.schedule(at, setattr, obj, name, *args)
    for wave in spec.traffic:
        run.submit(wave)
    return run


def await_eviction(run: Run, wait: float) -> None:
    """Run ``wait`` longer; the survivors must agree on one eviction view."""
    run.cluster.run_for(wait)
    views = {run.cluster.hosts[i].engine.view for i in run.survivors}
    if views != {1}:
        raise InvariantViolation(f"no eviction view: {views}")


def detect_crash(run: Run) -> float:
    """Crash the victim now and return the simulated time until some
    survivor suspects it — the bounded-detection-latency oracle.  A gray
    phase may have widened the victim's inter-arrival windows; a real crash
    must still be flagged within :data:`DETECT_BOUND`."""
    cluster, victim = run.cluster, run.spec.victim
    start_time = cluster.sim.now
    cluster.crash(victim)
    while cluster.sim.now - start_time < DETECT_BOUND:
        cluster.run_for(0.001)
        if any(victim in cluster.hosts[i].engine.suspected for i in run.survivors):
            return cluster.sim.now - start_time
    raise InvariantViolation(
        f"crash of E{victim} undetected after {DETECT_BOUND}s of silence"
    )


def false_evictions(run: Run) -> int:
    """How many survivors ever installed a view without the live victim."""
    return sum(
        1 for i in run.survivors
        if any(run.spec.victim not in members
               for _view, members in run.cluster.hosts[i].engine.view_log)
    )


def _logs(cluster: Any) -> Dict[str, TraceLog]:
    """Every trace a cluster records into, by recording-file suffix."""
    groups = getattr(cluster, "groups", None)
    if groups is None:
        return {"": cluster.trace}
    logs = {f"-group{k}": group.trace for k, group in enumerate(groups)}
    logs["-backbone"] = cluster.backbone_trace
    return logs


def run_scenario(
    spec: Scenario,
    seed: int,
    trace: Optional[TraceLog] = None,
    record_dir: Optional[str] = None,
) -> NemesisOutcome:
    """Build, run, judge and report one scenario.

    Everything from the build to the verdict sits in one ``try``: a stall
    or an exception is a failed outcome like a broken invariant.  With
    ``record_dir`` a failing run dumps every trace it recorded into
    (``trace`` for a flat cluster) as
    ``nemesis-<scenario>-<seed>[-group<k>|-backbone].jsonl`` there.
    """
    run: Optional[Run] = None
    obs: Dict[str, Any] = {}
    try:
        run = start(spec, seed, trace)
        run.play()
        cluster = run.cluster
        if spec.converge_on is not None:
            obs["converge_time"] = run_until_converged(
                cluster, run.live, expected=run.payloads[spec.converge_on],
            )
        cluster.run_until_quiescent(max_time=spec.max_time)
        for oracle in spec.oracles:
            oracle(run)
        for key, counter in spec.fired.items():
            obs[counter] = getattr(run.faults[key], counter)
            if not obs[counter]:
                raise InvariantViolation(f"the {key} fault never fired ({counter} = 0)")
        if spec.gray_crash:
            obs["detect_latency"] = detect_crash(run)
            await_eviction(run, 10 * (GRAY_SUSPECT + GRAY_EVICT))
            cluster.run_until_quiescent(max_time=spec.max_time)
            for oracle in (agreed, consistent, converged):  # live = survivors now
                oracle(run)
    except InvariantViolation as exc:
        outcome = NemesisOutcome(spec.name, seed, False, str(exc), obs)
    except Exception as exc:  # a stall or a crash is reported, not raised
        obs["traceback"] = traceback.format_exc()
        outcome = NemesisOutcome(spec.name, seed, False, f"{type(exc).__name__}: {exc}", obs)
    else:
        outcome = NemesisOutcome(spec.name, seed, True, "", obs)
    if run is None:
        return outcome
    cluster = run.cluster
    obs["view_logs"] = {i: list(cluster.hosts[i].engine.view_log) for i in range(cluster.n)}
    obs["deliveries"] = {
        i: [(m.src, m.seq) for m in cluster.delivered(i)] for i in range(cluster.n)
    }
    obs["live"] = run.live
    for name, prefixes in spec.observe.items():
        obs[name] = {
            k: v for k, v in _engine_totals(cluster).items() if k.startswith(prefixes)
        }
    if not outcome.ok and record_dir is not None:
        os.makedirs(record_dir, exist_ok=True)
        stem = os.path.join(record_dir, f"nemesis-{spec.name}-{seed}")
        paths = [
            log.dump_jsonl(f"{stem}{suffix}.jsonl")
            for suffix, log in _logs(cluster).items() if len(log)
        ]
        obs["flight_recordings"] = paths
        outcome.detail += f" [recording: {', '.join(paths)}]"
    return outcome


# ----------------------------------------------------------------------
# Oracles: each judges a finished Run and raises InvariantViolation
# ----------------------------------------------------------------------
def ordered(run: Run, complete: bool = False) -> None:
    """The causal-order checker on every trace; ``complete`` also wants
    every submission delivered everywhere."""
    for group in getattr(run.cluster, "groups", [run.cluster]):
        verify_run(group.trace, group.n, expect_all_delivered=complete).assert_ok()


complete = partial(ordered, complete=True)


def agreed(run: Run, on: str = "live") -> None:
    check_view_agreement(run.cluster.engines, getattr(run, on))


def consistent(run: Run, on: str = "live") -> None:
    check_prefix_consistency(run.cluster, getattr(run, on))


def converged(run: Run) -> None:
    check_convergence(run.cluster, run.live)


def steady(run: Run) -> None:
    check_no_eviction(run.cluster, run.live)


def pruned(run: Run, on: str = "live") -> None:
    check_prune_resumption(run.cluster, getattr(run, on))


def rejoined(run: Run) -> None:
    check_rejoin_coverage(run.cluster, run.spec.victim, run.survivors)


def readmitted(run: Run) -> None:
    """The restarted victim finished joining and sits in a later view."""
    engine = run.cluster.hosts[run.spec.victim].engine
    if engine.joining or engine.view < 2:
        raise InvariantViolation(
            f"victim never re-admitted (view {engine.view}, joining {engine.joining})"
        )


def gapless(run: Run) -> None:
    check_intergroup_gaps(run.cluster)


def acked(prefix: str, on: str = "live") -> Oracle:
    """Every payload of wave ``prefix`` reached ACK at every member ``on``."""
    return lambda run: check_post_eviction_ack(
        run.cluster, run.payloads[prefix], getattr(run, on),
    )


def positive(*counters: str, why: str) -> Oracle:
    """The cluster-wide sum of the named engine counters is not zero."""
    def oracle(run: Run) -> None:
        totals = _engine_totals(run.cluster)
        if not sum(totals.get(counter, 0) for counter in counters):
            raise InvariantViolation(why)
    return oracle


def checksummed(run: Run) -> None:
    undetected = run.faults["loss"].undetected_corruptions
    if undetected:
        raise InvariantViolation(f"{undetected} corrupted frames slipped past the checksum")


def batched(run: Run) -> None:
    stats = run.cluster.network.stats
    if stats.batched_data_pdus <= stats.batch_frames:
        raise InvariantViolation(
            "no frame ever carried more than one PDU "
            f"({stats.batched_data_pdus} PDUs in {stats.batch_frames} frames)"
        )


def no_snapshot(run: Run) -> None:
    if run.cluster.trace.count("state-transfer"):
        raise InvariantViolation("healing the partition fell back to a full state snapshot")


def starved(run: Run) -> None:
    busy = [host.busy_time for host in run.cluster.hosts]
    victim = run.spec.victim
    if busy[victim] <= 2 * max(b for i, b in enumerate(busy) if i != victim):
        raise InvariantViolation("cpu scaling never actually starved the victim")


def fixed_timeouts_flap(run: Run) -> None:
    """Contrast baseline: identical faults and traffic on the fixed-timeout
    profile must wrongly evict the live victim."""
    fixed = start(replace(run.spec, config=GRAY), run.seed)
    fixed.play()
    if not false_evictions(fixed):
        raise InvariantViolation(
            "fixed-timeout baseline never evicted under the same spikes — "
            "the scenario lost its discriminating power"
        )


def bridge_moved(run: Run) -> None:
    gid, local = run.cluster.locator[run.spec.victim]
    if run.cluster.bridges[gid].active_local == local:
        raise InvariantViolation(f"group {gid} never promoted a successor bridge")


#: Whole-cluster safety once the faults stop.
SAFE = (complete, agreed, consistent, converged)
#: ... with nobody evicted: the faults only ever degrade live members.
STEADY = SAFE + (steady,)

# ----------------------------------------------------------------------
# Timing profiles and the scenarios
# ----------------------------------------------------------------------
CAMPAIGN = dict(suspect_timeout=SUSPECT_TIMEOUT, evict_timeout=EVICT_TIMEOUT)
NO_EVICT = dict(CAMPAIGN, evict_timeout=None)
#: The anti-entropy repair layer switched on: a fast digest cadence and a
#: low delta threshold, so the staleness the scenarios inject is healed by
#: the repair tiers, not merely by luck of the ordinary RET machinery,
#: inside the CI time budget.
REPAIR = dict(CAMPAIGN, anti_entropy_interval=0.01, delta_sync_threshold=8)
#: Dissemination over a relay topology, repair tiers on.  A severed relay
#: route loses every downstream copy of a frame at once — far burstier
#: than uniform loss — so these scenarios lean on the anti-entropy path
#: (digests → pulls → delta sync) as the completion mechanism, exactly as
#: docs/PROTOCOL.md §16 prescribes for gossip.
TOPOLOGY = dict(REPAIR, gossip_fanout=2)
#: The deliberately tight gray-failure profile.  ``ADAPTIVE`` runs the
#: phi-accrual detector on top of the *same* timeouts (so adaptive and
#: fixed runs differ in nothing but the detector); ``GRAY`` alone is the
#: fixed-timeout contrast baseline.
GRAY = dict(suspect_timeout=GRAY_SUSPECT, evict_timeout=GRAY_EVICT)
ADAPTIVE = dict(
    GRAY, failure_detector=FailureDetectorMode.PHI, detector_window=16,
    resuspect_cooldown=0.05,
)
#: A sharded cluster with the campaign's fast fault timings.
HIERARCHY = dict(CAMPAIGN, group_size=4, bridge_tick_interval=0.01)

EVICTION_WAIT = 10 * (SUSPECT_TIMEOUT + EVICT_TIMEOUT)
SPLIT_2_2 = ((0.005, "loss.split", {0, 1}, {2, 3}), (0.2, "loss.heal"))
STORM = dict(
    faults=lambda: {"loss": TargetedLoss({3}, rate=0.7)}, fired={"loss": "storm_drops"},
    schedule=((0.25, "loss.rate", 0.0),), run=0.26,
)
DIGESTS = positive("digests_sent", why="repair layer never sent a digest")
REPAIR_COUNTERS = {"repair": ("digest", "pull", "delta", "repair")}
RELAY_COUNTERS = {"relay": ("relay",)}
#: Every gray scenario: adaptive detector, phi counters, then the crash.
GRAY_FAILURE = dict(config=ADAPTIVE, observe={"detector": ("phi_",)}, gray_crash=True)

#: Outbound delay spikes for the jittery-link scenario: three training
#: spikes widen the adaptive window, then a large spike opens a silence
#: that exceeds the fixed suspect + evict budget (10ms + 30ms < 45ms).
JITTER_SPIKES = (
    (0.05, 0.012, 0.012),
    (0.09, 0.018, 0.015),
    (0.13, 0.022, 0.020),
    (0.17, 0.045, 0.045),
)

#: The flapping partition's cuts, twice over, each opened for 25ms every
#: 50ms from 10ms on; the last start is when the flapping has stopped.
FLAP_CUTS = (({0, 1}, {2, 3, 4}), ({0, 3, 4}, {1, 2}), ({0, 2, 4}, {1, 3})) * 2
FLAP_STARTS = tuple(accumulate([0.01] + [0.05] * len(FLAP_CUTS)))

_SCENARIOS = (
    Scenario(
        "crash-evict-rejoin",
        "Crash → agreed eviction → post-eviction traffic → rejoin → re-admit.",
        n=4, victim=2, config=CAMPAIGN,
        faults=lambda: {"loss": BernoulliLoss(0.05, protect_control=True)},
        traffic=(Traffic("pre", 6),),
        crash=Crash(
            at=0.01, evict_wait=EVICTION_WAIT, post=Traffic("post", 4, sources=(0, 1, 3)),
            restart=True, rejoined=Traffic("rejoined", 2, sources=(2, 0)),
        ),
        # The victim recovers the post-eviction broadcasts via the state
        # snapshot, not its own delivery log — judge the survivors on
        # those, and everyone on the post-rejoin round.
        oracles=(
            ordered, agreed, partial(consistent, on="survivors"), rejoined,
            acked("post", on="survivors"), acked("rejoined"), pruned, converged, readmitted,
        ),
    ),
    Scenario(
        "partition-heal",
        """Symmetric split (no quorum on either side) healed before eviction.

        The quorum guard must hold the membership steady — a 2/2 split of a
        4-cluster may suspect across the boundary but can never install a
        shrunken view — and after the heal both halves reconcile.
        """,
        n=4, config=CAMPAIGN,
        faults=lambda: {"loss": PartitionLoss()}, fired={"loss": "partitioned_drops"},
        schedule=SPLIT_2_2,
        # Mid-partition traffic on both sides, then cross the heal.
        traffic=(Traffic("pre", 4), Traffic("mid", 2, start=0.1, sources=(0, 2))), run=0.25,
        oracles=(ordered, agreed, consistent, steady, acked("mid"), converged),
    ),
    Scenario(
        "duplication",
        """A duplicating medium: bounded extra copies of every fifth PDU.

        The acceptance condition must shed every duplicate — the ordering
        oracle and exactly-once delivery do the judging.
        """,
        n=3, config=NO_EVICT,
        faults=lambda: {"duplication": DuplicatingChannel(rate=0.2, max_extra=2)},
        fired={"duplication": "duplicated"}, traffic=(Traffic("dup", 9),),
        oracles=(complete, consistent, converged),
    ),
    Scenario(
        "corruption",
        """A corrupting medium: random single-byte flips on encoded frames.

        Every flip must be caught by the codec's CRC trailer (zero undetected
        corruptions) and the protocol must recover the dropped frames like any
        other loss.  Member 0's first data PDU is damaged on its way to
        member 1 whatever the draws, so every seed meets a corruption.
        """,
        n=3, config=NO_EVICT,
        faults=lambda: {"loss": CorruptionLoss(rate=0.1, targets=[(0, 1, 1)])},
        fired={"loss": "corrupt_frames"},
        traffic=(Traffic("crc", 9),), oracles=(complete, converged, checksummed),
    ),
    Scenario(
        "combo",
        """Everything at once: loss + duplication + a crash with eviction and
        rejoin.  The kitchen-sink regression for the whole recovery stack.""",
        n=5, victim=4, config=CAMPAIGN, max_time=120.0,
        faults=lambda: {
            "loss": CompositeLoss([BernoulliLoss(0.05, protect_control=True)]),
            "duplication": DuplicatingChannel(rate=0.1, max_extra=1),
        },
        traffic=(Traffic("pre", 10),),
        crash=Crash(
            at=0.015, evict_wait=EVICTION_WAIT,
            post=Traffic("post", 5, sources=(0, 1, 2, 3)), restart=True,
        ),
        oracles=(
            ordered, agreed, partial(consistent, on="survivors"), rejoined,
            acked("post", on="survivors"), converged, readmitted,
        ),
    ),
    Scenario(
        "batching",
        """Frame batching under loss and duplication.

        A batching cluster (several data PDUs per frame, one confirmation
        header for all of them) faces a dropping, duplicating medium.  Losing
        one frame loses *all* the PDUs it carried at once — the burstiest loss
        the RET machinery ever sees — and duplicated frames replay whole
        batches.  The ordering oracle judges causal safety; the scenario
        additionally proves the batching layer actually engaged: a frame is
        what one pump releases, so every member submits three windows' worth at
        once and the reopening window lets several out together on every seed.
        """,
        n=4, config=dict(NO_EVICT, batch_max_pdus=4),
        faults=lambda: {
            "loss": BernoulliLoss(0.1, protect_control=True),
            "duplication": DuplicatingChannel(rate=0.15, max_extra=1),
        },
        # Bursts deeper than the flow window: the first W leave one by one,
        # the backlog leaves in multi-PDU frames as confirmations reopen it.
        traffic=(Traffic("batch", 4 * 3 * ProtocolConfig.window),),
        oracles=(complete, consistent, converged, batched),
    ),
    Scenario(
        "partition-stale",
        """Long asymmetric partition: one member sends but receives nothing.

        The nastiest staleness case: the deaf member keeps being heard, so it
        is never suspected and never evicted, while its knowledge silently
        freezes and stalls cluster-wide delivery.  After the heal, the repair
        tiers (digests → pulls → delta sync) must catch it up — without any
        full state snapshot — and the convergence oracle bounds how long that
        takes.
        """,
        n=5, config=REPAIR,
        faults=lambda: {"loss": LinkLoss()}, fired={"loss": "blocked_drops"},
        schedule=((0.005, "loss.block_towards", 4, {0, 1, 2, 3}), (0.3, "loss.heal")),
        traffic=(Traffic("stale", 20, start=0.01, spacing=0.012),),
        run=0.3 + 0.005, converge_on="stale", observe=REPAIR_COUNTERS,
        oracles=STEADY + (
            DIGESTS, no_snapshot,
            positive("pull_pdus_served", "delta_pdus_sent",
                     why="staleness healed without any pull/delta repair"),
        ),
    ),
    Scenario(
        "partition-flapping",
        """A flapping partition: repeated short splits along changing cuts.

        Each flap is shorter than the eviction timeout, so the membership must
        hold steady while every flap strands different knowledge on each side;
        the repair layer (and the RET machinery it backs up) must reconcile
        all of it once the flapping stops.
        """,
        n=5, config=REPAIR,
        faults=lambda: {"loss": PartitionLoss()}, fired={"loss": "partitioned_drops"},
        schedule=tuple(
            step for at, cut in zip(FLAP_STARTS, FLAP_CUTS)
            for step in ((at, "loss.split", *cut), (at + 0.025, "loss.heal"))
        ),
        traffic=(Traffic("flap", 18, start=0.005, spacing=0.016),),
        run=FLAP_STARTS[-1], converge_on="flap", oracles=STEADY,
    ),
    Scenario(
        "loss-storm",
        """A loss storm aimed at one slow receiver — control PDUs included.

        70% of everything *towards* the victim drops while the storm lasts, so
        RETs go unanswered (answers drop too) and gaps must escalate through
        the repair tiers.  The victim keeps transmitting, so it is never
        suspected; once the storm stops, convergence must follow quickly.
        """,
        n=5, config=REPAIR, **STORM,
        traffic=(Traffic("storm", 20, start=0.005, spacing=0.012),),
        converge_on="storm", oracles=STEADY + (DIGESTS,), observe=REPAIR_COUNTERS,
    ),
    Scenario(
        "ring-partition",
        """Ring dissemination across a symmetric split.

        The ring is the most fragile route: cutting a 4-cluster in half severs
        the relay chain in two places, so every in-flight frame strands on its
        origin's side.  The quorum guard must hold the membership steady (a 2/2
        split has no majority), and after the heal the RET machinery and repair
        tiers must ferry the stranded halves across — forwarding alone cannot,
        because relays are never retransmitted.
        """,
        n=4, config=dict(TOPOLOGY, dissemination=DisseminationMode.RING),
        faults=lambda: {"loss": PartitionLoss()}, fired={"loss": "partitioned_drops"},
        schedule=SPLIT_2_2, traffic=(Traffic("ring", 16, start=0.01, spacing=0.012),),
        run=0.21, converge_on="ring", observe=RELAY_COUNTERS,
        oracles=STEADY + (
            positive("relays_sent", why="ring mode never relayed a frame"),
            positive("relay_forwards", why="no relay was ever forwarded around the ring"),
        ),
    ),
    Scenario(
        "gossip-loss-storm",
        """Gossip dissemination under a loss storm aimed at one receiver.

        70% of everything towards the victim drops — including the unicast
        relay pushes that are gossip's only data path to it — while the victim
        keeps transmitting, so it is never suspected.  The epidemic keeps the
        other members current; the victim's catch-up must come from the
        anti-entropy tier (digest → pull → delta), and once the storm stops the
        convergence oracle bounds how long that takes.
        """,
        n=5, config=dict(TOPOLOGY, dissemination=DisseminationMode.GOSSIP), **STORM,
        traffic=(Traffic("gossip", 20, start=0.005, spacing=0.012),),
        converge_on="gossip", observe=RELAY_COUNTERS,
        oracles=STEADY + (
            positive("relays_sent", why="gossip mode never pushed a relay"), DIGESTS,
        ),
    ),
    # Gray failures: the node/link is degraded, not dead (docs/PROTOCOL.md §17)
    Scenario(
        "slow-node",
        """CPU-starved member: 30x service times for 0.2 simulated seconds.

        The victim's tick loop still heartbeats on time while its *processing*
        lags far behind — acks go stale and its own view of the peers is
        delayed by queueing (so the victim itself may transiently suspect
        others; the minority quorum guard keeps that harmless).  Nobody may
        evict the slow-but-live member; once the victim genuinely crashes,
        detection latency is bounded.
        """,
        n=5, victim=3, **GRAY_FAILURE,
        schedule=(
            (0.05, "cluster.set_cpu_scale", VICTIM, 30.0),
            (0.25, "cluster.set_cpu_scale", VICTIM, 1.0),
        ),
        traffic=(Traffic("slow", 24, start=0.005, spacing=0.009),),
        run=0.30, converge_on="slow", oracles=STEADY + (starved,),
    ),
    Scenario(
        "jittery-link",
        """Variable outbound delay, no loss — the acceptance scenario.

        The victim's outbound links suffer scripted delay spikes; the FIFO
        clamp turns each spike into a silent window at every receiver.  The
        adaptive run must ride out all of them with **zero** evictions, while
        a fixed-timeout contrast cluster under the *identical* fault schedule
        wrongly evicts the live victim — the flap the phi bound absorbs:
        trained on the earlier spikes, the adaptive detector crosses
        ``phi_suspect`` late enough that the eviction ripeness clock never
        expires before the victim is heard again.
        """,
        n=8, victim=6, **GRAY_FAILURE,
        faults=lambda: {"delay_model": LinkDelay()}, fired={"delay_model": "delayed_copies"},
        schedule=tuple(
            step for at, extra, duration in JITTER_SPIKES
            for step in ((at, "delay_model.set_out", VICTIM, PEERS, extra),
                         (at + duration, "delay_model.set_out", VICTIM, PEERS, 0.0))
        ),
        traffic=(Traffic("jitter", 26, start=0.004, spacing=0.008),),
        run=0.30, converge_on="jitter", oracles=STEADY + (fixed_timeouts_flap,),
    ),
    Scenario(
        "asymmetric-link",
        """One-direction slowness: the victim's outbound delay steps up while
        its inbound stays pristine.

        Constant extra delay shifts the victim's traffic without changing its
        cadence, so only the step *transitions* open silences — all small
        enough that the adaptive detector holds (transient degradation at
        worst).  No evictions while degraded; bounded detection once crashed.
        """,
        n=5, victim=4, **GRAY_FAILURE,
        faults=lambda: {"delay_model": LinkDelay()}, fired={"delay_model": "delayed_copies"},
        schedule=(
            (0.05, "delay_model.set_out", VICTIM, PEERS, 0.008),
            (0.10, "delay_model.set_out", VICTIM, PEERS, 0.016),
            (0.15, "delay_model.set_out", VICTIM, PEERS, 0.028),
            (0.22, "delay_model.clear"),
        ),
        traffic=(Traffic("asym", 20, start=0.005, spacing=0.008),),
        run=0.30, converge_on="asym", oracles=STEADY,
    ),
    Scenario(
        "pause-resume",
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
        """,
        n=5, victim=2, **GRAY_FAILURE,
        schedule=(
            (0.060, "cluster.pause", VICTIM), (0.090, "cluster.resume", VICTIM),
            (0.105, "cluster.pause", VICTIM), (0.135, "cluster.resume", VICTIM),
        ),
        traffic=(Traffic("pause", 20, start=0.005, spacing=0.007, sources=(0, 1, 3, 4)),),
        run=0.20, converge_on="pause",
        oracles=STEADY + (
            positive("phi_suspects", why="the first pause never tripped the detector"),
            positive("phi_cooldown_blocks",
                     why="the second pause never exercised the re-suspicion cooldown"),
        ),
    ),
    # Hierarchy scenarios (docs/PROTOCOL.md §18)
    Scenario(
        "bridge-failover",
        """Crash a group's active bridge mid-stream; its successor takes over.

        The victim group's detector must evict the dead bridge, the lowest
        surviving member must assume the relay role, and the successor's
        re-forward of undelivered relays plus the backbone retransmit protocol
        must leave *zero* inter-group sequence gaps — every live entity
        converges on the same delivered set.
        """,
        # E4, group 1's lowest member, is its bridge until the crash.
        n=12, victim=4, config=HIERARCHY, schedule=((0.030, "cluster.crash", VICTIM),),
        traffic=(
            Traffic("pre", 12, start=0.0, spacing=0.002),
            Traffic("post", 8, start=0.040, spacing=0.005,
                    sources=tuple(i for i in range(12) if i != 4)),
        ),
        run=0.030 + EVICTION_WAIT, converge_on="post",
        oracles=(bridge_moved, gapless, consistent, converged, ordered),
    ),
    Scenario(
        "intergroup-partition",
        """Cut one group off the backbone mid-stream, then heal.

        Intra-group life goes on — the split must cause **no** member eviction
        anywhere (groups are internally healthy; only relays are dark) — and
        after the heal the bridges' retransmit protocol alone must close every
        inter-group gap and reconverge all entities.
        """,
        n=12, config=HIERARCHY,
        faults=lambda: {"backbone_loss": GroupPartition()},
        fired={"backbone_loss": "partitioned_drops"},
        schedule=(
            (0.005, "backbone_loss.partition", 0, 1),
            (0.005, "backbone_loss.partition", 0, 2),
            (0.120, "backbone_loss.heal"),
        ),
        traffic=(Traffic("split", 24, start=0.002, spacing=0.006),),
        run=0.180, converge_on="split",
        oracles=(steady, gapless, consistent, converged, ordered),
    ),
)

SCENARIOS: Dict[str, Scenario] = {spec.name: spec for spec in _SCENARIOS}


def run_nemesis(
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    rounds: int = 1,
    verbose: bool = False,
    record_dir: Optional[str] = None,
) -> List[NemesisOutcome]:
    """Run the selected scenarios ``rounds`` times with derived seeds.

    With ``record_dir`` a failing scenario dumps its complete trace logs in
    that directory (created on demand) and lists their paths under the
    outcome's ``flight_recordings`` observation.
    """
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario {unknown}; choose from {sorted(SCENARIOS)}")
    outcomes: List[NemesisOutcome] = []
    for round_index in range(rounds):
        for name in names:
            outcome = run_scenario(
                SCENARIOS[name], seed + round_index * 1009, record_dir=record_dir,
            )
            outcomes.append(outcome)
            if verbose:
                print(outcome.summary())
    return outcomes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        choices=sorted(SCENARIOS), metavar="SCENARIO",
                        help="run one scenario (repeatable; default: all): "
                             + ", ".join(SCENARIOS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="repeat the campaign with derived seeds")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--record-dir", default=os.environ.get("REPRO_FLIGHT_DIR"),
                        help="dump a JSONL flight recording here when a "
                             "scenario fails (default: $REPRO_FLIGHT_DIR)")
    args = parser.parse_args(argv)
    start_wall = time.perf_counter()
    outcomes = run_nemesis(
        scenarios=args.scenarios, seed=args.seed, rounds=args.rounds,
        verbose=args.verbose, record_dir=args.record_dir,
    )
    failures = [o for o in outcomes if not o.ok]
    wall = time.perf_counter() - start_wall
    status = "CLEAN" if not failures else f"{len(failures)} FAILURES"
    print(f"nemesis: {len(outcomes)} scenario runs, {wall:.1f}s wall — {status}")
    for failure in failures:
        print(f"  {failure.summary()}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
