#!/usr/bin/env python
"""Benchmark-regression harness for the PACK/ACK hot path.

Measures the protocol engine's real cost at several cluster sizes and
records the numbers in ``BENCH_hotpath.json`` so every later PR can be
held against a committed baseline:

* **engine points** — ``COEntity.on_pdu`` wall time per PDU on a
  *saturation* stream: n-1 sources whose ACK vectors trail ``lag`` rounds
  behind, so the receipt and pre-acknowledged logs stay O(n·lag) resident
  and every PDU exercises the PACK/ACK pipeline against full logs (the
  workload where a super-linear hot path shows up as a cost wall);
* **experiment points** — whole-cluster ``run_experiment`` runs (the
  bench_scale shape): deliveries per wall-clock second, resident
  high-water, modelled/measured Tco, with the §2.3 ordering-checker
  oracle (`repro.ordering.checker.verify_run`) asserted on every run;
* **convergence points** — time-to-converge after a loss storm: a
  repair-enabled cluster runs a fixed storm window against one victim,
  the storm stops, and the simulated time until the nemesis convergence
  oracle holds is recorded (the §15 repair-latency axis);
* **hierarchy points** — the sharding axis (docs/PROTOCOL.md §18): flat
  vs bridge-relayed cluster cells on one aggregate workload (deliveries/s,
  measured Tco), plus ``hierarchy_engine`` cells running the saturation
  stream through a rostered group-view engine — the structural proof that
  a 256-entity member pays the n=8 engine's per-PDU price;
* **detector points** — the failure-detection axis (§17): crash-detection
  latency and false evictions under the jittery-link fault schedule, one
  point per ``failure_detector`` mode, with an absolute gate pinning
  adaptive mode at zero false evictions where fixed timeouts flap;
* **suites** — the existing pytest benchmark suites (``bench_micro``,
  ``bench_fig8_processing``, ``bench_scale``) executed for pass/fail.

Modes
-----
``python benchmarks/regression.py``
    Full run: engine points at n ∈ {4, 8, 16, 32}; writes
    ``BENCH_hotpath.json`` at the repository root.
``python benchmarks/regression.py --smoke``
    CI-sized run (n ∈ {4, 8}, short streams, suites with benchmarking
    disabled); does not overwrite the committed baseline unless ``--out``
    says so.
``python benchmarks/regression.py --compare [BASELINE]``
    Re-measure, print the per-metric deltas against BASELINE (default:
    the committed ``BENCH_hotpath.json``) and exit non-zero if any
    tracked metric regressed by more than ``--threshold`` (default 15%).
    Comparison only pairs points whose ``n`` and workload shape match.

Re-baselining: run the full mode on a quiet machine and commit the new
``BENCH_hotpath.json`` alongside the change that justifies the shift.
See EXPERIMENTS.md ("Benchmark-regression harness") for field docs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from bench_codec import CHURN_LIMITS, churn_report  # noqa: E402
from repro.core.config import ProtocolConfig  # noqa: E402
from repro.core.entity import COEntity  # noqa: E402
from repro.core.pdu import DataPdu  # noqa: E402
from repro.harness.runner import ExperimentConfig, run_experiment  # noqa: E402
from repro.metrics.collector import hot_path_stats  # noqa: E402
from repro.sim.trace import TraceLog  # noqa: E402

DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_hotpath.json")
SUITES = ("bench_micro.py", "bench_fig8_processing.py", "bench_scale.py")

FULL = dict(sizes=(4, 8, 16, 32), rounds=160, lag=32, repeats=3,
            messages_per_entity=5, exp_repeats=2,
            converge_ns=(8, 32), converge_seeds=(11, 12, 13),
            topology_ns=(8, 32), topology_modes=("flood", "ring", "gossip"),
            topology_messages=20,
            detector_ns=(8, 32),
            hierarchy_cells=((8, None), (32, None), (64, 8), (256, 8)),
            hierarchy_total=256, hierarchy_repeats=3,
            hierarchy_engine_cells=((8, None), (32, None), (256, None),
                                    (64, 8), (256, 8)))
SMOKE = dict(sizes=(4, 8), rounds=40, lag=8, repeats=2,
             messages_per_entity=3, exp_repeats=1,
             converge_ns=(8,), converge_seeds=(11,),
             topology_ns=(8,), topology_modes=("flood", "ring", "gossip"),
             topology_messages=10,
             detector_ns=(8,),
             hierarchy_cells=((8, None), (16, 4), (64, 8)),
             hierarchy_total=64, hierarchy_repeats=1,
             hierarchy_engine_cells=((8, None), (64, None), (64, 8)))

#: Metrics compared against the baseline: (section, key, direction).
#: direction +1 means "bigger is worse", -1 means "smaller is worse".
TRACKED = (
    ("engine", "per_pdu_us", +1),
    ("experiments", "per_pdu_us", +1),
    ("experiments", "resident_high_water", +1),
    ("experiments", "deliveries_per_sec", -1),
    ("codec_churn", "bytes_per_op", +1),
    ("convergence", "converge_sim_s_mean", +1),
    ("topology", "copies_per_delivered_pdu", +1),
    ("topology", "per_pdu_us", +1),
    ("detector", "detect_latency_s", +1),
    ("detector", "false_evictions", +1),
    ("hierarchy", "per_pdu_us", +1),
    ("hierarchy", "deliveries_per_sec", -1),
    ("hierarchy_engine", "per_pdu_us", +1),
)


def saturation_stream(n: int, rounds: int, lag: int) -> List[DataPdu]:
    """A lagged-knowledge broadcast stream arriving at entity 0.

    Each of the n-1 peer sources sends one PDU per round, in round-robin
    arrival order.  A PDU's ACK vector reflects what its sender had
    accepted ``lag`` rounds earlier (its own component is current — a
    sender always knows its own log), so the receiver's minAL/minPAL trail
    the stream by ``lag`` rounds and O(n·lag) PDUs stay resident: the
    resident-log regime where super-linear PACK/ACK/CPI costs surface.
    """
    pdus: List[DataPdu] = []
    for r in range(1, rounds + 1):
        stale = max(0, r - lag)
        for s in range(1, n):
            ack = [1] * n
            for t in range(1, n):
                # Everyone has accepted every peer seq <= stale rounds ago.
                ack[t] = stale + 1 if t != s else r
            pdus.append(DataPdu(
                cid=1, src=s, seq=r, ack=tuple(ack), buf=10 ** 6, data="x",
            ))
    return pdus


def engine_point(n: int, rounds: int, lag: int, repeats: int) -> Dict[str, Any]:
    """Feed the saturation stream to one engine; report min-of-repeats."""
    pdus = saturation_stream(n, rounds, lag)
    best = float("inf")
    engine: Optional[COEntity] = None
    for _ in range(repeats):
        trace = TraceLog(enabled=False)
        engine = COEntity(0, n, ProtocolConfig(), clock=lambda: 0.0, trace=trace)
        engine.bind(send=lambda pdu: None, deliver=lambda m: None)
        start = time.perf_counter()
        for pdu in pdus:
            engine.on_pdu(pdu)
        best = min(best, time.perf_counter() - start)
    assert engine is not None
    # Sanity oracles: the stream is loss-free and in-order, so everything
    # up to the knowledge lag must have been accepted and acknowledged.
    expected_accepts = len(pdus)
    if engine.counters.accepted < expected_accepts:
        raise AssertionError(
            f"saturation stream not fully accepted at n={n}: "
            f"{engine.counters.accepted}/{expected_accepts}"
        )
    if engine.counters.acknowledged == 0:
        raise AssertionError(f"saturation stream acknowledged nothing at n={n}")
    return {
        "n": n,
        "pdus": len(pdus),
        "rounds": rounds,
        "lag": lag,
        "per_pdu_us": best / len(pdus) * 1e6,
        "resident_high_water": engine.resident_high_water,
        "acknowledged": engine.counters.acknowledged,
        "hot_path": hot_path_stats(engine.counters.snapshot()),
    }


def hierarchy_engine_point(n: int, group_size: Optional[int], rounds: int,
                           lag: int, repeats: int) -> Dict[str, Any]:
    """Saturation cost of one member's engine in an ``n``-entity cluster.

    This is the regime where the O(n) wall actually lives: the engine
    axis shows per-PDU cost climbing with cluster size under a
    lagged-knowledge stream, because knowledge matrices, ACK folds and
    resident logs are all sized by the membership view.  A hierarchical
    member's view is its *group*, not the cluster — its engine is a
    rostered ``group_size``-entry engine whatever the global n — so its
    saturation cost must pin to the small-group engine curve.  The flat
    contrast cell (``group_size=None``) runs the same stream through a
    full n-sized engine: the cost a member would pay if the cluster were
    not sharded.

    The effect measured here is structural (state and vector sizes), not
    a queueing artifact, which is what makes it gateable: the flat n=256
    engine costs several times the n=8 one on any machine, loaded or not.
    """
    results = hierarchy_engine_axis(((n, group_size),), rounds, lag, repeats)
    return results[0]


def _hierarchy_engine_attempt(n: int, group_size: Optional[int],
                              pdus: List[DataPdu]) -> Tuple[float, COEntity]:
    view = group_size or n
    roster = (None if group_size is None
              else tuple(range(0, n, n // group_size))[:group_size])
    trace = TraceLog(enabled=False)
    engine = COEntity(0, view, ProtocolConfig(), clock=lambda: 0.0,
                      trace=trace, roster=roster)
    engine.bind(send=lambda pdu: None, deliver=lambda m: None)
    start = time.perf_counter()
    for pdu in pdus:
        engine.on_pdu(pdu)
    elapsed = time.perf_counter() - start
    if engine.counters.accepted < len(pdus):
        raise AssertionError(
            f"saturation stream not fully accepted at n={n} "
            f"gs={group_size}: {engine.counters.accepted}/{len(pdus)}"
        )
    return elapsed, engine


def hierarchy_engine_axis(cells: Sequence[Tuple[int, Optional[int]]],
                          rounds: int, lag: int,
                          repeats: int) -> List[Dict[str, Any]]:
    """Measure the engine-regime cells with *interleaved* repeats.

    The gate compares member cells against the section's own flat
    reference engines, so the refs are measured here, round-robin with
    the member cells, rather than borrowed from the engine axis minutes
    earlier — every cell samples every machine-load window and the
    comparisons stay within-window (the same discipline as
    :func:`hierarchy_axis`).
    """
    streams = {gs or n: saturation_stream(gs or n, rounds, lag)
               for n, gs in cells}
    best: Dict[Tuple[int, Optional[int]], Tuple[float, COEntity]] = {}
    for _ in range(repeats):
        for n, group_size in cells:
            pdus = streams[group_size or n]
            elapsed, engine = _hierarchy_engine_attempt(n, group_size, pdus)
            key = (n, group_size)
            if key not in best or elapsed < best[key][0]:
                best[key] = (elapsed, engine)
    results = []
    for n, group_size in cells:
        view = group_size or n
        pdus = streams[view]
        elapsed, engine = best[(n, group_size)]
        results.append({
            "n": n,
            "group_size": group_size,
            "view": view,
            "pdus": len(pdus),
            "rounds": rounds,
            "lag": lag,
            "per_pdu_us": elapsed / len(pdus) * 1e6,
            "resident_high_water": engine.resident_high_water,
            "hot_path": hot_path_stats(engine.counters.snapshot()),
        })
    return results


def experiment_point(n: int, messages_per_entity: int,
                     repeats: int = 1) -> Dict[str, Any]:
    """Whole-cluster runs (bench_scale shape) with oracle verification.

    Wall time is best-of-``repeats`` — a single whole-cluster run's wall
    clock is noisy enough (simulator scheduling, allocator warm-up) to fake
    a regression.  Every repeat is verified against the ordering oracle.
    """
    config = ExperimentConfig(
        n=n,
        messages_per_entity=messages_per_entity,
        send_interval=5e-4,
        buffer_capacity=4 * n * 8,
    )
    wall = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        attempt = run_experiment(config)
        elapsed = time.perf_counter() - start
        if not attempt.quiesced:
            raise AssertionError(f"experiment at n={n} did not quiesce")
        attempt.report.assert_ok()  # ordering-checker oracle on every run
        if elapsed < wall:
            wall, result = elapsed, attempt
    assert result is not None
    delivered = result.messages_delivered
    return {
        "n": n,
        "wall_s": wall,
        "deliveries": delivered,
        "deliveries_per_sec": delivered / wall if wall > 0 else 0.0,
        "per_pdu_us": result.tco_measured * 1e6,
        "resident_high_water": result.resident_high_water,
        "verified": True,
        "hot_path": hot_path_stats(result.entity_counters),
    }


def topology_point(n: int, messages_per_entity: int, mode: str,
                   repeats: int = 1) -> Dict[str, Any]:
    """One cell of the dissemination-topology axis (docs/PROTOCOL.md §16).

    The same seeded workload runs once per dissemination mode.  The
    headline metric is per-destination datagram *copies* per delivered
    PDU — ``copies_sent`` counts a broadcast as n-1 copies and a relay
    unicast as one, so flood fan-out and relay routes compare on equal
    footing (counting frames would count a broadcast once and hide
    flood's fan-out entirely).  Batching is off so the axis isolates the
    topology effect, and every mode runs
    with the same anti-entropy cadence (gossip requires it; for flood and
    ring a repair tier that finds no deficit adds only digest traffic).

    The stream must be long enough to develop the congestion regime
    (``topology_messages``, not the short ``messages_per_entity`` the
    other axes use): flood's all-to-all fan-out only starts overflowing
    receive buffers — and paying the resulting RET storm — under
    sustained load, and that is exactly the regime where a relay
    pipeline's constant per-hop fan-in wins.  On short bursts everything
    fits and flood's single-hop latency is simply cheaper.
    """
    config = ExperimentConfig(
        n=n,
        messages_per_entity=messages_per_entity,
        send_interval=1e-4,
        buffer_capacity=4 * n * 8,
        cpu_base=10e-6,
        cpu_per_entity=1e-6,
        dissemination=mode,
        gossip_fanout=3,
        gossip_seed=1,
        # Repair cadences sized to the relay transit time: a ring hop costs
        # delay + cpu, so a full circulation at n=32 takes ~7.5 ms — repair
        # timers shorter than that race data still in flight and measure
        # the resulting RET storm instead of the topology.
        anti_entropy_interval=50e-3,
        ret_timeout=25e-3,
        deferred_interval=4e-3,
    )
    wall = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        attempt = run_experiment(config)
        elapsed = time.perf_counter() - start
        if not attempt.quiesced:
            raise AssertionError(
                f"topology run at n={n} mode={mode} did not quiesce"
            )
        attempt.report.assert_ok()
        if elapsed < wall:
            wall, result = elapsed, attempt
    assert result is not None
    delivered = result.messages_delivered
    copies = result.network.get("copies_sent", 0)
    return {
        "n": n,
        "mode": mode,
        "wall_s": wall,
        "deliveries": delivered,
        "copies_sent": copies,
        "copies_per_delivered_pdu": copies / delivered if delivered else 0.0,
        "per_pdu_us": result.tco_measured * 1e6,
        "deliveries_per_sec": delivered / wall if wall > 0 else 0.0,
        "relays_sent": result.entity_counters.get("relays_sent", 0),
        "relay_forwards": result.entity_counters.get("relay_forwards", 0),
        "verified": True,
    }


def hierarchy_point(n: int, group_size: Optional[int],
                    total_messages: int,
                    repeats: int = 1) -> Dict[str, Any]:
    """One cell of the hierarchy axis (docs/PROTOCOL.md §18).

    The same seeded workload runs either flat (``group_size=None`` — the
    reference cells) or sharded into bridge-relayed subgroups.  The
    headline metric here is system capacity: deliveries per wall-clock
    second on one fixed aggregate workload, where the flat cluster's
    throughput collapses as n grows and the sharded cells must not.  The
    per-PDU engine-cost claim is gated on the ``hierarchy_engine`` cells
    instead (see :func:`hierarchy_engine_point`): whole-cluster per-PDU
    numbers at this offered load are dominated by confirmation pacing
    and machine noise, not by the state-size wall the tier removes.

    Every cell carries the *same aggregate workload* — ``total_messages``
    originals at a fixed cluster-wide rate (one submission per 125 µs,
    so per-entity interval scales with n) — because the measured per-PDU
    cost is sensitive to per-member delivered volume and pacing, and a
    cell that delivered 32x the messages would not be comparing engine
    cost, it would be comparing workload regimes.  Deliveries/s counts
    every application-level delivery event (originals x members), the
    same accounting on both sides.

    The collector is paused during measurement: a 256-host heap is ~30x
    a flat-8 one, and gc cycles landing inside perf windows would charge
    allocator pressure — a function of cell *scale*, not of the engine —
    to whichever host happens to be running.  All cells of this axis run
    gc-free, so within-axis comparisons stay apples-to-apples.
    """
    best: Dict[Tuple[int, Optional[int]], _HierarchyBest] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            _hierarchy_attempt(n, group_size, total_messages, best)
    finally:
        if gc_was_enabled:
            gc.enable()
    return _hierarchy_cell_report(n, group_size, best[(n, group_size)])


class _HierarchyBest:
    """Per-cell minima across repeats (wall and per-PDU independently)."""

    __slots__ = ("wall", "tco", "result")

    def __init__(self) -> None:
        self.wall = float("inf")
        self.tco = float("inf")
        self.result = None

    def offer(self, wall: float, attempt: Any) -> None:
        self.wall = min(self.wall, wall)
        if attempt.tco_measured < self.tco:
            self.tco = attempt.tco_measured
            self.result = attempt


def _hierarchy_attempt(n: int, group_size: Optional[int],
                       total_messages: int,
                       best: Dict[Tuple[int, Optional[int]],
                                  "_HierarchyBest"]) -> None:
    config = ExperimentConfig(
        n=n,
        group_size=group_size,
        messages_per_entity=max(1, total_messages // n),
        send_interval=125e-6 * n,
        buffer_capacity=max(256, 4 * (group_size or n) * 8),
    )
    start = time.perf_counter()
    attempt = run_experiment(config)
    elapsed = time.perf_counter() - start
    if not attempt.quiesced:
        raise AssertionError(
            f"hierarchy run at n={n} group_size={group_size} did not quiesce"
        )
    attempt.report.assert_ok()
    best.setdefault((n, group_size), _HierarchyBest()).offer(elapsed, attempt)
    gc.collect()


def _hierarchy_cell_report(n: int, group_size: Optional[int],
                           best: "_HierarchyBest") -> Dict[str, Any]:
    result = best.result
    assert result is not None
    delivered = result.messages_delivered
    return {
        "n": n,
        "group_size": group_size,
        "wall_s": best.wall,
        "deliveries": delivered,
        "deliveries_per_sec": delivered / best.wall if best.wall > 0 else 0.0,
        "per_pdu_us": best.tco * 1e6,
        "simulated_s": result.simulated_time,
        "verified": True,
    }


def hierarchy_axis(cells: Sequence[Tuple[int, Optional[int]]],
                   total_messages: int,
                   repeats: int) -> List[Dict[str, Any]]:
    """Measure the whole axis with *interleaved* repeats.

    The axis's gate compares deliveries/s *across* cells, and a cell
    takes tens of seconds — long enough for background machine load to
    drift between cells.  Measuring the cells round-robin (every cell
    sampled once per round, minima taken per cell across rounds) means
    each cell gets a sample in every load window, so the per-cell minima
    the gate compares come from comparably quiet moments instead of
    whichever window the cell's one consecutive slot happened to land in.
    """
    best: Dict[Tuple[int, Optional[int]], _HierarchyBest] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_no in range(repeats):
            for n, group_size in cells:
                label = "flat" if group_size is None else f"gs={group_size}"
                print(f"[hierarchy] round {round_no + 1}/{repeats} "
                      f"n={n} {label} ...", flush=True)
                _hierarchy_attempt(n, group_size, total_messages, best)
    finally:
        if gc_was_enabled:
            gc.enable()
    return [
        _hierarchy_cell_report(n, group_size, best[(n, group_size)])
        for n, group_size in cells
    ]


def convergence_point(n: int, seeds: Tuple[int, ...],
                      messages_per_entity: int) -> Dict[str, Any]:
    """The time-to-converge axis (docs/PROTOCOL.md §15).

    A repair-enabled cluster submits its whole workload under a loss storm
    aimed at one victim (most inbound copies dropped, control PDUs
    included); the storm stops after a fixed simulated window.  The metric
    is the *simulated* time from submission until the nemesis convergence
    oracle holds — every live entity accounts for the same ids and every
    payload is delivered.  It measures the repair tiers' healing latency,
    not host CPU, so it is deterministic per seed; the point reports the
    mean and max across the seed set plus the repair-counter totals that
    prove the healing went through the anti-entropy path.
    """
    from repro.core.cluster import build_cluster
    from repro.harness.nemesis import run_until_converged
    from repro.net.loss import TargetedLoss
    from repro.sim.rng import RngRegistry

    storm_rate, storm_window = 0.75, 0.15
    times: List[float] = []
    wall = float("inf")
    repair_totals: Dict[str, int] = {}
    for seed in seeds:
        storm = TargetedLoss({n - 1}, rate=storm_rate)
        config = ProtocolConfig(
            suspect_timeout=0.05,
            anti_entropy_interval=0.01,
            delta_sync_threshold=8,
        )
        cluster = build_cluster(
            n, config=config, loss=storm, rngs=RngRegistry(seed),
        )
        expected = []
        for k in range(messages_per_entity):
            for i in range(n):
                payload = f"c-{i}-{k}"
                cluster.submit(i, payload)
                expected.append(payload)
        start = time.perf_counter()
        cluster.run_for(storm_window)
        storm.rate = 0.0
        times.append(storm_window + run_until_converged(
            cluster, list(range(n)), expected=expected, max_time=60.0,
        ))
        wall = min(wall, time.perf_counter() - start)
        for member in cluster.counters():
            for key, value in member["engine"].items():
                if key.startswith(("digests", "pull", "delta", "repair")):
                    repair_totals[key] = repair_totals.get(key, 0) + value
    return {
        "n": n,
        "seeds": list(seeds),
        "storm_rate": storm_rate,
        "storm_window_s": storm_window,
        "converge_sim_s_mean": sum(times) / len(times),
        "converge_sim_s_max": max(times),
        "wall_s": wall,
        "repair": repair_totals,
    }


def detector_point(n: int, seeds: Tuple[int, ...],
                   mode_name: str) -> Dict[str, Any]:
    """The failure-detection axis (docs/PROTOCOL.md §17), one mode per point.

    Two deterministic sub-measurements at the gray timing profile the
    nemesis scenarios use (tight 10ms/30ms suspect/evict budgets):

    * **false evictions under jitter** — the jittery-link spike schedule
      runs against a live victim; the count is how many survivor engines
      ever installed a view without the victim.  Adaptive mode must pin
      this at zero while the fixed-timeout baseline flaps (the headline
      discrimination claim, enforced absolutely by :func:`detector_gate`);
    * **crash-detection latency** — on a separate clean cluster with
      trained inter-arrival windows, one member really crashes and the
      simulated time until a survivor suspects it is recorded.  Adaptive
      suspicion is floored at the fixed bound, so its latency may trail
      fixed mode's — the gate caps the regression at 2x.

    Both run in simulated time on seeded RNGs, so like the convergence
    axis the numbers are deterministic per seed.
    """
    from dataclasses import replace  # noqa: PLC0415

    from repro.harness.nemesis import (  # noqa: PLC0415
        ADAPTIVE, GRAY, SCENARIOS, Traffic, detect_crash, false_evictions,
        start,
    )

    # Jitter phase: the jittery-link scenario's spikes and traffic at a
    # live victim, on this mode's detector.
    jitter = replace(
        SCENARIOS["jittery-link"], n=n, victim=n - 2,
        config=ADAPTIVE if mode_name == "adaptive" else GRAY,
    )
    # Crash phase: a clean cluster trains its windows on healthy traffic,
    # then the victim really dies.
    clean = replace(
        jitter, faults=dict, schedule=(), run=0.12,
        traffic=(Traffic("t", 12, start=0.002, spacing=0.006),),
    )
    latencies: List[float] = []
    evictions = 0
    wall = float("inf")
    for seed in seeds:
        begin = time.perf_counter()
        run = start(jitter, seed)
        run.play()
        evictions += false_evictions(run)
        run = start(clean, seed)
        run.play()
        latencies.append(detect_crash(run))
        wall = min(wall, time.perf_counter() - begin)
    return {
        "n": n,
        "mode": mode_name,
        "seeds": list(seeds),
        "detect_latency_s": sum(latencies) / len(latencies),
        "detect_latency_s_max": max(latencies),
        "false_evictions": evictions,
        "wall_s": wall,
    }


def run_suites(smoke: bool) -> Dict[str, str]:
    """Execute the existing benchmark suites; record pass/fail."""
    outcomes: Dict[str, str] = {}
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for suite in SUITES:
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               os.path.join("benchmarks", suite)]
        if smoke:
            cmd.append("--benchmark-disable")
        else:
            cmd.append("--benchmark-only")
        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        outcomes[suite] = "passed" if proc.returncode == 0 else "FAILED"
        if proc.returncode != 0:
            print(f"--- {suite} output ---\n{proc.stdout}", file=sys.stderr)
    return outcomes


def measure(mode: Dict[str, Any], smoke: bool, skip_suites: bool) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "workload": {"rounds": mode["rounds"], "lag": mode["lag"]},
        "engine": [],
        "experiments": [],
        "topology": [],
        "hierarchy": [],
        "hierarchy_engine": [],
        "convergence": [],
        "detector": [],
        "codec_churn": [],
        "suites": {},
    }
    for n in mode["sizes"]:
        print(f"[engine] n={n} ...", flush=True)
        point = engine_point(n, mode["rounds"], mode["lag"], mode["repeats"])
        print(f"[engine] n={n}: {point['per_pdu_us']:.1f} us/PDU, "
              f"resident high-water {point['resident_high_water']}")
        report["engine"].append(point)
    by_n = {p["n"]: p["per_pdu_us"] for p in report["engine"]}
    lo, hi = min(by_n), max(by_n)
    if lo != hi and by_n[lo] > 0:
        # The scaling headline: per-PDU cost growth across the measured
        # cluster-size range (the flat-array target is <= 1.5x for 8->32).
        ratio = by_n[hi] / by_n[lo]
        report["engine_scaling"] = {"n_lo": lo, "n_hi": hi, "ratio": ratio}
        print(f"[engine] per-PDU cost ratio n={hi} vs n={lo}: {ratio:.2f}x")
    for n in mode["sizes"]:
        print(f"[experiment] n={n} ...", flush=True)
        point = experiment_point(n, mode["messages_per_entity"],
                                 mode["exp_repeats"])
        print(f"[experiment] n={n}: {point['deliveries_per_sec']:.0f} deliveries/s, "
              f"{point['per_pdu_us']:.1f} us/PDU, "
              f"resident high-water {point['resident_high_water']}")
        report["experiments"].append(point)
    for n in mode["topology_ns"]:
        cells_by_mode: Dict[str, Dict[str, Any]] = {}
        for topo in mode["topology_modes"]:
            print(f"[topology] n={n} mode={topo} ...", flush=True)
            point = topology_point(n, mode["topology_messages"], topo,
                                   mode["exp_repeats"])
            print(f"[topology] n={n} mode={topo}: "
                  f"{point['copies_per_delivered_pdu']:.2f} copies/delivered "
                  f"PDU, {point['per_pdu_us']:.1f} us/PDU")
            report["topology"].append(point)
            cells_by_mode[topo] = point
        flood_cell = cells_by_mode.get("flood")
        ring_cell = cells_by_mode.get("ring")
        if flood_cell and ring_cell:
            ratio = (flood_cell["copies_per_delivered_pdu"]
                     / max(ring_cell["copies_per_delivered_pdu"], 1e-12))
            print(f"[topology] n={n}: ring sends {ratio:.2f}x fewer copies "
                  f"per delivered PDU than flood")
    hierarchy_cells: Dict[Tuple[int, Optional[int]], Dict[str, Any]] = {}
    for point in hierarchy_axis(mode["hierarchy_cells"],
                                mode["hierarchy_total"],
                                mode["hierarchy_repeats"]):
        n, group_size = point["n"], point["group_size"]
        label = "flat" if group_size is None else f"gs={group_size}"
        print(f"[hierarchy] n={n} {label}: {point['per_pdu_us']:.1f} us/PDU, "
              f"{point['deliveries_per_sec']:.0f} deliveries/s")
        report["hierarchy"].append(point)
        hierarchy_cells[(n, group_size)] = point
    flat32 = hierarchy_cells.get((32, None))
    for (n, group_size), point in sorted(
            hierarchy_cells.items(), key=lambda kv: kv[0][0]):
        if group_size is None or not flat32:
            continue
        ratio = (point["deliveries_per_sec"]
                 / max(flat32["deliveries_per_sec"], 1e-12))
        print(f"[hierarchy] n={n} gs={group_size}: delivers {ratio:.2f}x "
              f"the flat n=32 cluster's rate")
    print("[hierarchy-engine] measuring "
          f"{len(mode['hierarchy_engine_cells'])} cells, "
          f"{mode['repeats']} interleaved round(s) ...", flush=True)
    engine_cells = hierarchy_engine_axis(mode["hierarchy_engine_cells"],
                                         mode["rounds"], mode["lag"],
                                         mode["repeats"])
    flat_engine_by_n = {p["n"]: p["per_pdu_us"] for p in engine_cells
                        if p["group_size"] is None}
    for point in engine_cells:
        n, group_size = point["n"], point["group_size"]
        label = "flat" if group_size is None else f"gs={group_size}"
        print(f"[hierarchy-engine] n={n} {label}: "
              f"{point['per_pdu_us']:.1f} us/PDU "
              f"(view size {point['view']}, "
              f"resident high-water {point['resident_high_water']})")
        report["hierarchy_engine"].append(point)
        ref = (flat_engine_by_n.get(group_size)
               if group_size is not None else None)
        if ref:
            print(f"[hierarchy-engine] n={n} {label}: member engine cost "
                  f"{point['per_pdu_us'] / ref:.2f}x the flat n={group_size} "
                  f"engine")
    for n in mode["converge_ns"]:
        print(f"[convergence] n={n} ...", flush=True)
        point = convergence_point(n, mode["converge_seeds"],
                                  mode["messages_per_entity"])
        print(f"[convergence] n={n}: "
              f"{point['converge_sim_s_mean'] * 1e3:.1f} ms mean, "
              f"{point['converge_sim_s_max'] * 1e3:.1f} ms max "
              f"time-to-converge over {len(point['seeds'])} seed(s)")
        report["convergence"].append(point)
    for n in mode["detector_ns"]:
        for det_mode in ("fixed", "adaptive"):
            print(f"[detector] n={n} mode={det_mode} ...", flush=True)
            point = detector_point(n, mode["converge_seeds"], det_mode)
            print(f"[detector] n={n} mode={det_mode}: "
                  f"{point['detect_latency_s'] * 1e3:.1f} ms crash-detection "
                  f"mean, {point['false_evictions']} false eviction(s) "
                  f"under jitter")
            report["detector"].append(point)
    print("[codec] allocation churn ...", flush=True)
    for point in churn_report():
        print(f"[codec] {point['op']}: {point['bytes_per_op']:.0f} "
              f"bytes/frame churn ({point['frame_bytes']} B frames)")
        report["codec_churn"].append(point)
    if not skip_suites:
        report["suites"] = run_suites(smoke)
        for suite, outcome in report["suites"].items():
            print(f"[suite] {suite}: {outcome}")
    return report


def churn_gate(report: Dict[str, Any]) -> List[str]:
    """Absolute ceilings on codec allocation churn (the CI smoke gate).

    Unlike the relative --compare check this needs no baseline file: each
    tracked shape carries a pinned bytes-per-frame ceiling
    (``bench_codec.CHURN_LIMITS``), so a smoke run in CI fails outright if
    the codec starts copying again.
    """
    failures: List[str] = []
    for point in report.get("codec_churn", []):
        limit = CHURN_LIMITS.get(point["op"])
        if limit is not None and point["bytes_per_op"] > limit:
            failures.append(
                f"codec_churn[{point['op']}]: {point['bytes_per_op']:.0f} "
                f"bytes/frame exceeds pinned ceiling {limit:.0f}"
            )
    return failures


def topology_gate(report: Dict[str, Any]) -> List[str]:
    """The headline claim of the topology axis, checked absolutely.

    At scale (n >= 16) the ring must put fewer per-destination copies on
    the wire per delivered PDU than flood — that is the whole point of a
    relay topology, and the simulation is deterministic per seed, so this
    needs no baseline file.  Small-n cells are exempt: with few members a
    broadcast costs little more than the ring's n-1 hops, and the ring's
    repair traffic can tip it slightly over.
    """
    failures: List[str] = []
    cells = {(p["n"], p["mode"]): p for p in report.get("topology", [])}
    for (n, mode), point in sorted(cells.items()):
        if mode != "ring" or n < 16:
            continue
        flood = cells.get((n, "flood"))
        if flood is None:
            continue
        ours = point["copies_per_delivered_pdu"]
        theirs = flood["copies_per_delivered_pdu"]
        if ours >= theirs:
            failures.append(
                f"topology[n={n}]: ring sends {ours:.2f} copies per "
                f"delivered PDU, not under flood's {theirs:.2f}"
            )
    return failures


def detector_gate(report: Dict[str, Any]) -> List[str]:
    """The failure-detection axis's headline claims, checked absolutely.

    Under the jittery-link fault schedule the adaptive detector must never
    evict the live victim, and at n=8 the fixed-timeout baseline must —
    that contrast is the whole point of the axis (and the acceptance
    criterion of the phi-accrual work).  Adaptive crash-detection latency
    may trail the fixed scan (the absolute silence floor guarantees it is
    never *earlier*) but by at most 2x.  All deterministic per seed, so no
    baseline file is needed.
    """
    failures: List[str] = []
    cells = {(p["n"], p["mode"]): p for p in report.get("detector", [])}
    for n in sorted({key[0] for key in cells}):
        adaptive = cells.get((n, "adaptive"))
        fixed = cells.get((n, "fixed"))
        if adaptive is None or fixed is None:
            continue
        if adaptive["false_evictions"] != 0:
            failures.append(
                f"detector[n={n}]: adaptive mode evicted a live-but-jittery "
                f"peer {adaptive['false_evictions']} time(s); must be zero"
            )
        if n == 8 and fixed["false_evictions"] < 1:
            failures.append(
                "detector[n=8]: fixed-timeout baseline rode out the jitter "
                "spikes — the axis lost its discriminating power"
            )
        if fixed["detect_latency_s"] > 0 and (
                adaptive["detect_latency_s"]
                > 2.0 * fixed["detect_latency_s"]):
            failures.append(
                f"detector[n={n}]: adaptive crash detection took "
                f"{adaptive['detect_latency_s'] * 1e3:.1f} ms, over 2x the "
                f"fixed baseline's {fixed['detect_latency_s'] * 1e3:.1f} ms"
            )
    return failures


def hierarchy_gate(report: Dict[str, Any]) -> List[str]:
    """The hierarchy axis's headline claims, checked absolutely.

    Engine regime (``hierarchy_engine`` cells, the saturation stream):
    a hierarchical member's engine is sized by its *group* view, so its
    per-PDU cost must (1) stay within 1.3x the section's flat engine of
    its group size (the ISSUE 10 acceptance bar: the 256-entity member
    pays the n=8 engine's price), and (2) stay below every flat
    reference engine with a larger view — n=32 and n=256 in the full
    mode.  These are structural state-size effects with multi-x margins,
    and all cells of the section are measured in one interleaved window,
    so the comparison is robust to machine load.

    System regime (``hierarchy`` cluster cells): sharding must buy real
    capacity — every sharded cluster cell has to out-deliver the flat
    n=32 cluster on the same aggregate workload (the throughput wall the
    ROADMAP cites: 3.7k -> 1.2k deliveries/s as n grows flat).
    """
    failures: List[str] = []
    flat_engines = {p["n"]: p["per_pdu_us"]
                    for p in report.get("hierarchy_engine", [])
                    if p.get("group_size") is None}
    for point in report.get("hierarchy_engine", []):
        group_size = point.get("group_size")
        if group_size is None:
            continue
        n, cost = point["n"], point["per_pdu_us"]
        ref_small = flat_engines.get(group_size)
        if ref_small is not None and cost > 1.3 * ref_small:
            failures.append(
                f"hierarchy_engine[n={n},gs={group_size}]: {cost:.1f} us/PDU "
                f"exceeds 1.3x the flat n={group_size} engine "
                f"({ref_small:.1f} us/PDU)"
            )
        for flat_n, flat_cost in sorted(flat_engines.items()):
            if flat_n > group_size and cost >= flat_cost:
                failures.append(
                    f"hierarchy_engine[n={n},gs={group_size}]: {cost:.1f} "
                    f"us/PDU is not below the flat n={flat_n} engine "
                    f"({flat_cost:.1f} us/PDU)"
                )
    cells = {(p["n"], p.get("group_size")): p
             for p in report.get("hierarchy", [])}
    flat32 = cells.get((32, None))
    if flat32 is not None:
        for (n, group_size), point in sorted(cells.items()):
            if group_size is None:
                continue
            if point["deliveries_per_sec"] <= flat32["deliveries_per_sec"]:
                failures.append(
                    f"hierarchy[n={n},gs={group_size}]: "
                    f"{point['deliveries_per_sec']:.0f} deliveries/s does "
                    f"not beat the flat n=32 cluster "
                    f"({flat32['deliveries_per_sec']:.0f} deliveries/s)"
                )
    return failures


def _index_points(section: List[Dict[str, Any]]) -> Dict[Tuple, Dict[str, Any]]:
    # Topology points carry a mode, codec-churn points a shape label and
    # hierarchy points a group size; plain points key on n alone.
    return {
        (point["n"], point.get("op"), point.get("mode"),
         point.get("group_size")): point
        for point in section
    }


def compare(current: Dict[str, Any], baseline: Dict[str, Any],
            threshold: float) -> Tuple[List[str], List[str]]:
    """Pair up points by n and check every tracked metric.

    Returns (regressions, lines): the failures and the full delta table.
    """
    regressions: List[str] = []
    lines: List[str] = []
    if current.get("workload") != baseline.get("workload"):
        lines.append(
            f"note: workload shapes differ (current {current.get('workload')}, "
            f"baseline {baseline.get('workload')}); timing deltas may not be "
            f"like-for-like"
        )
    for section, key, direction in TRACKED:
        base_points = _index_points(baseline.get(section, []))
        for point in current.get(section, []):
            base = base_points.get(
                (point["n"], point.get("op"),
                 point.get("mode"), point.get("group_size"))
            )
            if base is None or key not in base or key not in point:
                continue
            old, new = float(base[key]), float(point[key])
            if old == 0:
                continue
            delta = (new - old) / old
            worse = delta * direction > threshold
            if delta == 0:
                better = "unchanged"
            else:
                better = "improved" if delta * direction < 0 else "regressed"
            axis = f"n={point['n']}"
            if point.get("op") is not None:
                axis += f",op={point['op']}"
            if point.get("mode") is not None:
                axis += f",mode={point['mode']}"
            if point.get("group_size") is not None:
                axis += f",gs={point['group_size']}"
            lines.append(
                f"{section}[{axis}].{key}: {old:.2f} -> {new:.2f} "
                f"({delta * 100:+.1f}%, {better})"
            )
            if worse:
                regressions.append(lines[-1])
    for suite, outcome in current.get("suites", {}).items():
        if outcome != "passed":
            regressions.append(f"suite {suite}: {outcome}")
    return regressions, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small n, short streams)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help=f"where to write the report (default {DEFAULT_OUT};"
                             " smoke mode defaults to not writing)")
    parser.add_argument("--compare", nargs="?", const=DEFAULT_OUT, default=None,
                        metavar="BASELINE",
                        help="compare against a baseline JSON and fail on "
                             "regression (default baseline: the committed "
                             "BENCH_hotpath.json)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fractional regression tolerance (default 0.15)")
    parser.add_argument("--skip-suites", action="store_true",
                        help="skip the pytest benchmark suites")
    parser.add_argument("--stats-out", default=None, metavar="PATH",
                        help="additionally write just the hot_path_stats "
                             "snapshots (per point) as JSON — the CI bench "
                             "job drops this next to BENCH_hotpath.json")
    args = parser.parse_args(argv)

    mode = dict(SMOKE if args.smoke else FULL)
    report = measure(mode, smoke=args.smoke, skip_suites=args.skip_suites)

    out = args.out
    if out is None and not args.smoke:
        out = DEFAULT_OUT
    if out:
        with open(out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {out}")

    if args.stats_out:
        stats = {
            "mode": report["mode"],
            "engine": [
                {"n": p["n"], "hot_path": p["hot_path"]}
                for p in report["engine"]
            ],
            "experiments": [
                {"n": p["n"], "hot_path": p["hot_path"]}
                for p in report["experiments"]
            ],
        }
        with open(args.stats_out, "w") as f:
            json.dump(stats, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.stats_out}")

    failed = [s for s, outcome in report["suites"].items() if outcome != "passed"]
    if failed:
        print(f"FAIL: benchmark suites failed: {', '.join(failed)}", file=sys.stderr)
        return 1

    churn_failures = churn_gate(report)
    if churn_failures:
        print("FAIL: codec allocation churn beyond pinned ceilings:",
              file=sys.stderr)
        for failure in churn_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    topology_failures = topology_gate(report)
    if topology_failures:
        print("FAIL: dissemination-topology axis lost its headline claim:",
              file=sys.stderr)
        for failure in topology_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    detector_failures = detector_gate(report)
    if detector_failures:
        print("FAIL: failure-detection axis lost its headline claims:",
              file=sys.stderr)
        for failure in detector_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    hierarchy_failures = hierarchy_gate(report)
    if hierarchy_failures:
        print("FAIL: hierarchy axis lost its headline claims:",
              file=sys.stderr)
        for failure in hierarchy_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if args.compare:
        try:
            with open(args.compare) as f:
                baseline = json.load(f)
        except OSError as exc:
            print(f"cannot read baseline {args.compare}: {exc}", file=sys.stderr)
            return 2
        regressions, lines = compare(report, baseline, args.threshold)
        print(f"\ncomparison vs {args.compare} "
              f"(threshold {args.threshold * 100:.0f}%):")
        for line in lines:
            print(f"  {line}")
        if regressions:
            print("\nFAIL: regressions beyond threshold:", file=sys.stderr)
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            return 1
        print("OK: no tracked metric regressed beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
