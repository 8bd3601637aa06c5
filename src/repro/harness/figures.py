"""One generator per paper artifact.

Each function runs the relevant sweep and returns an :class:`Artifact` with
the regenerated table (text) and the underlying data, ready to be pasted
into EXPERIMENTS.md.  ``python -m repro.harness.figures`` regenerates
everything and prints it; pass ``--fast`` for a reduced sweep.

Absolute times are simulator-model times, not 1994 SPARC2 milliseconds; the
comparisons that matter are the *shapes* recorded in DESIGN.md §4.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.sweeps import sweep
from repro.metrics.reporting import format_table
from repro.metrics.stats import linear_fit


@dataclass
class Artifact:
    """One regenerated table/figure."""

    experiment_id: str
    paper_ref: str
    title: str
    table: str
    data: Dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        lines = [
            f"### {self.experiment_id} — {self.title}",
            f"(paper: {self.paper_ref})",
            "",
            "```",
            self.table,
            "```",
        ]
        if self.notes:
            lines += ["", self.notes]
        return "\n".join(lines)


def _base(fast: bool) -> ExperimentConfig:
    return ExperimentConfig(
        messages_per_entity=10 if fast else 30,
        send_interval=1e-3,
        payload_size=512,
    )


# ----------------------------------------------------------------------
# Figure 8: Tco and Tap versus cluster size
# ----------------------------------------------------------------------
def figure8(fast: bool = False) -> Artifact:
    """Processing time per PDU (Tco) and application-to-application delay
    (Tap) as functions of the number of entities."""
    ns = [2, 3, 4, 6, 8] if fast else [2, 3, 4, 5, 6, 8, 10]
    results = sweep(_base(fast), "n", ns)
    tco_ms = [r.tco * 1e3 for r in results]
    tco_real_us = [r.tco_measured * 1e6 for r in results]
    tap_ms = [r.tap.mean * 1e3 for r in results]
    rows = [
        [r.config.n, f"{tco:.4f}", f"{real:.1f}", f"{tap:.4f}"]
        for r, tco, real, tap in zip(results, tco_ms, tco_real_us, tap_ms)
    ]
    fit_tco = linear_fit(ns, tco_ms)
    fit_tap = linear_fit(ns, tap_ms)
    table = format_table(
        ["n", "Tco model [ms/PDU]", "Tco measured [us/PDU]", "Tap [ms]"], rows,
    )
    notes = (
        f"linear fit: modelled Tco slope={fit_tco.slope:.5f} ms/entity "
        f"(R²={fit_tco.r_squared:.3f}); "
        f"Tap slope={fit_tap.slope:.5f} ms/entity (R²={fit_tap.r_squared:.3f}). "
        "The measured column is real Python time inside the engine per PDU "
        "(noisy, but also growing with n — the work is vector-sized). "
        "Paper shape: both curves grow roughly linearly in n (processing "
        "overhead of each entity is O(n))."
    )
    return Artifact(
        "fig8", "Figure 8", "Processing time and delay time vs cluster size",
        table,
        data={"n": ns, "tco_ms": tco_ms, "tco_real_us": tco_real_us,
              "tap_ms": tap_ms},
        notes=notes,
    )


# ----------------------------------------------------------------------
# Claim C1: deferred confirmation => O(n) PDUs per broadcast round
# ----------------------------------------------------------------------
def claim_c1_pdu_complexity(fast: bool = False) -> Artifact:
    """PDUs on the wire per delivered message: deferred vs immediate
    confirmation, across cluster sizes."""
    ns = [2, 4, 6] if fast else [2, 4, 6, 8, 10]
    data: Dict[str, List[float]] = {"n": ns, "deferred": [], "immediate": []}
    for mode, protocol in (("deferred", "co"), ("immediate", "co-immediate")):
        for n in ns:
            result = run_experiment(_base(fast).with_(n=n, protocol=protocol))
            data[mode].append(result.total_pdus_on_wire)
    rows = []
    for i, n in enumerate(ns):
        deferred = data["deferred"][i]
        immediate = data["immediate"][i]
        rows.append([n, deferred, immediate, f"{immediate / deferred:.2f}x"])
    table = format_table(
        ["n", "PDUs (deferred)", "PDUs (immediate)", "immediate/deferred"], rows,
    )
    notes = (
        "Same workload, total PDUs on the wire.  Deferred confirmation grows "
        "O(n) per broadcast round; confirm-per-receipt grows O(n²) — the "
        "ratio widens with n, matching §5."
    )
    return Artifact(
        "c1-pdu-complexity", "§5 claim C1",
        "Deferred vs immediate confirmation traffic", table, data=data, notes=notes,
    )


# ----------------------------------------------------------------------
# Claim C2: pre-ack at ~R, ack at ~2R after acceptance
# ----------------------------------------------------------------------
def claim_c2_ack_latency(fast: bool = False) -> Artifact:
    """Time from acceptance to pre-acknowledgment and acknowledgment,
    against the propagation delay R, under parallel confirmation traffic."""
    delays = [100e-6, 200e-6] if fast else [100e-6, 200e-6, 400e-6, 800e-6]
    rows = []
    data: Dict[str, List[float]] = {"R": [], "preack": [], "ack": []}
    for delay in delays:
        # Confirmations must flow at network speed without queueing noise:
        # a light load (inter-send spacing well above the service time) and
        # a deferred window comparable to R keep the R/2R signal visible —
        # the §5 regime where confirming PDUs are "broadcast in parallel".
        config = _base(fast).with_(
            n=4, delay=delay,
            send_interval=max(delay, 4e-4),
            deferred_interval=delay / 2,
            cpu_base=2e-6, cpu_per_entity=5e-7,
        )
        result = run_experiment(config)
        data["R"].append(delay)
        data["preack"].append(result.preack_latency.p50)
        data["ack"].append(result.ack_latency.p50)
        rows.append([
            f"{delay * 1e6:.0f}",
            f"{result.preack_latency.p50 * 1e6:.0f}",
            f"{result.ack_latency.p50 * 1e6:.0f}",
            f"{result.preack_latency.p50 / delay:.2f}",
            f"{result.ack_latency.p50 / delay:.2f}",
        ])
    table = format_table(
        ["R [us]", "preack p50 [us]", "ack p50 [us]", "preack/R", "ack/R"], rows,
    )
    notes = (
        "§5: with confirmations flowing in parallel, pre-acknowledgment "
        "follows acceptance by about R and acknowledgment by about 2R.  "
        "Measured: preack ≈ 1.0–1.3 R and ack ≈ 2× preack across the sweep."
    )
    return Artifact(
        "c2-ack-latency", "§5 claim C2",
        "Pre-ack/ack latency vs propagation delay", table, data=data, notes=notes,
    )


# ----------------------------------------------------------------------
# Claim C3: buffer requirement O(n)
# ----------------------------------------------------------------------
def claim_c3_buffer(fast: bool = False) -> Artifact:
    """Peak resident PDUs per entity across cluster sizes (claim: O(n),
    ≈ 2nW between receipt and acknowledgment)."""
    ns = [2, 4, 6] if fast else [2, 4, 6, 8, 10]
    results = sweep(_base(fast), "n", ns)
    high = [r.resident_high_water for r in results]
    fit = linear_fit(ns, high)
    rows = [
        [r.config.n, r.resident_high_water, 2 * r.config.n * r.config.window]
        for r in results
    ]
    table = format_table(["n", "peak resident PDUs", "2nW bound"], rows)
    notes = (
        f"Peak PDUs held in SL+RRL+PRL+stash, vs the paper's 2nW budget "
        f"(W={results[0].config.window}).  Linear fit slope="
        f"{fit.slope:.2f} PDUs/entity (R²={fit.r_squared:.3f}): memory grows "
        "linearly in n and stays under the 2nW bound."
    )
    return Artifact(
        "c3-buffer", "§5 claim C3", "Buffer requirement vs cluster size",
        table, data={"n": ns, "high_water": high}, notes=notes,
    )


# ----------------------------------------------------------------------
# Claim C4: selective retransmission vs go-back-n
# ----------------------------------------------------------------------
def claim_c4_retransmission(fast: bool = False) -> Artifact:
    """Retransmission traffic and completion time: selective vs go-back-n,
    across loss rates."""
    # The fast sweep needs a lossy top end: with only a handful of loss
    # events both schemes repair the same few PDUs and the counts tie.
    loss_rates = [0.05, 0.20] if fast else [0.01, 0.02, 0.05, 0.10, 0.15]
    rows = []
    data: Dict[str, List[float]] = {
        "loss": loss_rates, "sel_retx": [], "gbn_retx": [],
        "sel_time": [], "gbn_time": [],
    }
    for loss in loss_rates:
        sel = run_experiment(_base(fast).with_(protocol="co", loss_rate=loss, n=4))
        gbn = run_experiment(_base(fast).with_(protocol="co-gbn", loss_rate=loss, n=4))
        data["sel_retx"].append(sel.entity_counters.get("retransmissions", 0))
        data["gbn_retx"].append(gbn.entity_counters.get("retransmissions", 0))
        data["sel_time"].append(sel.simulated_time)
        data["gbn_time"].append(gbn.simulated_time)
        rows.append([
            f"{loss:.0%}",
            data["sel_retx"][-1],
            data["gbn_retx"][-1],
            f"{sel.simulated_time * 1e3:.1f}",
            f"{gbn.simulated_time * 1e3:.1f}",
        ])
    table = format_table(
        ["loss", "retx (selective)", "retx (go-back-n)",
         "done [ms] (sel)", "done [ms] (gbn)"],
        rows,
    )
    notes = (
        "Identical engine, only the retransmission scheme differs.  "
        "Go-back-n rebroadcasts every PDU from the first missing one and "
        "discards out-of-order arrivals, so its retransmission count grows "
        "much faster with the loss rate — §5's argument for selective "
        "retransmission on high-speed networks."
    )
    return Artifact(
        "c4-retransmission", "§5 claim C4", "Selective vs go-back-n recovery",
        table, data=data, notes=notes,
    )


# ----------------------------------------------------------------------
# Claim C5: CO vs ISIS CBCAST
# ----------------------------------------------------------------------
def claim_c5_vs_isis(fast: bool = False) -> Artifact:
    """CO vs CBCAST: delivery latency, traffic, and behaviour under loss."""
    n = 4
    base = _base(fast).with_(n=n)
    co = run_experiment(base.with_(protocol="co"))
    cb = run_experiment(base.with_(protocol="cbcast"))
    # The loss round: same loss for both; CO recovers, CBCAST stalls.
    co_loss = run_experiment(base.with_(protocol="co", loss_rate=0.05))
    cb_loss = run_experiment(
        base.with_(protocol="cbcast", loss_rate=0.05, max_time=1.0)
    )
    stalled = sum(
        getattr(e, "stalled_messages", 0) for e in cb_loss.cluster.engines
    )
    # Header sizes from the wire formats (both O(n) integers; the paper's
    # §5 point is computation and loss detectability, not bytes).
    co_header = (4 + n) * 4
    cb_header = (1 + n) * 4
    rows = [
        ["delivered / sent (no loss)",
         f"{co.messages_delivered}/{co.report.messages_sent * n}",
         f"{cb.messages_delivered}/{cb.report.messages_sent * n}"],
        ["mean delivery latency [ms]",
         f"{co.tap.mean * 1e3:.3f}", f"{cb.tap.mean * 1e3:.3f}"],
        ["PDUs on wire (no loss)", co.total_pdus_on_wire, cb.total_pdus_on_wire],
        ["data header bytes (n entries)", co_header, cb_header],
        ["delivered with 5% loss",
         f"{co_loss.messages_delivered}/{co_loss.report.messages_sent * n}",
         f"{cb_loss.messages_delivered}/{cb_loss.report.messages_sent * n}"],
        ["recovers from loss", "yes (RET)", f"no ({stalled} PDUs stalled)"],
        ["causality mechanism", "SEQ/ACK integers", "vector clocks"],
        ["delivery guarantee", "acknowledged (atomic)", "receipt-time"],
    ]
    table = format_table(["metric", "CO protocol", "ISIS CBCAST"], rows)
    notes = (
        "CBCAST delivers faster (no acknowledgment phase) but assumes a "
        "reliable network: under 5% loss it cannot detect the missing PDUs "
        "and its delay queues stall, while CO detects every gap from the "
        "sequence numbers and recovers all messages — §5's central "
        "comparison.  CO's extra PDUs are the price of atomicity."
    )
    return Artifact(
        "c5-vs-isis", "§5 claim C5 / §1", "CO protocol vs ISIS CBCAST",
        table,
        data={"co_tap": co.tap.mean, "cb_tap": cb.tap.mean, "stalled": stalled},
        notes=notes,
    )


# ----------------------------------------------------------------------
# Service classes (§1 / §2.3): what each protocol actually guarantees
# ----------------------------------------------------------------------
def service_classes(fast: bool = False) -> Artifact:
    """The LO/CO/TO service hierarchy, measured: one lossy request-reply
    workload run under every implemented protocol."""
    from repro.harness.comparison import compare_protocols

    base = ExperimentConfig(
        n=4, workload="request-reply",
        messages_per_entity=4 if fast else 8,
        loss_rate=0.10, seed=13, max_time=2.0,
    )
    report = compare_protocols(base, protocols=("unordered", "po", "cbcast", "co"))
    notes = (
        "§1's service ladder made measurable: best-effort loses information; "
        "the PO protocol (LO service) restores it but commits causal "
        "inversions; CBCAST is causal but assumes a reliable network and "
        "stalls under loss; the CO protocol meets the full CO service.  The "
        "TO extension is excluded from this reactive workload on purpose: "
        "its rank frontier only advances with fresh traffic from every "
        "source, and a workload that sends only *in response to delivery* "
        "deadlocks against the holdback — use TO with continuous sources "
        "(see tests/integration/test_total_order_under_loss.py and the "
        "bench_ablations suite for its agreement results)."
    )
    return Artifact(
        "services", "§1 / §2.3 definitions",
        "Service guarantees under loss, per protocol",
        report.render(),
        data={row.protocol: row.causal_violations for row in report.rows},
        notes=notes,
    )


ALL_ARTIFACTS = [
    figure8,
    claim_c1_pdu_complexity,
    claim_c2_ack_latency,
    claim_c3_buffer,
    claim_c4_retransmission,
    claim_c5_vs_isis,
    service_classes,
]


def generate_all(fast: bool = False) -> List[Artifact]:
    """Regenerate every artifact (the EXPERIMENTS.md payload)."""
    return [fn(fast=fast) for fn in ALL_ARTIFACTS]


EXPERIMENTS_HEADER = """\
# EXPERIMENTS — paper vs. measured

Regenerated by ``python -m repro.harness.figures --write EXPERIMENTS.md``.
Absolute numbers are simulator-model values, not 1994 SPARC2 milliseconds;
each artifact's note states the paper's claim and the measured shape.  The
per-experiment index (workloads, parameters, modules, bench targets) is in
DESIGN.md §4; the pytest-benchmark harness under ``benchmarks/`` reruns each
artifact with shape assertions.

| Exp id | Paper artifact | Paper claim | Measured |
|---|---|---|---|
| fig8 | Figure 8 | Tco and Tap grow ~linearly in n (O(n) per-entity overhead) | Tco exactly linear (R² = 1.0); Tap increases monotonically with n |
| table1 | Table 1 / Examples 4.1–4.2 | SEQ/ACK fields of PDUs a–h; PRL = ⟨a c b d e⟩ | reproduced field-for-field (tests/integration/test_paper_example.py) |
| c1 | §5 | deferred confirmation ⇒ O(n) PDUs vs O(n²) | immediate/deferred traffic ratio widens ~linearly with n |
| c2 | §5 | pre-ack ≈ R, ack ≈ 2R after acceptance | preack ≈ 1.0–1.3 R; ack ≈ 2× preack across R sweep |
| c3 | §5 | buffer requirement O(n), ≈ 2nW | peak resident PDUs grow linearly in n, under the 2nW bound |
| c4 | §5 | selective retransmission beats go-back-n | go-back-n retransmits grow much faster with loss rate |
| c5 | §5 / §1 | sequence numbers beat virtual clocks: loss detectable, less machinery | CO recovers 100% under 5% loss; CBCAST stalls with undetected losses |
| services | §1 / §2.3 | the LO ⊂ CO ⊂ TO service hierarchy | measured per protocol on one lossy workload: losses, inversions, stalls |

"""


EXPERIMENTS_FOOTER = """\

## Benchmark-regression harness

``benchmarks/regression.py`` measures the PACK/ACK hot path and pins the
numbers in ``BENCH_hotpath.json`` (repository root) so any PR can be held
against a committed baseline:

```
python benchmarks/regression.py                 # full run, rewrites BENCH_hotpath.json
python benchmarks/regression.py --smoke         # CI-sized run (n <= 8, short streams)
python benchmarks/regression.py --compare       # re-measure, fail on >15% regression
python benchmarks/regression.py --compare OLD.json --threshold 0.10
```

Per point the report records, at each n in {4, 8, 16, 32}:

* ``engine[].per_pdu_us`` — ``COEntity.on_pdu`` wall time per PDU
  (min-of-repeats) on a *saturation* stream whose ACK vectors trail the
  send rounds, keeping O(n·lag) PDUs resident — the regime where a
  super-linear hot path shows up as a cost wall;
* ``engine[].resident_high_water`` / ``experiments[].resident_high_water``
  — peak resident PDUs (the §5 buffer-bound metric);
* ``experiments[].deliveries_per_sec`` and ``per_pdu_us`` — whole-cluster
  ``run_experiment`` throughput (bench_scale shape), best-of-repeats, with
  the §2.3 ordering oracle (``repro.ordering.checker.verify_run``)
  asserted on **every** run;
* ``*.hot_path`` — scan-efficiency ratios from the engine counters
  (``pack_source_scans_per_accept``, ``cpi_fast_append_ratio``,
  ``dep_blocks_per_preack``; see ``repro.metrics.collector.hot_path_stats``);
* ``batching[]`` — the frame-economy axis (docs/PROTOCOL.md §14): the same
  bursty seeded stream at ``batch_max_pdus`` ∈ {1, 8} on fast-modelled
  hosts, recording ``frames_per_delivered_pdu`` (every frame on the wire,
  data and control, divided by application deliveries), ``per_pdu_us``,
  ``batch_frames`` / ``batched_data_pdus`` / ``acks_coalesced``;
* ``topology[]`` — the dissemination axis (docs/PROTOCOL.md §16): the
  same congested seeded workload once per mode ∈ {flood, ring, gossip}
  at n ∈ {8, 32}, recording ``copies_per_delivered_pdu``
  (per-destination datagram copies — a broadcast counts n-1, a relay
  unicast counts 1, so flood fan-out and relay routes compare on equal
  footing), ``per_pdu_us``, ``relays_sent`` / ``relay_forwards``; the
  ordering oracle is asserted on every cell, and ``topology_gate`` fails
  the run outright if ring stops beating flood at n ≥ 16;
* ``hierarchy[]`` / ``hierarchy_engine[]`` — the sharding axis
  (docs/PROTOCOL.md §18), two regimes.  The cluster cells drive one
  fixed aggregate workload (256 messages total, send interval scaled
  with n so the cluster-wide offered rate is constant) through flat
  cells at n ∈ {8, 32} and hierarchical cells (``group_size = 8``) at
  n ∈ {64, 256}, recording ``deliveries_per_sec`` and ``per_pdu_us``
  (mean engine ``on_pdu`` wall time across every host, send-path
  fan-out included, gc parked, cells measured in interleaved repeats —
  see DESIGN.md §14); every cell asserts full convergence before
  reporting.  The engine cells run the saturation stream through a
  rostered group-view engine (the member's actual engine at global
  n ∈ {64, 256}) next to flat n ∈ {8, 32, 256} reference engines in
  the same interleaved window.  ``hierarchy_gate`` fails the run if a
  sharded member engine drifts past 1.3x the flat n = 8 engine or
  stops beating every larger flat engine, or if a sharded cluster cell
  stops out-delivering the flat n = 32 cluster.  At the committed
  baseline the n = 256 member engine measures 32.0 us/PDU — 1.00x the
  flat n = 8 engine (31.9), 30% below the flat n = 32 engine (45.9)
  and 6.6x below the flat n = 256 engine (211.1, resident high-water
  16575 vs the member's 455) — and the sharded cluster cells at
  n = 64/256 deliver ~1950 deliveries/s, 1.85x the flat n = 32
  cluster's 1051;
* ``suites`` — pass/fail of the pytest-benchmark suites (``bench_micro``,
  ``bench_fig8_processing``, ``bench_scale``).

``--compare`` pairs points by ``n`` (and ``batch`` / ``mode`` /
``group_size``, for the batching, topology and hierarchy axes)
and fails (exit 1) when a tracked metric regresses beyond ``--threshold``
(default 15%): per-PDU times, resident high-water, frames and copies per
delivered PDU must not rise, deliveries/sec must not fall.
Re-baselining: run the full mode on a quiet machine and commit the new
``BENCH_hotpath.json`` together with the change that justifies the shift.

## Run-to-completion datagram path (end-to-end bench, before/after)

``benchmarks/e2e`` (``BENCHMARK.json``) is the claim baseline for the
runtimes.  ISSUE 13 replaced the UDP runtime's receive/send plumbing with a
run-to-completion path (DESIGN.md §15).  Parent = commit ``6fd10b4``;
both sides measured with identical harness code,
``python3 benchmarks/e2e/run.py --workload W --seed S --seconds 25
--trace 0``, parent and change alternating which runs first, seeds 61–70
(none used while the change was written), one 2-core host.  Cells are
medians over the pairs; [q1–q3] are the parent's quartiles.

```
workload    metric                  parent [q1–q3]           change     change/parent  change better in
udp_bulk    goodput_msgs_per_s      2322  [2204–2457]        3992       1.72           10/10 pairs
udp_bulk    deliver_p50_ms          50.3  [47.1–54.4]        27.6       0.55           10/10
udp_bulk    deliver_p95_ms          69.8  [63.4–72.8]        39.5       0.57           10/10
udp_bulk    cpu_us_per_delivery     104.7 [100.2–111.5]      61.4       0.59           10/10
udp_bulk    wire_frames_per_msg     5.42  [5.13–5.92]        3.50       0.65           10/10
udp_bulk    peak_rss_mb             138.5 [134.0–145.9]      129.7      0.94           8/10
udp_bulk    setup_s                 0.171 [0.161–0.202]      0.195      1.14           6/10   (unresolved: inside the parent's own spread)
udp_steady  goodput_msgs_per_s      400.0                    400.0      1.00           offered rate, both
udp_steady  deliver_p50_ms          2.23  [2.00–2.56]        1.78       0.80           5/5
udp_steady  deliver_p95_ms          4.30  [3.05–4.80]        2.47       0.57           5/5
udp_steady  cpu_us_per_delivery     436.8 [373.8–489.4]      326.9      0.75           5/5
udp_steady  wire_frames_per_msg     23.58 [23.20–23.70]      23.66      1.00           protocol floor ~24
udp_steady  peak_rss_mb             47.25                    47.18      1.00
udp_lossy   goodput_msgs_per_s      399.7                    399.6      1.00           offered rate, both
udp_lossy   deliver_p50_ms          4.81  [4.76–4.92]        4.48       0.93           5/5
udp_lossy   deliver_p95_ms          11.77 [11.55–11.96]      10.83      0.92           5/5
udp_lossy   cpu_us_per_delivery     290.0 [286.1–303.3]      262.6      0.91           5/5
udp_lossy   wire_frames_per_msg     17.07 [16.92–17.11]      17.87      1.05           0/5    (worse, inside the 20 % bound)
udp_lossy   peak_rss_mb             46.71                    47.18      1.01           0/5    (worse, inside the 25 % bound)
sim_wide    deliver_p50_ms          139.4                    139.4      equal to the last digit, 3/3 seeds
sim_wide    deliver_p95_ms          166.8                    166.8      equal to the last digit, 3/3 seeds
sim_wide    wire_frames_per_msg     634.8                    634.8      equal to the last digit, 3/3 seeds
sim_wide    cpu_us_per_delivery     599.6 [579.9–613.4]      518.3      0.86           3/3
sim_wide    peak_rss_mb             83.72                    83.75      1.00
```

``failed`` = 0 in all 46 runs.  The ten ``udp_bulk`` pairs ran during one of
the host's slow episodes (benchmarks/e2e/README.md describes them): a
single pair at seed 51 an hour earlier gave 2 827 → 5 174 msg/s (1.83×),
88 → 48 µs per delivery, 163 → 150 MiB.  The ratio, not the absolute
rate, is what repeats.  ``udp_lossy``'s +5 % frames per message comes with
the tick fix: ``sleep(interval)`` made the real period ``interval +
lateness`` (7 385 engine ticks in a 5 s traced repeat), absolute deadlines
make it the configured 2 ms (9 954), and RET / probe timers that fire on
tick granularity fire ~10 % sooner — which is also where its latency gain
comes from.  ``sim_wide`` imports nothing under ``runtime/``; its CPU gain
is the two engine changes that rode along (``_on_heartbeat`` tests the O(1)
rate limit before the O(n) staleness scan; ``_maybe_confirm`` caches
``members − {self} − suspected``).

The ``--trace 1`` ledger rows that paid for it (one traced 5 s repeat per
cell, seed 61; shares are of process CPU time):

```
workload    row                              parent     change
udp_bulk    loop.busy_share                  0.218      0.148
udp_bulk    udp.busy_share                   0.102      0.076
udp_bulk    entity.busy_share                0.352      0.410
udp_bulk    entity.control_frames_per_msg    0.80       0.24
udp_bulk    udp.datagrams_per_msg            5.40       3.73
udp_bulk    udp.inbox_depth_max              1          32
udp_bulk    host.tick_late_ms_p99            3.0        13.5   (2.5–3.3 over four traced repeats vs 6.3–13.5 over three)
udp_bulk    ledger.coverage                  0.99       1.06
udp_steady  loop.busy_share                  0.231      0.216
udp_steady  udp.busy_share                   0.147      0.132
udp_steady  entity.control_frames_per_msg    6.96       6.96
udp_steady  udp.inbox_depth_max              1          11
udp_steady  host.tick_late_ms_p99            1.35       0.89
udp_lossy   loop.busy_share                  0.227      0.203
udp_lossy   udp.busy_share                   0.132      0.123
udp_lossy   entity.control_frames_per_msg    4.34       4.79
udp_lossy   udp.inbox_depth_max              1          15
udp_lossy   host.tick_late_ms_p99            2.08       0.96
sim_wide    entity.busy_share                0.320      0.266
sim_wide    entity.control_frames_per_msg    19.43      19.43
sim_wide    loop / udp / host rows           0          0      (no socket, no asyncio)
```

The saving is where it was claimed: on ``udp_bulk`` the loop and udp shares
fall by a third while 1.7× the messages pass, and three quarters of the
heartbeats are gone because confirmations ride on data.  One row moved the
wrong way and is reported as such: ``host.tick_late_ms_p99`` on
``udp_bulk``.  With four members taking turns of up to 32 datagrams in one
loop, a tick waits for a whole iteration (median 2.9 ms, p99 7.3 ms
untraced), where the old path's iterations carried one datagram per member;
the burst budget does not move it between 8 and 64 (DESIGN.md §15).  On the
open-loop workloads, where the loop is mostly idle, deadline ticks are
*less* late than sleeping ones.  ``trace.*`` rows are non-zero again with
the bounded default recorder (``trace.records`` 2.6e5 on ``udp_bulk``):
``FlightRecorder`` no longer overrides ``TraceLog.record``.

## A cheap simulator (end-to-end bench, before/after)

ISSUE 20 replaced the per-copy path of the simulator stack — kernel heap
entries, the network's fan-out loop, the host's arrival path, the trace
record — and stopped the knowledge layer from re-folding confirmation
vectors it has already folded (DESIGN.md §16).  Parent = commit
``60e555f``; both sides measured with identical harness code,
``python3 benchmarks/e2e/run.py --workload W --seed S --seconds 25
--trace 0``, parent and change alternating which runs first, one shared
2-core host.  ``sim_wide``: ten pairs, seeds 7 and 61–69; the UDP
workloads: five pairs each, seeds 60–64.  Cells are medians over the
pairs; [q1–q3] are quartiles.  ``failed`` = 0 in all 58 runs.

```
workload    metric                  parent [q1–q3]            change [q1–q3]           change/parent  change better in
sim_wide    cpu_us_per_delivery     571.6 [566.1–588.1]       331.1 [309.9–362.5]      0.58           10/10 pairs   <- the claim (>= 25 % lower)
sim_wide    goodput_msgs_per_s      53.85 [52.54–54.48]       92.63 [85.01–98.78]      1.72           10/10
sim_wide    peak_rss_mb             83.62 [83.58–83.67]       41.67 [41.66–41.73]      0.50           10/10
sim_wide    deliver_p50_ms          139.4                     139.4                    equal to the last digit, 10/10 seeds
sim_wide    deliver_p95_ms          166.8                     166.8                    equal to the last digit, 10/10 seeds
sim_wide    wire_frames_per_msg     634.1                     634.1                    equal to the last digit, 10/10 seeds
sim_wide    setup_s                 0.175 [0.174–0.177]       0.179 [0.169–0.186]      1.02           5/10   (unresolved: inside the spread)
udp_bulk    goodput_msgs_per_s      4253  [4072–4650]         4870  [4817–4951]        1.15           5/5
udp_bulk    cpu_us_per_delivery     57.21 [52.87–60.65]       50.12 [48.80–50.48]      0.88           5/5
udp_bulk    deliver_p50_ms          24.56 [23.07–25.08]       21.46 [21.02–21.99]      0.87           5/5
udp_bulk    deliver_p95_ms          36.14 [34.08–36.51]       33.03 [32.27–33.92]      0.91           5/5
udp_bulk    wire_frames_per_msg     3.474 [3.469–3.524]       3.423 [3.410–3.443]      0.99           5/5
udp_bulk    peak_rss_mb             134.6 [131.1–141.1]       140.7 [139.7–142.3]      1.05           1/5    (worse, inside the parent's spread and the 25 % bound: 15 % more messages are retained)
udp_bulk    setup_s                 0.168 [0.167–0.185]       0.172 [0.172–0.176]      1.03           2/5    (unresolved)
udp_steady  goodput_msgs_per_s      400.0                     400.0                    1.00           offered rate, both
udp_steady  cpu_us_per_delivery     357.8 [355.9–371.7]       339.9 [336.3–343.2]      0.95           3/5
udp_steady  deliver_p50_ms          1.915 [1.895–1.917]       1.819 [1.789–1.867]      0.95           3/5
udp_steady  deliver_p95_ms          2.600 [2.556–2.698]       2.576 [2.492–2.651]      0.99           3/5
udp_steady  wire_frames_per_msg     23.65 [23.46–23.68]       23.66 [23.65–23.71]      1.00           protocol floor ~24
udp_steady  peak_rss_mb             47.09 [47.07–47.13]       44.79 [44.79–44.81]      0.95           5/5
udp_steady  setup_s                 0.237 [0.235–0.241]       0.215 [0.204–0.225]      0.91           4/5
udp_lossy   goodput_msgs_per_s      399.6                     399.7                    1.00           offered rate, both
udp_lossy   cpu_us_per_delivery     307.9 [303.3–307.9]       295.1 [290.8–295.6]      0.96           5/5
udp_lossy   deliver_p50_ms          4.718 [4.679–4.835]       4.613 [4.550–4.671]      0.98           3/5
udp_lossy   deliver_p95_ms          11.32 [11.27–11.40]       11.17 [11.10–11.39]      0.99           4/5
udp_lossy   wire_frames_per_msg     17.73 [17.73–17.80]       17.82 [17.73–17.97]      1.01           1/5    (inside the 20 % bound)
udp_lossy   peak_rss_mb             47.09 [47.08–47.09]       44.94 [44.88–44.95]      0.95           5/5
udp_lossy   setup_s                 0.236 [0.235–0.242]       0.237 [0.235–0.244]      1.01           2/5    (unresolved)
```

The claim is met: ``cpu_us_per_delivery`` on ``sim_wide`` is 42 % below the
parent's median (the parent's own quartiles are 22 µs apart, the medians
240 µs), in ten of ten pairs, and the three metrics that come off the
simulated clock and the frame counter did not move in any digit for any
seed — same events, same arrival times, cheaper.  ``peak_rss_mb`` halves
because four fifths of the retained ``TraceRecord``s were ``arrive``.  The
UDP workloads share ``TraceRecord``, ``TraceLog.record``,
``ReceiveBuffer.offer`` and the two memos; they are neutral-or-better
everywhere a direction can be told, and ``udp_bulk`` — the workload that
writes the most records per second — gains 15 % goodput from them.

The ``--trace 1`` ledger rows that paid for it (one traced 5 s repeat per
cell, seed 7; ``*_us`` rows are self time under the tracer, which roughly
doubles them; counts are exact):

```
workload    row                              parent     change
sim_wide    kernel.events                    255720     255720    (same events)
sim_wide    network.copies_per_msg           637.4      637.4     (same copies)
sim_wide    kernel.self_us_per_event         7.82       4.33
sim_wide    simhost.self_us_per_arrival      16.34      10.47
sim_wide    network.self_us_per_copy         7.28       3.83
sim_wide    trace.records                    156204     33816     (-122 388 = one per arriving copy)
sim_wide    trace.us_per_record              3.02       2.17
sim_wide    state.merge_calls                378225     378225
sim_wide    state.merge_us_per_call          3.38       1.95
sim_wide    entity.on_pdu_self_us            18.10      13.36
sim_wide    kernel+simhost+network+trace     0.61       0.55      (busy shares; entity+state 0.41 -> 0.47)
sim_wide    ledger.coverage                  1.03       1.03
udp_bulk    trace.us_per_record              4.77       1.84
udp_bulk    trace.busy_share                 0.165      0.073
udp_bulk    state.merge_us_per_call          2.70       2.72
udp_bulk    ledger.coverage                  1.08       1.07
udp_steady  trace.us_per_record              4.39       2.00
udp_steady  trace.busy_share                 0.052      0.024
udp_steady  state.merge_us_per_call          2.42       2.22
udp_steady  ledger.coverage                  0.97       0.95
udp_lossy   trace.us_per_record              4.77       2.18
udp_lossy   trace.busy_share                 0.066      0.030
udp_lossy   state.merge_us_per_call          2.70       2.88
udp_lossy   ledger.coverage                  0.98       0.96
```

The saving is where it was claimed.  Per arriving copy the harness rows
(2.09 kernel events + one host arrival + one network copy + its records)
fall from about 44 µs to 24 µs and the protocol rows (``on_pdu`` self time
+ 3.09 merges) from about 29 µs to 19 µs, the latter through the memoised
repeats alone.  On UDP the record itself is what got cheaper — the slotted
``TraceRecord`` and counting in ``record`` instead of in a ``deque``
subclass's Python ``append`` — and the merge memo is neutral: a decoded
frame always carries fresh tuples, so a hit costs one C-level tuple
comparison where it saves a row walk, and on ``udp_bulk`` consecutive
vectors from a busy member rarely repeat.

**Run length.**  ROADMAP item 3 read the super-linear wall time of longer
``sim_wide`` runs as something in the harness growing with run length.  It
is not (in-process, n=32, seed 7, the ``sim_wide`` recipe, best of two
runs per cell):

```
messages per sender     3        6        10       15
copies delivered        60 543   122 233  231 477  398 102
wire_frames_per_msg     631      637      723      829
CPU us per copy, parent 30.9     38.0     32.5     36.9
CPU us per copy, change 19.6     20.5     21.2     18.2
trace records, parent   77 441   156 039  289 867  489 578
trace records, change   16 898   33 806   58 390   91 476
```

CPU per arriving copy is flat on both sides; what grows is the number of
copies each message costs — the probe chatter of hosts that are saturated
for longer — which is ROADMAP item 1(a), not a simulator cost.  (The one
harness cost that did grow with run length, ``run_until_quiescent``
re-walking the whole trace at every chunk, is fixed by ``TraceLog.tail``
and was 1.4 ms per chunk at 156 k records.)  Tier-1: the files that existed
at the parent run in 40.9 s against 47.6 s; with this PR's 37 new tests
(the two traced harness runs are 5 s of them) the suite is 1 036 tests.
"""


def write_experiments(path: str, artifacts: List[Artifact]) -> None:
    """Write the regenerated artifacts to an EXPERIMENTS.md file."""
    body = "\n\n".join(a.render() for a in artifacts)
    with open(path, "w", encoding="utf-8") as f:
        f.write(EXPERIMENTS_HEADER)
        f.write(body)
        f.write("\n")
        f.write(EXPERIMENTS_FOOTER)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="reduced sweeps")
    parser.add_argument(
        "--only", default=None,
        help="experiment id prefix to run (e.g. fig8, c4)",
    )
    parser.add_argument(
        "--write", default=None, metavar="PATH",
        help="also write the artifacts to an EXPERIMENTS.md file",
    )
    args = parser.parse_args(argv)
    artifacts = []
    for fn in ALL_ARTIFACTS:
        artifact = fn(fast=args.fast)
        if args.only and not artifact.experiment_id.startswith(args.only):
            continue
        artifacts.append(artifact)
        print(artifact.render())
        print()
    if args.write:
        write_experiments(args.write, artifacts)
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
