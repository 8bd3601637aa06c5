"""The four workloads, driven through the program's public entry points.

Each runner builds a cluster, warms it up with one message (set-up ends at
that message's delivery), runs the timed region, drains, stops every
member, and only then runs the oracle.  It returns raw measurements; the
parent turns them into metrics.
"""

from __future__ import annotations

import asyncio
import math
import resource
import socket
import statistics
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import oracle

if TYPE_CHECKING:
    from layers import Probes
    from tracing import Tracer

DRAIN_DEADLINE_S = 10.0
#: Width of the windows (by due time) the gated tail percentile is taken over.
TAIL_WINDOW_S = 0.25


@dataclass(frozen=True)
class Spec:
    runtime: str            # "udp" or "sim"
    n: int
    payload: int            # bytes per message
    #: Open loop: messages per second over all senders.  None = closed loop.
    rate: Optional[float] = None
    #: Closed loop: messages each sender keeps submitted-but-undelivered.
    outstanding: int = 0
    loss_rate: float = 0.0
    #: sim: messages per sender for each second of the repeat's budget.
    sim_msgs_per_second: float = 0.0
    #: sim: receive-buffer units per host.
    sim_buffer_units: int = 0


SPECS: Dict[str, Spec] = {
    "udp_steady": Spec("udp", n=4, payload=64, rate=400.0),
    "udp_bulk": Spec("udp", n=4, payload=256, outstanding=32),
    "udp_lossy": Spec("udp", n=4, payload=64, rate=400.0, loss_rate=0.05),
    # 4096 units is the UDP runtime's default inbox size.  With
    # build_cluster's default of 256 the 32 senders overrun the buffers
    # from the fourth message on, and whether a given seed does decides
    # between 540 and 1 100 frames per message: a coin flip, not a metric.
    "sim_wide": Spec("sim", n=32, payload=512, sim_msgs_per_second=1.25,
                     sim_buffer_units=4096),
}


def percentile(ordered: Sequence[float], q: float) -> float:
    """``q``-quantile of an ascending sequence (nearest rank)."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def windowed_percentile(samples: Sequence[Tuple[float, float]], q: float) -> float:
    """Median over equal windows of about ``TAIL_WINDOW_S`` (by due time) of
    each window's ``q``-quantile latency.

    One stall of the shared host lands in one or two windows and the median
    over windows forgets it, where it would own the whole repeat's tail by
    itself.  Simulated runs last a few simulated milliseconds: one window.
    """
    first = min(due for due, _ in samples)
    span = max(due for due, _ in samples) - first
    count = max(1, round(span / TAIL_WINDOW_S))
    width = span / count or 1.0
    windows: List[List[float]] = [[] for _ in range(count)]
    for due, latency in samples:
        # min(): the last due time is the right edge of the last window.
        windows[min(count - 1, int((due - first) / width))].append(latency)
    return statistics.median(percentile(sorted(w), q) for w in windows if w)


def _delivery_results(report: oracle.OracleReport, samples: List[Tuple[float, float]],
                      msgs: int, n: int) -> Dict[str, Any]:
    """What both runtimes report about the timed region's deliveries, from
    one ``(due, latency)`` sample per delivered (message, member) pair.
    A pair that was never delivered counts as infinitely late."""
    pairs = msgs * n
    ordered = sorted(latency for _, latency in samples) + [math.inf] * (pairs - len(samples))
    return {
        "msgs": msgs, "pairs_attempted": pairs, "pairs_delivered": len(samples),
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": (windowed_percentile(samples, 0.95) if len(samples) == pairs
                   else math.inf) * 1e3,
        "p95_whole_ms": percentile(ordered, 0.95) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "p999_ms": percentile(ordered, 0.999) * 1e3,
        "violations": report.violations, "violation_count": report.violation_count,
        "undelivered": report.undelivered_pairs,
    }


def _sum_counters(dicts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for d in dicts:
        for key, value in d.items():
            total[key] = total.get(key, 0) + value
    return total


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# UDP loopback
# ----------------------------------------------------------------------

def free_base_port(n: int, seed: int) -> int:
    """A base port with ``n`` consecutive free UDP ports on loopback."""
    for attempt in range(200):
        base = 20000 + (seed * 7919 + attempt * 101) % 40000
        held = []
        try:
            for port in range(base, base + n):
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                held.append(sock)
                sock.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
    raise RuntimeError("no free UDP port range found on loopback")


class UdpApp:
    """The n application entities: submit stamped payloads, record every
    delivery with its arrival time."""

    def __init__(self, members: Sequence[Any], payload: int):
        self.members = members
        self.n = len(members)
        self.payload = payload
        self.counts = [[0] * self.n for _ in range(self.n)]
        self.times: List[List[float]] = [[] for _ in range(self.n)]
        self.due: List[List[float]] = [[] for _ in range(self.n)]
        self.pairs = 0
        self.target_pairs: Optional[int] = None
        self.done = asyncio.Event()
        self.on_own_delivery: Optional[Callable[[int], None]] = None
        for m, member in enumerate(members):
            member.host.add_delivery_listener(partial(self._on_deliver, m))

    @property
    def submitted(self) -> List[int]:
        return [len(d) for d in self.due]

    def submit(self, src: int, due: float) -> None:
        k = len(self.due[src])
        self.due[src].append(due)
        self.members[src].broadcast(
            oracle.encode_payload(src, k, self.counts[src], self.payload))

    def _on_deliver(self, m: int, message: Any) -> None:
        self.times[m].append(time.perf_counter())
        self.counts[m][message.src] += 1
        self.pairs += 1
        if self.pairs == self.target_pairs:
            self.done.set()
        if message.src == m and self.on_own_delivery is not None:
            self.on_own_delivery(m)

    async def drain(self, deadline_s: float) -> None:
        """Wait (bounded) until every member was handed every message."""
        self.target_pairs = sum(self.submitted) * self.n
        self.done.clear()
        if self.pairs < self.target_pairs:
            try:
                await asyncio.wait_for(self.done.wait(), deadline_s)
            except asyncio.TimeoutError:
                pass


async def _open_loop(app: UdpApp, rate: float, seconds: float) -> List[float]:
    """Submit on a fixed schedule, round-robin over senders; each message
    is timed from when it was *due*.  Returns how late each submit ran."""
    late: List[float] = []
    total = max(1, int(rate * seconds))
    start = time.perf_counter()
    for i in range(total):
        due = start + i / rate
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        late.append(time.perf_counter() - due)
        app.submit(i % app.n, due)
    return late


async def _closed_loop(app: UdpApp, outstanding: int, seconds: float) -> None:
    """Every sender keeps ``outstanding`` messages submitted; the protocol's
    flow window paces them onto the wire.  The next submit is deferred out
    of the delivery callback so the engine is never re-entered."""
    loop = asyncio.get_running_loop()
    end = time.perf_counter() + seconds

    def submit_next(src: int) -> None:
        now = time.perf_counter()
        if now < end:
            app.submit(src, now)

    app.on_own_delivery = lambda src: loop.call_soon(submit_next, src)
    for _ in range(outstanding):
        for src in range(app.n):
            submit_next(src)
    await asyncio.sleep(seconds)
    app.on_own_delivery = None


async def _run_udp(spec: Spec, seed: int, seconds: float, spawned_at: float,
                   tracer: Optional[Tracer], probes: Optional[Probes]) -> Dict[str, Any]:
    from repro.runtime.udp import udp_cluster

    members = await udp_cluster(
        spec.n, base_port=free_base_port(spec.n, seed),
        loss_rate=spec.loss_rate, seed=seed,
    )
    try:
        app = UdpApp(members, spec.payload)
        app.submit(0, time.perf_counter())
        await app.drain(DRAIN_DEADLINE_S)
        setup_s = time.time() - spawned_at
        warmup = app.submitted
        skip = [len(t) for t in app.times]

        engine0 = _sum_counters([m.engine.counters.snapshot() for m in members])
        transport0 = _sum_counters([m.transport.counters() for m in members])
        if tracer is not None:
            tracer.reset()
            probes.reset()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        late: List[float] = []
        if spec.rate is not None:
            late = await _open_loop(app, spec.rate, seconds)
        else:
            await _closed_loop(app, spec.outstanding, seconds)
        await app.drain(DRAIN_DEADLINE_S)
        cpu_s = time.process_time() - cpu0
        wall_s = time.perf_counter() - wall0
        rss_mb = _peak_rss_mb()
        spans = tracer.dump() if tracer is not None else None
        engine = _delta(
            _sum_counters([m.engine.counters.snapshot() for m in members]), engine0)
        transport = _delta(
            _sum_counters([m.transport.counters() for m in members]), transport0)
        transport["overruns"] = sum(m.buffer_overruns for m in members)
        high_water = max(m.engine.resident_high_water for m in members)
    finally:
        for member in members:
            await member.stop()

    # Outside the timed region: decode what each application was handed.
    stamps = [
        [oracle.decode_payload(msg.data, spec.n) for msg in member.delivered]
        for member in members
    ]
    report = oracle.check(stamps, app.submitted)
    msgs = sum(app.submitted) - sum(warmup)
    samples = [
        (app.due[src][k], at - app.due[src][k])
        for m in range(spec.n)
        for (src, k, _), at in zip(stamps[m][skip[m]:], app.times[m][skip[m]:])
    ]
    late.sort()
    return {
        "setup_s": setup_s, "cpu_s": cpu_s, "wall_s": wall_s, "rss_mb": rss_mb,
        **_delivery_results(report, samples, msgs, spec.n),
        "msgs_everywhere": report.delivered_everywhere - sum(warmup),
        "frames": transport["datagrams_sent"],
        "loadgen_late_ms_p99": percentile(late, 0.99) * 1e3 if late else 0.0,
        "engine": engine, "transport": transport,
        "resident_high_water": high_water, "spans": spans,
    }


# ----------------------------------------------------------------------
# Discrete-event simulator
# ----------------------------------------------------------------------

def _stamped_workload(messages_per_entity: int, payload: int) -> Any:
    from repro.workloads import ContinuousWorkload

    class StampedContinuousWorkload(ContinuousWorkload):
        """ContinuousWorkload's schedule; payloads built at submit time so
        they can carry the sender's delivered counts for the oracle."""

        def install(self, cluster: Any, rngs: Any) -> None:
            self.counts = [[0] * cluster.n for _ in range(cluster.n)]
            for i, host in enumerate(cluster.hosts):
                host.add_delivery_listener(partial(self._count, i))
            for i in range(cluster.n):
                for k in range(self.messages_per_entity):
                    cluster.sim.schedule_at(
                        self.due(i, k), self._submit, cluster, i, k)

        def due(self, i: int, k: int) -> float:
            return self.stagger * i + self.interval * k

        def _count(self, i: int, message: Any) -> None:
            self.counts[i][message.src] += 1

        def _submit(self, cluster: Any, i: int, k: int) -> None:
            cluster.submit(i, (i, k, tuple(self.counts[i])), self.payload_size)

    return StampedContinuousWorkload(
        messages_per_entity=messages_per_entity, interval=1e-3,
        payload_size=payload,
    )


def _run_sim(spec: Spec, seed: int, seconds: float, spawned_at: float,
             tracer: Optional[Tracer], probes: Optional[Probes]) -> Dict[str, Any]:
    from repro.core.cluster import build_cluster
    from repro.net.delay import JitterDelay
    from repro.ordering.checker import verify_run
    from repro.sim.rng import RngRegistry

    # Warm-up: one message through a small cluster touches every code path
    # once; the measured cluster then starts from simulated time zero.
    warm = build_cluster(4)
    warm.submit(0, "warm-up", spec.payload)
    warm.run_until_quiescent()

    rngs = RngRegistry(seed)
    # 200 us propagation plus seeded exponential jitter: the seed decides
    # the interleaving, the kernel makes it repeat exactly.
    cluster = build_cluster(
        spec.n, rngs=rngs, delay_model=JitterDelay(20e-6),
        buffer_capacity=spec.sim_buffer_units,
    )
    per_sender = max(1, round(spec.sim_msgs_per_second * seconds))
    workload = _stamped_workload(per_sender, spec.payload)
    workload.install(cluster, rngs)
    setup_s = time.time() - spawned_at

    if tracer is not None:
        tracer.reset()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    cluster.run_until_quiescent(max_time=60.0)
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - wall0
    rss_mb = _peak_rss_mb()
    spans = tracer.dump() if tracer is not None else None
    cluster.stop()

    # Outside the timed region: the harness's oracle, then the program's.
    stamps = [[msg.data for msg in host.delivered] for host in cluster.hosts]
    submitted = [per_sender] * spec.n
    report = oracle.check(stamps, submitted)
    program = verify_run(cluster.trace, spec.n)
    if not program.ok:
        report.violate(f"verify_run: {program.summary()}")
    samples = []
    for host in cluster.hosts:
        for msg in host.delivered:
            due = workload.due(msg.data[0], msg.data[1])
            samples.append((due, msg.delivered_at - due))
    return {
        "setup_s": setup_s, "cpu_s": cpu_s, "wall_s": wall_s, "rss_mb": rss_mb,
        **_delivery_results(report, samples, per_sender * spec.n, spec.n),
        "msgs_everywhere": report.delivered_everywhere,
        "frames": cluster.network.stats.copies_sent,
        "loadgen_late_ms_p99": 0.0,
        "engine": _sum_counters([e.counters.snapshot() for e in cluster.engines]),
        "transport": {},
        "resident_high_water": max(e.resident_high_water for e in cluster.engines),
        "kernel_events": cluster.sim.events_executed,
        "sim_seconds": cluster.sim.now, "spans": spans,
    }


def run(name: str, seed: int, seconds: float, spawned_at: float,
        tracer: Optional[Tracer] = None, probes: Optional[Probes] = None) -> Dict[str, Any]:
    """Run one repeat of workload ``name`` in this process."""
    spec = SPECS[name]
    if spec.runtime == "udp":
        return asyncio.run(_run_udp(spec, seed, seconds, spawned_at, tracer, probes))
    return _run_sim(spec, seed, seconds, spawned_at, tracer, probes)
