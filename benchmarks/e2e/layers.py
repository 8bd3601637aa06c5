"""Which calls are traced for which layer, and the per-layer metrics
derived from them.  Layers are this repo's modules."""

from __future__ import annotations

import asyncio.events
from collections import deque
from time import perf_counter
from typing import Any, Callable, Dict, List

from tracing import Tracer
from workloads import percentile

#: Every layer of the ledger, in report order.
LAYERS = (
    "codec", "entity", "state", "logs", "retransmit", "udp", "host", "loop",
    "simhost", "network", "kernel", "trace",
)


def _arg(i: int) -> Callable[[tuple], Any]:
    return lambda args: args[i]


class Probes:
    """Counts taken at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.encoded_bytes = 0
        self.last_frame_len = 0
        self.wire_bytes = 0
        self.max_sent_seq: Dict[int, int] = {}
        self.retransmitted: set = set()
        self.retx_received = 0
        self.retx_duplicate = 0
        self.inbox_stamps: Dict[int, deque] = {}
        self.inbox_wait_s: List[float] = []
        self.inbox_depth_max = 0
        self.last_tick: Dict[int, float] = {}
        self.tick_late_s: List[float] = []

    def reset(self) -> None:
        """Zero what is reported per timed region; in-flight state stays."""
        self.encoded_bytes = self.wire_bytes = 0
        self.retx_received = self.retx_duplicate = 0
        self.inbox_depth_max = 0
        del self.inbox_wait_s[:]
        del self.tick_late_s[:]


def _percentile(values: List[float], q: float) -> float:
    return percentile(sorted(values), q) if values else 0.0


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def install(tracer: Tracer, runtime: str) -> Probes:
    """Wrap every layer boundary the ``runtime`` ("udp" or "sim") crosses.

    Must run before the cluster is built: bound methods captured at
    construction time (timer callbacks, sinks) then already resolve to the
    wrappers.
    """
    from repro.core.entity import COEntity
    from repro.core.logs import CausalLog, ReceiptSublogs, SendingLog
    from repro.core.retransmit import GapTracker, RetransmitSuppressor
    from repro.core.state import KnowledgeState
    from repro.net.buffers import ReceiveBuffer
    from repro.sim.trace import TraceLog

    probes = Probes()
    patch = tracer.patch

    patch(COEntity, "submit", "entity.submit", "entity")
    patch(COEntity, "on_pdu", "entity.on_pdu", "entity", ident=_arg(1))
    patch(COEntity, "on_tick", "entity.on_tick", "entity")
    for method in ("accept", "merge_al", "merge_al_fold", "merge_pal", "update_buf"):
        patch(KnowledgeState, method, f"state.{method}", "state")
    for cls, methods in (
        (CausalLog, ("insert", "popleft")),
        (ReceiptSublogs, ("enqueue", "dequeue", "top")),
        (SendingLog, ("append", "get", "get_range", "prune_below")),
    ):
        for method in methods:
            patch(cls, method, f"logs.{cls.__name__}.{method}", "logs")
    for cls, methods in (
        (GapTracker, ("note", "close_below", "due", "mark_ret", "drop_source")),
        (RetransmitSuppressor, ("should_send", "forget_below")),
    ):
        for method in methods:
            patch(cls, method, f"retransmit.{cls.__name__}.{method}", "retransmit")
    patch(TraceLog, "record", "trace.record", "trace")

    if runtime == "udp":
        _install_udp(tracer, probes, COEntity, ReceiveBuffer)
    else:
        _install_sim(tracer, ReceiveBuffer)
    return probes


def _install_udp(tracer: Tracer, probes: Probes, COEntity: Any, ReceiveBuffer: Any) -> None:
    import repro.runtime.udp as udp
    from repro.runtime.host import AsyncEntityHost

    patch = tracer.patch
    # The codec is wrapped where runtime/udp imported it, so only the
    # frames that really cross a socket are counted.
    patch(udp, "encode_pdu_view", "codec.encode", "codec", ident=_arg(0))
    patch(udp, "decode_pdu_safe", "codec.decode", "codec",
          ident=_arg(0), ident_result=True)
    patch(udp.UdpTransport, "broadcast", "udp.broadcast", "udp", ident=_arg(2))
    patch(udp.UdpTransport, "unicast", "udp.unicast", "udp", ident=_arg(3))
    patch(udp.UdpTransport, "_on_datagram", "udp.recv", "udp")
    patch(ReceiveBuffer, "offer", "udp.inbox_offer", "udp")
    patch(ReceiveBuffer, "pop", "udp.inbox_pop", "udp")
    patch(AsyncEntityHost, "_on_deliver", "host.deliver_cb", "host")
    patch(AsyncEntityHost, "sample_gauges", "host.sample_gauges", "host")
    # Every callback and task step the event loop runs: its self time is
    # asyncio dispatch plus the runtime's own coroutine bodies.
    patch(asyncio.events.Handle, "_run", "loop.callback", "loop")

    def count_encode(fn: Callable) -> Callable:
        def encode(pdu: Any) -> Any:
            view = fn(pdu)
            probes.last_frame_len = len(view)
            probes.encoded_bytes += len(view)
            return view
        return encode

    def count_send(pdu_index: int) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def send(self: Any, *args: Any) -> None:
                pdu = args[pdu_index]
                seq = getattr(pdu, "seq", None)
                if seq is not None:
                    if seq <= probes.max_sent_seq.get(pdu.src, 0):
                        probes.retransmitted.add((pdu.src, seq))
                    else:
                        probes.max_sent_seq[pdu.src] = seq
                before = self.datagrams_sent
                fn(self, *args)
                probes.wire_bytes += (
                    (self.datagrams_sent - before) * probes.last_frame_len
                )
            return send
        return make

    def count_retransmitted(fn: Callable) -> Callable:
        def on_pdu(self: Any, pdu: Any) -> None:
            if probes.retransmitted and (
                (getattr(pdu, "src", None), getattr(pdu, "seq", None))
                in probes.retransmitted
            ):
                before = self.counters.duplicates
                fn(self, pdu)
                probes.retx_received += 1
                probes.retx_duplicate += self.counters.duplicates - before
            else:
                fn(self, pdu)
        return on_pdu

    def time_ticks(fn: Callable) -> Callable:
        def on_tick(self: Any) -> None:
            now = perf_counter()
            last = probes.last_tick.get(self.index)
            if last is not None:
                probes.tick_late_s.append(now - last - self.config.tick_interval)
            probes.last_tick[self.index] = now
            fn(self)
        return on_tick

    def stamp_offer(fn: Callable) -> Callable:
        def offer(self: Any, pdu: Any) -> bool:
            accepted = fn(self, pdu)
            if accepted:
                probes.inbox_stamps.setdefault(id(self), deque()).append(perf_counter())
                if len(self) > probes.inbox_depth_max:
                    probes.inbox_depth_max = len(self)
            return accepted
        return offer

    def stamp_pop(fn: Callable) -> Callable:
        def pop(self: Any) -> Any:
            stamps = probes.inbox_stamps.get(id(self))
            if stamps:
                probes.inbox_wait_s.append(perf_counter() - stamps.popleft())
            return fn(self)
        return pop

    # Counting probes go around the traced functions, outside their spans.
    for owner, attr, probe in (
        (udp, "encode_pdu_view", count_encode),
        (udp.UdpTransport, "broadcast", count_send(1)),
        (udp.UdpTransport, "unicast", count_send(2)),
        (COEntity, "on_pdu", count_retransmitted),
        (COEntity, "on_tick", time_ticks),
        (ReceiveBuffer, "offer", stamp_offer),
        (ReceiveBuffer, "pop", stamp_pop),
    ):
        setattr(owner, attr, probe(getattr(owner, attr)))


def _install_sim(tracer: Tracer, ReceiveBuffer: Any) -> None:
    from repro.core.cluster import EntityHost
    from repro.net.network import MCNetwork
    from repro.sim.kernel import Simulator
    from repro.sim.timers import PeriodicTimer

    patch = tracer.patch
    patch(EntityHost, "on_arrival", "simhost.on_arrival", "simhost", ident=_arg(1))
    patch(EntityHost, "submit", "simhost.submit", "simhost")
    patch(EntityHost, "_begin_service", "simhost.begin_service", "simhost")
    patch(EntityHost, "_complete", "simhost.complete", "simhost", ident=_arg(1))
    patch(EntityHost, "_on_tick", "simhost.on_tick", "simhost")
    patch(EntityHost, "_on_deliver", "simhost.deliver_cb", "simhost")
    patch(EntityHost, "sample_gauges", "simhost.sample_gauges", "simhost")
    patch(ReceiveBuffer, "offer", "simhost.buffer_offer", "simhost")
    patch(ReceiveBuffer, "pop", "simhost.buffer_pop", "simhost")
    patch(MCNetwork, "broadcast", "network.broadcast", "network", ident=_arg(2))
    patch(MCNetwork, "unicast", "network.unicast", "network", ident=_arg(3))
    patch(MCNetwork, "_arrive", "network.arrive", "network", ident=_arg(3))
    patch(Simulator, "run", "kernel.run", "kernel")
    patch(Simulator, "step", "kernel.step", "kernel")
    patch(Simulator, "schedule", "kernel.schedule", "kernel")
    patch(Simulator, "schedule_at", "kernel.schedule_at", "kernel")
    patch(PeriodicTimer, "_fire", "kernel.timer_fire", "kernel")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, probes: Probes, run: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of the traced region, by name.

    ``run`` is the workload's raw result: ``cpu_s``, ``wall_s``, ``msgs``,
    ``frames``, the summed engine counters and transport counters.  A layer
    the workload does not exercise reports zeros — that is the prediction
    the interaction table makes, printed rather than omitted.
    """
    t = tracer
    eng = run["engine"]
    cpu_us = run["cpu_s"] * 1e6
    msgs = run["msgs"]
    busy = t.layer_self_us()
    share = {layer: _ratio(busy.get(layer, 0.0), cpu_us) for layer in LAYERS}

    merges = ("state.accept", "state.merge_al", "state.merge_al_fold",
              "state.merge_pal", "state.update_buf")
    log_ops = [n for n in t.agg if n.startswith("logs.")]
    net_ops = ("network.broadcast", "network.unicast", "network.arrive")
    kernel_ops = ("kernel.run", "kernel.step", "kernel.schedule",
                  "kernel.schedule_at", "kernel.timer_fire")
    simhost_ops = [n for n in t.agg if n.startswith("simhost.")]
    encodes = t.calls("codec.encode")

    out = {
        "codec.encode_calls": encodes,
        "codec.encode_us_per_call": t.us_per_call("codec.encode"),
        "codec.decode_calls": t.calls("codec.decode"),
        "codec.decode_us_per_call": t.us_per_call("codec.decode"),
        "codec.bytes_per_frame": _ratio(probes.encoded_bytes, encodes),
        "codec.decode_errors": run["transport"].get("decode_errors", 0),
        "entity.on_pdu_calls": t.calls("entity.on_pdu"),
        "entity.on_pdu_self_us": t.us_per_call("entity.on_pdu"),
        "entity.on_tick_calls": t.calls("entity.on_tick"),
        "entity.on_tick_self_us": t.us_per_call("entity.on_tick"),
        "entity.submit_self_us": t.us_per_call("entity.submit"),
        "entity.control_frames_per_msg": _ratio(
            eng["sent_heartbeats"] + eng["sent_null"] + eng["sent_rets"], msgs),
        "entity.duplicates_per_accept": _ratio(eng["duplicates"], eng["accepted"]),
        "entity.pack_source_scans_per_accept": _ratio(
            eng["pack_source_scans"], eng["accepted"]),
        "entity.cpi_fast_append_ratio": _ratio(
            eng["cpi_fast_appends"],
            eng["cpi_fast_appends"] + eng["cpi_scan_inserts"]),
        "entity.flow_blocked": eng["flow_blocked"],
        "entity.resident_high_water": run["resident_high_water"],
        "state.merge_calls": sum(t.calls(n) for n in merges),
        "state.merge_us_per_call": t.us_per_call(*merges),
        "logs.ops": sum(t.calls(n) for n in log_ops),
        "logs.us_per_op": t.us_per_call(*log_ops),
        "retransmit.rets_sent": eng["sent_rets"],
        "retransmit.ret_retries": eng["ret_retries"],
        "retransmit.retransmissions": eng["retransmissions"],
        "retransmit.suppressed": eng["retransmissions_suppressed"],
        # Nothing retransmitted means nothing wasted.
        "retransmit.useful_ratio": (
            1.0 - _ratio(probes.retx_duplicate, probes.retx_received)),
        "udp.datagrams_per_msg": _ratio(
            run["transport"].get("datagrams_sent", 0), msgs),
        "udp.bytes_per_msg": _ratio(probes.wire_bytes, msgs),
        "udp.send_self_us": t.us_per_call("udp.broadcast", "udp.unicast"),
        "udp.inbox_wait_us_p50": _percentile(probes.inbox_wait_s, 0.50) * 1e6,
        "udp.inbox_wait_us_p99": _percentile(probes.inbox_wait_s, 0.99) * 1e6,
        "udp.inbox_depth_max": probes.inbox_depth_max,
        "udp.overruns": run["transport"].get("overruns", 0),
        "host.deliver_cb_us": t.us_per_call("host.deliver_cb"),
        "host.tick_late_ms_p99": _percentile(probes.tick_late_s, 0.99) * 1e3,
        "loop.idle_share": max(0.0, 1.0 - _ratio(run["cpu_s"], run["wall_s"])),
        "loop.loadgen_late_ms_p99": run["loadgen_late_ms_p99"],
        "loop.deliver_p95_whole_ms": run["p95_whole_ms"],
        "loop.deliver_p99_ms": run["p99_ms"],
        "loop.deliver_p999_ms": run["p999_ms"],
        "simhost.arrivals": t.calls("simhost.on_arrival"),
        "simhost.self_us_per_arrival": _ratio(
            t.self_us(*simhost_ops), t.calls("simhost.on_arrival")),
        "network.copies_per_msg": (
            _ratio(run["frames"], msgs) if t.calls("network.arrive") else 0.0),
        "network.self_us_per_copy": _ratio(
            t.self_us(*net_ops), t.calls("network.arrive")),
        "kernel.events": run.get("kernel_events", 0),
        "kernel.self_us_per_event": _ratio(
            t.self_us(*kernel_ops), run.get("kernel_events", 0)),
        "trace.records": t.calls("trace.record"),
        "trace.us_per_record": t.us_per_call("trace.record"),
    }
    for layer in LAYERS:
        out[f"{layer}.busy_share"] = share[layer]
    coverage = sum(share.values())
    out["ledger.coverage"] = coverage
    out["loop.other_share"] = max(0.0, 1.0 - coverage)
    return out
