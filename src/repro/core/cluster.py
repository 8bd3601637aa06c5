"""Cluster assembly: hosts that bind protocol engines to the substrate.

The paper's system model (Fig. 1) stacks an application entity on a system
entity on a network SAP.  Here:

* :class:`EntityHost` is the "workstation": it owns the finite receive
  buffer (where overrun loss happens), a CPU model that serves one PDU at a
  time (the network is faster than the host — §2.1), the engine's periodic
  housekeeping tick, and the application-side delivery record;
* :class:`Cluster` wires ``n`` hosts to one network and offers run helpers;
* :func:`build_cluster` assembles the whole stack from parameters, for any
  engine type that speaks the sans-I/O interface (``bind`` / ``submit`` /
  ``on_pdu`` / ``on_tick``), which is how the baselines reuse the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity, DeliveredMessage
from repro.core.errors import ConfigurationError
from repro.net.buffers import ReceiveBuffer
from repro.net.delay import DelayModel
from repro.net.loss import DuplicatingChannel, LossModel
from repro.net.network import MCNetwork
from repro.net.topology import Topology
from repro.sim.kernel import Simulator, sim_clock
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceLog

#: Signature of an engine factory, allowing baselines to ride the same hosts:
#: ``factory(index, n, config, clock, trace, advertised_buf) -> engine``.
EngineFactory = Callable[..., Any]

#: Fraction of the data-PDU cost a pure control PDU (heartbeat, RET,
#: view/join traffic, empty batch frame) costs.  Control processing is
#: vector merges only — none of the log/CPI/delivery pipeline a data PDU
#: runs — so charging it a full Tco makes all-to-all confirmation chatter
#: saturate large clusters in a way real hosts would not.
CONTROL_SHARE = 0.25
#: Ticks between two ``gauge`` trace records, on every host.
GAUGE_EVERY = 8


@dataclass(frozen=True)
class CpuModel:
    """Per-PDU processing cost of a system entity.

    The paper measured the per-PDU processing time ``Tco`` to be ``O(n)``
    (Fig. 8): every PDU carries an ``n``-entry ACK vector that must be folded
    into the knowledge matrices.  We model service time as
    ``base + per_entity * n`` and let the host serve one PDU at a time, so a
    receiver genuinely falls behind a fast network — which is where buffer
    overrun comes from.
    """

    #: Fixed cost per PDU (seconds).
    base: float = 40e-6
    #: Cost per cluster entity (vector handling), seconds.
    per_entity: float = 8e-6

    def service_time(self, pdu: Any, n: int) -> float:
        if getattr(pdu, "is_control", False):
            return CONTROL_SHARE * (self.base + self.per_entity * n)
        # A batch frame is k data PDUs' worth of vector folding; the fixed
        # per-frame cost is paid once — that is the Tco win from batching.
        count = max(1, getattr(pdu, "pdu_count", 1))
        return self.base + self.per_entity * n * count


class EntityHost(SimProcess):
    """One simulated workstation: buffer + CPU + engine + application record."""

    def __init__(
        self,
        sim: Simulator,
        trace: TraceLog,
        index: int,
        engine: Any,
        network: MCNetwork,
        buffer: ReceiveBuffer,
        cpu: CpuModel,
        tick_interval: float,
    ):
        super().__init__(sim, trace, index)
        self.engine = engine
        self.network = network
        self.buffer = buffer
        self.cpu = cpu
        self.delivered: List[DeliveredMessage] = []
        self._delivery_listeners: List[Callable[[DeliveredMessage], None]] = []
        self._busy = False
        self._crashed = False
        self._paused = False
        #: Service-time multiplier (gray-failure injection: a CPU-inflated
        #: "slow node" serves every PDU this many times slower).
        self.cpu_scale = 1.0
        self._ticks = 0
        self._tick = PeriodicTimer(sim, tick_interval, self._on_tick)
        self.pdus_processed = 0
        self.busy_time = 0.0
        #: Real (host Python) seconds spent inside ``engine.on_pdu`` — the
        #: measured counterpart of the modelled Tco.
        self.real_cpu_time = 0.0
        #: Data-plane slices of the above: the paper's Tco is the per-DT-PDU
        #: processing time, so the Fig. 8 metrics must not be diluted by
        #: control frames, which are modelled (and measured) far cheaper.
        self.data_pdus_processed = 0
        self.data_busy_time = 0.0
        self.data_real_cpu_time = 0.0
        network.attach(index, self.on_arrival)
        self._bind_engine(engine)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._tick.start()

    def stop(self) -> None:
        self._tick.stop()

    def crash(self) -> None:
        """Crash-stop this host: no more processing, sending or receiving.

        Used by fault-injection experiments together with the engines'
        ``suspect_timeout``.  Crashing is permanent for the host (the paper
        has no recovery protocol; suspicion, however, is revocable for
        hosts that were merely slow).
        """
        if self._crashed:
            return
        self._crashed = True
        self._tick.stop()
        self.buffer.clear()
        self.record("crash")

    @property
    def crashed(self) -> bool:
        return self._crashed

    def pause(self) -> None:
        """Freeze this host (GC-pause / stop-the-world model).

        Unlike :meth:`crash`, the buffer is *kept*: arrivals keep queueing
        (up to overrun) but nothing is serviced and the housekeeping tick
        stops — so the engine neither sends nor processes, exactly the
        silence a long GC pause produces.  A PDU already mid-service
        completes (it was in the pipeline) but does not chain into the
        next one.  :meth:`resume` drains the backlog in a burst.
        """
        if self._crashed or self._paused:
            return
        self._paused = True
        self._tick.stop()
        self.record("pause")

    def resume(self) -> None:
        """Unfreeze a paused host: restart the tick, drain the backlog."""
        if self._crashed or not self._paused:
            return
        self._paused = False
        self._tick = PeriodicTimer(self.sim, self._tick.interval, self._on_tick)
        self._tick.start()
        self.record("resume")
        if not self._busy and not self.buffer.empty:
            self._begin_service()

    @property
    def paused(self) -> bool:
        return self._paused

    def restart(self, engine: Any) -> None:
        """Bring a crashed host back with a *fresh* engine incarnation.

        Crash-recovery model: the old engine's volatile state is gone (that
        is what makes it a crash); the replacement engine starts in
        ``joining`` mode and re-enters the cluster through the join /
        state-transfer protocol.  The host's buffer is already empty
        (crash cleared it), its network tap never detached — arrivals were
        dropped while crashed — so recovery is just new engine + new tick.
        """
        if not self._crashed:
            raise RuntimeError(f"host {self.index} is not crashed")
        self._crashed = False
        self._busy = False
        self._paused = False
        self.buffer.clear()
        self.engine = engine
        self._tick = PeriodicTimer(self.sim, self._tick.interval, self._on_tick)
        self._bind_engine(engine)
        self.record("restart")
        self._tick.start()

    def _bind_engine(self, engine: Any) -> None:
        """Bind the engine's callbacks, offering the unicast path.

        Baseline engines predate the dissemination extension and accept
        only ``(send, deliver)`` — fall back for those; they flood.
        """
        try:
            engine.bind(
                send=self._send, deliver=self._on_deliver,
                unicast=self._unicast,
            )
        except TypeError:
            engine.bind(send=self._send, deliver=self._on_deliver)

    def _on_tick(self) -> None:
        self.engine.on_tick()
        self._ticks += 1
        if self._ticks % GAUGE_EVERY == 0:
            self.sample_gauges()

    def sample_gauges(self) -> None:
        """Record one ``gauge`` trace sample: engine taps + buffer occupancy.

        Baseline engines without a ``gauges()`` tap still contribute the
        host-level buffer fields, so every recording carries the §2.1
        failure-model signal.
        """
        taps = getattr(self.engine, "gauges", None)
        sample = dict(taps()) if callable(taps) else {}
        sample["buf_used"] = self.buffer.used_units
        sample["buf_free"] = self.buffer.free_units
        self.record("gauge", **sample)

    # ------------------------------------------------------------------
    # Application side (the system SAP)
    # ------------------------------------------------------------------
    def submit(self, data: Any, size: int = 0) -> None:
        """A DT request from this host's application entity."""
        self.engine.submit(data, size)

    def _on_deliver(self, message: DeliveredMessage) -> None:
        self.delivered.append(message)
        for listener in self._delivery_listeners:
            listener(message)

    def add_delivery_listener(self, listener: Callable[[DeliveredMessage], None]) -> None:
        """Register an application-side callback fired on every delivery.

        Used by reactive workloads (request-reply / CSCW) that create causal
        chains by broadcasting in response to deliveries.
        """
        self._delivery_listeners.append(listener)

    # ------------------------------------------------------------------
    # Network side
    # ------------------------------------------------------------------
    def _send(self, pdu: Any) -> None:
        if self._crashed:
            return
        self.network.broadcast(self.index, pdu)

    def _unicast(self, dst: int, pdu: Any) -> None:
        if self._crashed:
            return
        self.network.unicast(self.index, dst, pdu)

    def on_arrival(self, pdu: Any) -> None:
        """A copy reached this host: queue it, or lose it to overrun."""
        if self._crashed:
            self.record("drop", reason="crashed",
                        src=getattr(pdu, "src", None), seq=getattr(pdu, "seq", None))
            return
        if not self.buffer.offer(pdu):
            self.record("drop", reason="overrun",
                        src=getattr(pdu, "src", None), seq=getattr(pdu, "seq", None))
            return
        if not self._busy and not self._paused:
            self._begin_service()

    def _begin_service(self) -> None:
        pdu = self.buffer.pop()
        self._busy = True
        service = self.cpu.service_time(pdu, self.network.n) * self.cpu_scale
        self.busy_time += service
        if not getattr(pdu, "is_control", False):
            self.data_busy_time += service
        sim = self.sim
        sim.schedule_at(sim.now + service, self._complete, pdu)

    def _complete(self, pdu: Any) -> None:
        if self._crashed:
            self._busy = False
            return
        count = max(1, getattr(pdu, "pdu_count", 1))
        self.pdus_processed += count
        started = perf_counter()
        self.engine.on_pdu(pdu)
        elapsed = perf_counter() - started
        self.real_cpu_time += elapsed
        if not getattr(pdu, "is_control", False):
            self.data_pdus_processed += count
            self.data_real_cpu_time += elapsed
        if self.buffer.empty or self._paused:
            self._busy = False
        else:
            self._begin_service()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no PDU is being served and none is queued."""
        return self._crashed or (not self._busy and self.buffer.empty)

    @property
    def mean_service_time(self) -> float:
        """Average modelled processing time per *data* PDU (the Tco metric).

        Control frames are excluded on both sides of the division: Fig. 8's
        Tco is the DT-PDU pipeline cost, and folding in the (much cheaper)
        control path would make the metric depend on the chattiness of the
        run rather than on ``n``.
        """
        if self.data_pdus_processed == 0:
            return 0.0
        return self.data_busy_time / self.data_pdus_processed

    @property
    def mean_real_cpu_time(self) -> float:
        """Average *measured* Python time per data PDU inside the engine.

        Sends issued inside ``on_pdu`` are charged to the engine: the
        per-destination copy dispatch is the protocol's real fan-out work
        (the UDP runtime pays n-1 ``sendto`` calls for every broadcast),
        not simulator overhead to be subtracted.
        """
        if self.data_pdus_processed == 0:
            return 0.0
        return self.data_real_cpu_time / self.data_pdus_processed

    def counters(self) -> Dict[str, Dict[str, int]]:
        """The unified counters dict (docs/PROTOCOL.md §13).

        Same shape on every runtime — simulator host, asyncio host, UDP
        member: ``engine`` (EntityCounters snapshot), ``buffer``
        (BufferStats snapshot) and ``transport`` (medium-specific).
        """
        snapshot = getattr(self.engine, "counters", None)
        return {
            "engine": snapshot.snapshot() if snapshot is not None else {},
            "buffer": self.buffer.stats.snapshot(),
            "transport": {"pdus_processed": self.pdus_processed},
        }


class Cluster:
    """A cluster ``C = <E_1, ..., E_n>`` assembled on the simulator."""

    def __init__(
        self,
        sim: Simulator,
        trace: TraceLog,
        network: MCNetwork,
        hosts: Sequence[EntityHost],
        config: ProtocolConfig,
        engine_factory: Optional[EngineFactory] = None,
        roster: Optional[Sequence[int]] = None,
    ):
        self.sim = sim
        self.trace = trace
        self.network = network
        self.hosts = list(hosts)
        self.config = config
        #: Factory used to build replacement engines on :meth:`restart`.
        self.engine_factory = engine_factory
        #: Global ids behind local indices when this cluster is one subgroup
        #: of a hierarchy (docs/PROTOCOL.md §18); None for flat clusters.
        self.roster = tuple(roster) if roster is not None else None

    @property
    def n(self) -> int:
        return len(self.hosts)

    @property
    def engines(self) -> List[Any]:
        return [host.engine for host in self.hosts]

    def start(self) -> None:
        for host in self.hosts:
            host.start()

    def stop(self) -> None:
        for host in self.hosts:
            host.stop()

    def submit(self, index: int, data: Any, size: int = 0) -> None:
        """Broadcast ``data`` from entity ``index``."""
        self.hosts[index].submit(data, size)

    def delivered(self, index: int) -> List[DeliveredMessage]:
        """Messages delivered to entity ``index``'s application, in order."""
        return self.hosts[index].delivered

    def counters(self) -> List[Dict[str, Dict[str, int]]]:
        """Per-member unified counters dicts (docs/PROTOCOL.md §13)."""
        return [host.counters() for host in self.hosts]

    def crash(self, index: int) -> None:
        """Crash-stop one host (fault injection)."""
        self.hosts[index].crash()

    def pause(self, index: int) -> None:
        """Freeze one host (GC-pause model; see EntityHost.pause)."""
        self.hosts[index].pause()

    def resume(self, index: int) -> None:
        """Unfreeze a paused host."""
        self.hosts[index].resume()

    def set_cpu_scale(self, index: int, scale: float) -> None:
        """Inflate one host's per-PDU service time (slow-node injection)."""
        if scale <= 0:
            raise ValueError(f"cpu scale must be positive, got {scale}")
        self.hosts[index].cpu_scale = scale

    def restart(self, index: int) -> Any:
        """Restart a crashed host as a rejoining incarnation.

        Builds a fresh engine in ``joining`` mode (all volatile protocol
        state lost) and hands it to the host; the engine then runs the
        join / state-transfer / re-admission protocol on its own.  Returns
        the new engine.
        """
        if self.engine_factory is None:
            raise ConfigurationError(
                "this cluster was built without an engine factory; "
                "restart() needs one to mint the replacement engine"
            )
        host = self.hosts[index]
        extra = {} if self.roster is None else {"roster": self.roster}
        engine = self.engine_factory(
            index=index,
            n=self.n,
            config=self.config,
            clock=sim_clock(self.sim),
            trace=self.trace,
            advertised_buf=buffer_free_fn(host.buffer),
            joining=True,
            **extra,
        )
        host.restart(engine)
        return engine

    # ------------------------------------------------------------------
    # Run helpers
    # ------------------------------------------------------------------
    def _quiet(self) -> bool:
        if self.network.in_flight:
            return False
        if any(not host.idle for host in self.hosts):
            return False
        return all(
            getattr(host.engine, "quiescent", True)
            for host in self.hosts
            if not host.crashed
        )

    def run_for(self, duration: float) -> float:
        """Advance the simulation by ``duration`` time units."""
        return self.sim.run(until=self.sim.now + duration)

    def run_until_quiescent(self, max_time: float = 60.0, settle_chunks: int = 2) -> float:
        """Run until the protocol has nothing left to do.

        Quiescence = no copies in flight, every host idle, every live
        engine's logs drained and no open gaps — held across
        ``settle_chunks`` consecutive chunk boundaries so pending
        deferred-confirmation timers get their chance to fire.  (Keepalive
        heartbeats from the membership extension do not block quiescence:
        with every log drained they carry no information anyone is waiting
        for.)  Returns the simulated stop time; raises if ``max_time``
        elapses first (usually a stalled protocol, e.g. strict paper mode
        on a finite workload).
        """
        chunk = max(
            self.config.deferred_interval,
            self.config.tick_interval,
            self.config.ret_timeout,
        ) * 2 + 2 * self.network.max_delay + 1e-6
        # Progress = any trace record that is not keepalive chatter.  A
        # chunk with real progress (submissions, acceptances, recoveries)
        # resets the quiet streak, so workloads with long scheduled silences
        # are not mistaken for completion.  Drops are chatter too: a drop of
        # a *data* PDU always comes with submit/accept records elsewhere,
        # while keepalives raining on a crashed host drop forever.  Gauge
        # samples are pure observation and never count as progress.
        # Periodic anti-entropy digests are keepalives with a payload: a
        # drained cluster keeps exchanging them forever, so they cannot
        # count as progress either — the pulls/deltas they *trigger* do.
        ignored = frozenset({"heartbeat", "broadcast", "drop", "gauge", "digest"})
        # A bounded FlightRecorder sheds old records, so progress is judged
        # on the *tail*: recorded_total tracks every record ever offered.
        trace = self.trace
        cursor = trace.recorded_total
        quiet_streak = 0
        while self.sim.now < max_time:
            self.sim.run(until=min(self.sim.now + chunk, max_time))
            fresh = trace.recorded_total - cursor
            cursor += fresh
            # A ring that evicted part of the chunk's records saw that much
            # churn: progress by definition.
            progressed = fresh > len(trace) or any(
                rec.category not in ignored for rec in trace.tail(fresh)
            )
            if self._quiet() and not progressed:
                quiet_streak += 1
                if quiet_streak >= settle_chunks:
                    return self.sim.now
            else:
                quiet_streak = 0
        raise TimeoutError(
            f"cluster did not quiesce within {max_time} simulated seconds "
            f"(strict paper mode on a finite workload never does — see DESIGN.md)"
        )


def default_engine_factory(
    index: int,
    n: int,
    config: ProtocolConfig,
    clock: Callable[[], float],
    trace: TraceLog,
    advertised_buf: Callable[[], int],
    joining: bool = False,
    roster: Optional[Sequence[int]] = None,
) -> COEntity:
    """Build a CO protocol engine (the default for :func:`build_cluster`)."""
    return COEntity(
        index, n, config, clock, trace, advertised_buf,
        joining=joining, roster=roster,
    )


def build_cluster(
    n: int,
    config: Optional[ProtocolConfig] = None,
    topology: Optional[Topology] = None,
    sim: Optional[Simulator] = None,
    trace: Optional[TraceLog] = None,
    loss: Optional[LossModel] = None,
    rngs: Optional[RngRegistry] = None,
    buffer_capacity: int = 256,
    cpu: Optional[CpuModel] = None,
    engine_factory: EngineFactory = default_engine_factory,
    duplication: Optional[DuplicatingChannel] = None,
    delay_model: Optional["DelayModel"] = None,
    roster: Optional[Sequence[int]] = None,
) -> Cluster:
    """Assemble a ready-to-run cluster.

    Parameters mirror one experiment configuration: cluster size, protocol
    config, delay topology (uniform 200 µs by default), loss injection,
    receive-buffer capacity in units, and the CPU model.  The returned
    cluster is started; submit data and run the simulator.
    """
    if n < 2:
        raise ConfigurationError(f"a cluster needs at least 2 entities, got {n}")
    config = config or ProtocolConfig()
    minimum_buffer = 2 * n * config.units_per_pdu
    if buffer_capacity < minimum_buffer:
        raise ConfigurationError(
            f"buffer_capacity={buffer_capacity} is below the protocol's "
            f"minimum operating point: the flow condition divides minBUF by "
            f"H*2n = {minimum_buffer}, so smaller buffers block all "
            f"transmission permanently (§4.2)"
        )
    sim = sim or Simulator()
    trace = trace if trace is not None else TraceLog()
    topology = topology or Topology.uniform(n, 200e-6)
    if topology.n != n:
        raise ConfigurationError(
            f"topology is for {topology.n} entities, cluster has {n}"
        )
    rngs = rngs or RngRegistry()
    cpu = cpu or CpuModel()
    network = MCNetwork(
        sim, trace, topology, loss=loss, rngs=rngs, duplication=duplication,
        delay_model=delay_model,
    )
    hosts = []
    extra = {} if roster is None else {"roster": tuple(roster)}
    for i in range(n):
        buffer = ReceiveBuffer(buffer_capacity, config.units_per_pdu)
        engine = engine_factory(
            index=i,
            n=n,
            config=config,
            clock=sim_clock(sim),
            trace=trace,
            advertised_buf=buffer_free_fn(buffer),
            **extra,
        )
        host = EntityHost(
            sim, trace, i, engine, network, buffer, cpu, config.tick_interval,
        )
        hosts.append(host)
    cluster = Cluster(
        sim, trace, network, hosts, config,
        engine_factory=engine_factory, roster=roster,
    )
    cluster.start()
    return cluster


def buffer_free_fn(buffer: ReceiveBuffer) -> Callable[[], int]:
    """The BUF advertisement: free units of the host's receive buffer."""
    return lambda: buffer.free_units
