"""Run one experiment: configure, simulate, measure, verify.

The config names a protocol, a workload and the environment; the result
carries every number the figures need plus the ordering-oracle verdict.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.baselines.isis_cbcast import CbcastEntity
from repro.baselines.po_protocol import PoEntity
from repro.baselines.unordered import UnorderedEntity
from repro.core.cluster import Cluster, CpuModel, build_cluster
from repro.core.config import (
    ConfirmationMode,
    DeliveryLevel,
    DisseminationMode,
    ProtocolConfig,
    RetransmissionScheme,
)
from repro.core.entity import COEntity
from repro.core.errors import ConfigurationError
from repro.core.groups import HierarchicalCluster, build_hierarchical_cluster
from repro.extensions.total_order import TotalOrderEntity
from repro.metrics.collector import collect_lifecycles, latency_samples, pdu_census
from repro.metrics.stats import Summary, summarize
from repro.net.loss import BernoulliLoss, LossModel
from repro.net.topology import Topology
from repro.ordering.checker import RunReport, verify_run
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from repro.workloads.generators import (
    BurstyWorkload,
    ContinuousWorkload,
    PoissonWorkload,
    RequestReplyWorkload,
    Workload,
)

#: Protocol name -> engine factory.  "co-*" variants reuse the CO engine
#: with ablation switches applied in :func:`_protocol_config`.
PROTOCOLS = {
    "co": COEntity,
    "co-gbn": COEntity,
    "co-strict": COEntity,
    "co-immediate": COEntity,
    "co-preack": COEntity,
    "to": TotalOrderEntity,
    "cbcast": CbcastEntity,
    "po": PoEntity,
    "unordered": UnorderedEntity,
}

WORKLOADS = ("continuous", "poisson", "bursty", "request-reply")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines one run.  Frozen so results can embed it."""

    n: int = 4
    protocol: str = "co"
    workload: str = "continuous"
    #: Continuous workload: submissions per entity and their spacing.
    messages_per_entity: int = 30
    send_interval: float = 1e-3
    payload_size: int = 512
    #: Uniform propagation delay — the paper's R.
    delay: float = 200e-6
    #: Injected Bernoulli loss on data-plane copies.
    loss_rate: float = 0.0
    protect_control: bool = True
    buffer_capacity: int = 256
    window: int = 8
    deferred_interval: float = 2e-3
    ret_timeout: float = 4e-3
    #: Dissemination topology: "flood" (all-to-all, the paper's medium),
    #: "ring" or "gossip" (relay routes, docs/PROTOCOL.md §16).
    dissemination: str = "flood"
    gossip_fanout: int = 3
    gossip_seed: int = 0
    #: Anti-entropy digest cadence (None = repair layer off).  Gossip
    #: dissemination requires it as its completion path.
    anti_entropy_interval: Optional[float] = None
    #: Hierarchical sharding (docs/PROTOCOL.md §18): bound on subgroup
    #: size.  ``None`` runs the flat protocol; a value partitions the
    #: cluster into bridge-relayed subgroups each running the CO engine
    #: over a view-local knowledge state.  CO protocol only.
    group_size: Optional[int] = None
    cpu_base: float = 40e-6
    cpu_per_entity: float = 8e-6
    seed: int = 0
    max_time: float = 60.0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; choose from {sorted(PROTOCOLS)}"
            )
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; choose from {WORKLOADS}"
            )
        try:
            DisseminationMode(self.dissemination)
        except ValueError:
            raise ConfigurationError(
                f"unknown dissemination {self.dissemination!r}; choose from "
                f"{sorted(m.value for m in DisseminationMode)}"
            )
        if self.group_size is not None:
            if self.protocol != "co":
                raise ConfigurationError(
                    "hierarchical sharding runs the CO engine inside every "
                    f"subgroup; protocol {self.protocol!r} is not supported "
                    "with group_size"
                )
            if self.dissemination != "flood":
                raise ConfigurationError(
                    "hierarchical subgroups use the flood medium; combine "
                    "group_size only with dissemination='flood'"
                )
        # Every ProtocolConfig rule fires here, not after the cluster is
        # built.
        _protocol_config(self)

    def with_(self, **changes: Any) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)


@dataclass
class ExperimentResult:
    """Metrics and verdicts of one finished run."""

    config: ExperimentConfig
    simulated_time: float
    quiesced: bool
    #: Modelled per-PDU processing time (the Tco of Fig. 8), seconds.
    tco: float
    #: Measured Python time per PDU inside the engines (real Tco), seconds.
    tco_measured: float
    #: submit → delivery latency samples (the Tap of Fig. 8).
    tap: Summary
    #: accept → pre-ack / accept → ack spans (§5 claim C2).
    preack_latency: Summary
    ack_latency: Summary
    census: Dict[str, int]
    network: Dict[str, int]
    entity_counters: Dict[str, int]
    buffer_overruns: int
    resident_high_water: int
    report: RunReport
    cluster: Cluster = field(repr=False, default=None)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable record of the run (config + headline metrics).

        What a results directory would store next to EXPERIMENTS.md; the
        live ``cluster`` handle is deliberately excluded.
        """
        return {
            "config": dataclasses.asdict(self.config),
            "simulated_time": self.simulated_time,
            "quiesced": self.quiesced,
            "tco": self.tco,
            "tco_measured": self.tco_measured,
            "tap_mean": self.tap.mean,
            "tap_p95": self.tap.p95,
            "preack_latency_p50": self.preack_latency.p50,
            "ack_latency_p50": self.ack_latency.p50,
            "census": dict(self.census),
            "network": dict(self.network),
            "entity_counters": dict(self.entity_counters),
            "buffer_overruns": self.buffer_overruns,
            "resident_high_water": self.resident_high_water,
            "verification": self.report.summary(),
        }

    @property
    def messages_delivered(self) -> int:
        return self.census.get("deliver", 0)

    @property
    def data_pdus_on_wire(self) -> int:
        return self.network.get("data_pdus", 0)

    @property
    def control_pdus_on_wire(self) -> int:
        return self.network.get("control_pdus", 0)

    @property
    def total_pdus_on_wire(self) -> int:
        return self.data_pdus_on_wire + self.control_pdus_on_wire


def _protocol_config(config: ExperimentConfig) -> ProtocolConfig:
    base = ProtocolConfig(
        window=config.window,
        deferred_interval=config.deferred_interval,
        ret_timeout=config.ret_timeout,
        dissemination=DisseminationMode(config.dissemination),
        gossip_fanout=config.gossip_fanout,
        gossip_seed=config.gossip_seed,
        anti_entropy_interval=config.anti_entropy_interval,
        group_size=config.group_size,
    )
    if config.protocol == "co-gbn":
        return base.with_(retransmission=RetransmissionScheme.GO_BACK_N)
    if config.protocol == "co-strict":
        return base.with_(strict_paper_mode=True)
    if config.protocol == "co-immediate":
        return base.with_(confirmation=ConfirmationMode.IMMEDIATE)
    if config.protocol == "co-preack":
        return base.with_(delivery_level=DeliveryLevel.PREACKNOWLEDGED)
    return base


def _build_workload(config: ExperimentConfig) -> Workload:
    if config.workload == "continuous":
        return ContinuousWorkload(
            messages_per_entity=config.messages_per_entity,
            interval=config.send_interval,
            payload_size=config.payload_size,
        )
    if config.workload == "poisson":
        return PoissonWorkload(
            rate_per_entity=1.0 / config.send_interval,
            duration=config.messages_per_entity * config.send_interval,
            payload_size=config.payload_size,
        )
    if config.workload == "bursty":
        return BurstyWorkload(
            bursts=config.messages_per_entity,
            payload_size=config.payload_size,
        )
    return RequestReplyWorkload(
        requests=config.messages_per_entity,
        request_interval=config.send_interval,
        payload_size=config.payload_size,
    )


def _merge_counts(parts: list) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _verify_hierarchical(
    cluster: HierarchicalCluster, expect_all: bool
) -> RunReport:
    """Check the CO contract inside every subgroup and merge the verdicts.

    Each subgroup's trace is self-contained (view-local indices, its own
    submissions including bridge re-injections), so the flat checker runs
    per group; defect tables are re-keyed to global entity ids.  The
    cross-group ordering claim is covered by the conformance/property
    tier, not this per-run oracle.
    """
    merged = RunReport(n=cluster.n, messages_sent=0, deliveries=[])
    for k, group in enumerate(cluster.groups):
        base = cluster.partition[k][0]
        part = verify_run(group.trace, group.n, expect_all_delivered=expect_all)
        merged.messages_sent += part.messages_sent
        merged.deliveries.extend(part.deliveries)
        for table, sub in (
            (merged.missing, part.missing),
            (merged.duplicates, part.duplicates),
            (merged.local_order, part.local_order),
            (merged.causality, part.causality),
        ):
            for entity, items in sub.items():
                table.setdefault(base + entity, []).extend(items)
    return merged


def run_experiment(
    config: ExperimentConfig,
    trace: Optional[TraceLog] = None,
) -> ExperimentResult:
    """Execute one experiment and collect its metrics.

    Baselines that cannot quiesce under the configured environment (CBCAST
    with loss, strict paper mode on finite workloads) run to ``max_time``
    and report ``quiesced=False`` instead of raising.

    Pass a ``trace`` (a :class:`~repro.sim.trace.TraceLog`) to record into
    a caller-owned log — the soak harness uses this to dump a recording of
    a failing trial.
    """
    rngs = RngRegistry(config.seed)
    loss: Optional[LossModel] = None
    if config.loss_rate > 0:
        loss = BernoulliLoss(config.loss_rate, protect_control=config.protect_control)
    protocol_config = _protocol_config(config)
    if protocol_config.hierarchy_enabled:
        # Sharded mode (docs/PROTOCOL.md §18): bounded subgroups behind
        # bridge relays.  A single-group partition degenerates to the flat
        # cluster, so the metrics path below stays uniform either way.
        cluster = build_hierarchical_cluster(
            n=config.n,
            config=protocol_config,
            rngs=rngs,
            buffer_capacity=config.buffer_capacity,
            cpu=CpuModel(base=config.cpu_base, per_entity=config.cpu_per_entity),
            delay=config.delay,
            loss=loss,
        )
    else:
        cluster = build_cluster(
            n=config.n,
            config=protocol_config,
            topology=Topology.uniform(config.n, config.delay),
            trace=trace,
            loss=loss,
            rngs=rngs,
            buffer_capacity=config.buffer_capacity,
            cpu=CpuModel(base=config.cpu_base, per_entity=config.cpu_per_entity),
            engine_factory=PROTOCOLS[config.protocol],
        )
    workload = _build_workload(config)
    workload.install(cluster, rngs)

    quiesced = True
    try:
        cluster.run_until_quiescent(max_time=config.max_time)
    except TimeoutError:
        quiesced = False

    # A multi-group cluster records one trace per subgroup (plus the
    # backbone's own log); lifecycle metrics concatenate the per-group
    # samples, and the wire counters sum every medium.
    flat = isinstance(cluster, Cluster)
    traces = [cluster.trace] if flat else [group.trace for group in cluster.groups]
    per_trace = [collect_lifecycles(t) for t in traces]

    def _samples(kind: str) -> list:
        values: list = []
        for lifecycles in per_trace:
            values.extend(s.value for s in latency_samples(lifecycles, kind))
        return values

    tap = summarize(_samples("delivery"))
    preack = summarize(_samples("preack"))
    ack = summarize(_samples("ack"))

    counters: Dict[str, int] = {}
    resident_high = 0
    for engine in cluster.engines:
        snapshot = getattr(engine, "counters", None)
        if snapshot is not None:
            for key, value in snapshot.snapshot().items():
                counters[key] = counters.get(key, 0) + value
        resident_high = max(resident_high, getattr(engine, "resident_high_water", 0))

    expect_all = quiesced and config.protocol in (
        "co", "co-gbn", "co-strict", "co-immediate", "co-preack",
    )
    if flat:
        report = verify_run(cluster.trace, config.n, expect_all_delivered=expect_all)
    else:
        report = _verify_hierarchical(cluster, expect_all)

    hosts = cluster.hosts
    tco = sum(h.mean_service_time for h in hosts) / len(hosts)
    tco_measured = sum(h.mean_real_cpu_time for h in hosts) / len(hosts)
    return ExperimentResult(
        config=config,
        simulated_time=cluster.sim.now,
        quiesced=quiesced,
        tco=tco,
        tco_measured=tco_measured,
        tap=tap,
        preack_latency=preack,
        ack_latency=ack,
        census=_merge_counts([pdu_census(t) for t in traces]),
        network=(
            cluster.network.stats.snapshot() if flat else cluster.network_stats()
        ),
        entity_counters=counters,
        buffer_overruns=sum(h.buffer.stats.overruns for h in hosts),
        resident_high_water=resident_high,
        report=report,
        cluster=cluster,
    )
