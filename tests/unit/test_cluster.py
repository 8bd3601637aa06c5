"""Unit tests for hosts, the CPU model and cluster assembly."""

from dataclasses import replace

import pytest

from repro.core.cluster import CpuModel, build_cluster
from repro.core.config import ProtocolConfig
from repro.core.errors import ConfigurationError
from repro.net.topology import Topology
from tests.conftest import make_pdu


def test_cpu_model_linear_in_n():
    cpu = CpuModel(base=10e-6, per_entity=2e-6)
    assert cpu.service_time(None, 4) == pytest.approx(18e-6)
    assert cpu.service_time(None, 8) - cpu.service_time(None, 4) == pytest.approx(8e-6)


def test_build_cluster_requires_two_entities():
    with pytest.raises(ConfigurationError):
        build_cluster(1)


def test_build_cluster_topology_size_checked():
    with pytest.raises(ConfigurationError):
        build_cluster(3, topology=Topology.uniform(4, 1e-4))


def test_single_broadcast_delivered_everywhere():
    cluster = build_cluster(3)
    cluster.submit(0, "hello")
    cluster.run_until_quiescent(max_time=5.0)
    for i in range(3):
        assert [m.data for m in cluster.delivered(i)] == ["hello"]


def test_sender_also_delivers_to_itself():
    cluster = build_cluster(2)
    cluster.submit(1, "self-included")
    cluster.run_until_quiescent(max_time=5.0)
    assert cluster.delivered(1)[0].data == "self-included"
    assert cluster.delivered(1)[0].src == 1


def test_delivery_metadata():
    cluster = build_cluster(3)
    cluster.submit(2, "x")
    cluster.run_until_quiescent(max_time=5.0)
    message = cluster.delivered(0)[0]
    assert message.src == 2
    assert message.seq == 1
    assert message.delivered_at > 0


def test_hosts_process_serially_with_service_time():
    cpu = CpuModel(base=1e-3, per_entity=0.0)
    cluster = build_cluster(2, cpu=cpu)
    cluster.submit(0, "a")
    cluster.submit(0, "b")
    cluster.run_until_quiescent(max_time=10.0)
    host = cluster.hosts[1]
    assert host.pdus_processed >= 2
    assert host.mean_service_time >= 1e-3


def test_delivery_listener_invoked():
    cluster = build_cluster(2)
    seen = []
    cluster.hosts[1].add_delivery_listener(lambda m: seen.append(m.data))
    cluster.submit(0, "ping")
    cluster.run_until_quiescent(max_time=5.0)
    assert seen == ["ping"]


def test_run_for_advances_time():
    cluster = build_cluster(2)
    t = cluster.run_for(0.5)
    assert t == pytest.approx(0.5)


def test_quiescence_timeout_raises():
    # Strict paper mode cannot acknowledge the tail of a finite workload.
    cluster = build_cluster(3, config=ProtocolConfig(strict_paper_mode=True))
    cluster.submit(0, "stuck")
    with pytest.raises(TimeoutError):
        cluster.run_until_quiescent(max_time=0.5)


def test_engines_share_protocol_config():
    config = ProtocolConfig(window=3)
    cluster = build_cluster(3, config=config)
    assert all(e.config.window == 3 for e in cluster.engines)


def test_undersized_buffer_rejected():
    # The flow condition divides minBUF by 2nH: buffers below that block
    # all transmission, so the builder refuses them.
    with pytest.raises(ConfigurationError):
        build_cluster(3, buffer_capacity=5)


def test_buffer_overrun_happens_with_small_buffers():
    # A slow CPU and a burst larger than the buffer must overrun.
    cpu = CpuModel(base=5e-3, per_entity=0.0)
    cluster = build_cluster(3, buffer_capacity=6, cpu=cpu)
    for k in range(12):
        cluster.submit(0, f"burst-{k}")
    cluster.run_for(0.05)
    overruns = sum(h.buffer.stats.overruns for h in cluster.hosts)
    assert overruns > 0
    assert cluster.trace.count("drop") >= overruns


def test_overrun_losses_are_recovered():
    cpu = CpuModel(base=2e-3, per_entity=0.0)
    cluster = build_cluster(3, buffer_capacity=6, cpu=cpu)
    for k in range(8):
        cluster.submit(0, f"m{k}")
    cluster.run_until_quiescent(max_time=60.0)
    for i in range(3):
        assert len(cluster.delivered(i)) == 8


# ----------------------------------------------------------------------
# The per-arrival path (DESIGN.md §16)
# ----------------------------------------------------------------------

def test_an_arriving_copy_is_not_a_trace_event_but_its_loss_is():
    cpu = CpuModel(base=5e-3, per_entity=0.0)
    cluster = build_cluster(3, buffer_capacity=6, cpu=cpu)
    for k in range(12):
        cluster.submit(0, f"burst-{k}")
    cluster.run_for(0.05)
    cluster.crash(2)
    cluster.submit(0, "after-crash")
    cluster.run_for(0.05)
    assert cluster.trace.count("arrive") == 0
    reasons = {rec.get("reason") for rec in cluster.trace.select("drop")}
    assert reasons == {"overrun", "crashed"}
    overruns = sum(h.buffer.stats.overruns for h in cluster.hosts)
    assert overruns == len(cluster.trace.select(
        "drop", predicate=lambda rec: rec.get("reason") == "overrun"))
    # Every copy the network delivered was offered to a live host's buffer
    # or dropped at a crashed one — nothing vanishes with the record.
    offered = sum(h.buffer.stats.offered for h in cluster.hosts)
    crashed = len(cluster.trace.select(
        "drop", predicate=lambda rec: rec.get("reason") == "crashed"))
    assert offered + crashed == cluster.network.stats.copies_delivered


def test_service_completion_is_scheduled_at_now_plus_service_time():
    cluster = build_cluster(2, cpu=CpuModel(base=1e-3, per_entity=0.0))
    host = cluster.hosts[1]
    host.cpu_scale = 3.0
    cluster.submit(0, "x")
    cluster.run_for(200e-6)                   # the copy has just arrived
    assert not host.idle and host.busy_time == pytest.approx(3e-3)
    cluster.run_for(3e-3 - 1e-6)
    assert host.pdus_processed == 0
    cluster.run_for(2e-6)
    assert host.pdus_processed == 1


def test_engine_clock_is_the_kernel_clock_also_after_restart():
    config = ProtocolConfig(suspect_timeout=0.02, evict_timeout=0.05)
    cluster = build_cluster(3, config=config)
    cluster.run_for(0.0123)
    assert all(e.now == cluster.sim.now == 0.0123 for e in cluster.engines)
    cluster.crash(1)
    cluster.run_for(0.2)
    reborn = cluster.restart(1)
    cluster.run_for(0.0077)
    assert reborn.now == cluster.sim.now
    assert type(reborn._clock) is type(cluster.engines[0]._clock)


def test_quiescence_polling_reads_only_the_tail_of_the_trace(monkeypatch):
    """run_until_quiescent judges progress on what a chunk appended, via
    TraceLog.tail — never by iterating the log from record 0."""
    from repro.sim.trace import TraceLog

    cluster = build_cluster(3)
    for k in range(5):
        cluster.submit(k % 3, f"m{k}")
    before = cluster.trace.recorded_total
    asked = []
    real_tail = TraceLog.tail
    monkeypatch.setattr(
        TraceLog, "tail", lambda self, k: asked.append(k) or real_tail(self, k))
    monkeypatch.setattr(
        TraceLog, "__iter__",
        lambda self: pytest.fail("the whole log was walked"))
    cluster.run_until_quiescent(max_time=60.0)
    assert sum(asked) == cluster.trace.recorded_total - before > 0
    assert all(len(cluster.delivered(i)) == 5 for i in range(3))


def _turn_host():
    """Host 0 of three, alone (its peers crashed), serving a data PDU in
    1 ms, with a record of each data PDU its engine handles: ``(seq,
    more_input())`` — whether more of that PDU's turn was still waiting."""
    cluster = build_cluster(3, cpu=CpuModel(base=1e-3, per_entity=0.0))
    cluster.crash(1)
    cluster.crash(2)
    host = cluster.hosts[0]
    engine = host.engine
    seen = []
    on_pdu = engine.on_pdu

    def recording(pdu):
        seen.append((pdu.seq, engine._more_input()))
        on_pdu(pdu)

    engine.on_pdu = recording
    # p1 arrives alone and is a turn of its own; p2–p4 arrive while it is
    # served, so they wait, and are what waits when the next turn begins.
    host.on_arrival(make_pdu(1, 1, (1, 1, 1)))
    for seq in (2, 3, 4):
        cluster.sim.schedule(0.5e-3, host.on_arrival, make_pdu(1, seq, (1, seq, 1)))
    return cluster, host, seen


def test_a_sim_turn_is_the_input_that_waited_when_it_began():
    """docs/PROTOCOL.md §7: a PDU that arrives during a turn's service
    times is handled in the next turn."""
    cluster, host, seen = _turn_host()
    cluster.sim.schedule(1.5e-3, host.on_arrival, make_pdu(1, 5, (1, 5, 1)))
    cluster.run_for(10e-3)
    assert seen == [(1, False), (2, True), (3, True), (4, False), (5, False)]
    assert not host.engine._owed


def test_a_turn_that_ends_on_a_pdu_owing_nothing_is_settled_by_end_turn():
    cluster, host, seen = _turn_host()
    foreign = replace(make_pdu(1, 5, (1, 5, 1)), cid=2)
    cluster.sim.schedule(0.5e-3, host.on_arrival, foreign)
    cluster.run_for(10e-3)
    assert seen[-2:] == [(4, True), (5, False)]
    assert host.engine.counters.foreign_cluster == 1
    assert not host.engine._owed


def test_a_paused_host_owes_nothing():
    """Pausing mid-turn ends the turn with the PDU in service; the rest of
    the backlog is the first turn after the resume."""
    cluster, host, seen = _turn_host()
    cluster.sim.schedule(1.5e-3, host.pause)
    cluster.run_for(10e-3)
    assert seen == [(1, False), (2, False)]
    assert not host.engine._owed and len(host.buffer) == 2
    host.resume()
    cluster.run_for(10e-3)
    assert seen[2:] == [(3, True), (4, False)]
    assert not host.engine._owed


def test_a_crash_discards_the_open_turn():
    cluster, host, _ = _turn_host()
    cluster.sim.schedule(1.5e-3, host.crash)
    cluster.run_for(10e-3)
    assert not host._more_input()
