"""Unit tests for the MC broadcast network."""

from dataclasses import dataclass

import pytest

from repro.net.delay import JitterDelay, LinkDelay
from repro.net.loss import BernoulliLoss, DuplicatingChannel, NoLoss, ScriptedLoss
from repro.net.network import MCNetwork
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class Pdu:
    src: int
    seq: int
    is_control: bool = False

    def wire_size(self) -> int:
        return 10


def build(n=3, delay=1.0, loss=None):
    sim = Simulator()
    trace = TraceLog()
    net = MCNetwork(sim, trace, Topology.uniform(n, delay), loss=loss)
    inboxes = [[] for _ in range(n)]
    for i in range(n):
        net.attach(i, inboxes[i].append)
    return sim, net, inboxes, trace


def test_broadcast_reaches_all_but_sender():
    sim, net, inboxes, _ = build()
    pdu = Pdu(0, 1)
    net.broadcast(0, pdu)
    sim.run()
    assert inboxes[0] == []
    assert inboxes[1] == [pdu]
    assert inboxes[2] == [pdu]


def test_delivery_honours_propagation_delay():
    sim, net, inboxes, _ = build(delay=2.5)
    arrival_times = []
    net._sinks[1] = lambda pdu: arrival_times.append(sim.now)
    net.broadcast(0, Pdu(0, 1))
    sim.run()
    assert arrival_times == [2.5]


def test_per_pair_fifo_order():
    sim, net, inboxes, _ = build()
    first, second = Pdu(0, 1), Pdu(0, 2)
    net.broadcast(0, first)
    net.broadcast(0, second)
    sim.run()
    assert inboxes[1] == [first, second]


def test_unicast_reaches_only_target():
    sim, net, inboxes, _ = build()
    net.unicast(0, 2, Pdu(0, 1))
    sim.run()
    assert inboxes[1] == []
    assert len(inboxes[2]) == 1


def test_unicast_records_trace_event():
    sim, net, _, trace = build()
    net.unicast(0, 2, Pdu(0, 7))
    sim.run()
    assert trace.count("unicast") == 1
    rec = trace.select(category="unicast")[0]
    assert rec.entity == 0
    assert rec.get("dst") == 2
    assert rec.get("kind") == "Pdu"
    assert rec.get("src") == 0
    assert rec.get("seq") == 7


def test_unicast_trace_matches_stats_count():
    sim, net, _, trace = build()
    net.unicast(0, 1, Pdu(0, 1))
    net.unicast(2, 1, Pdu(2, 1, is_control=True))
    sim.run()
    assert net.stats.unicasts == 2
    assert trace.count("unicast") == net.stats.unicasts


def test_unicast_to_self_rejected():
    _, net, _, _ = build()
    with pytest.raises(ValueError):
        net.unicast(0, 0, Pdu(0, 1))


def test_attach_validation():
    sim = Simulator()
    net = MCNetwork(sim, TraceLog(), Topology.uniform(2, 1.0))
    net.attach(0, lambda p: None)
    with pytest.raises(ValueError):
        net.attach(0, lambda p: None)  # duplicate
    with pytest.raises(ValueError):
        net.attach(5, lambda p: None)  # out of range


def test_loss_model_drops_copies():
    sim, net, inboxes, trace = build(loss=BernoulliLoss(1.0))
    net.broadcast(0, Pdu(0, 1))
    sim.run()
    assert inboxes[1] == [] and inboxes[2] == []
    assert net.stats.copies_dropped == 2
    assert trace.count("drop") == 2


def test_scripted_loss_targets_one_destination():
    loss = ScriptedLoss([(0, 1, 1)])
    sim, net, inboxes, _ = build(loss=loss)
    net.broadcast(0, Pdu(0, 1))
    sim.run()
    assert inboxes[1] == []
    assert len(inboxes[2]) == 1


def test_stats_accounting():
    sim, net, _, _ = build()
    net.broadcast(0, Pdu(0, 1))
    net.broadcast(1, Pdu(1, 1, is_control=True))
    sim.run()
    assert net.stats.broadcasts == 2
    assert net.stats.data_pdus == 1
    assert net.stats.control_pdus == 1
    assert net.stats.copies_sent == 4
    assert net.stats.copies_delivered == 4
    assert net.stats.bytes_sent == 40


def test_in_flight_counter():
    sim, net, _, _ = build()
    net.broadcast(0, Pdu(0, 1))
    assert net.in_flight == 2
    sim.run()
    assert net.in_flight == 0


def test_max_delay_exposed():
    _, net, _, _ = build(delay=0.25)
    assert net.max_delay == 0.25


def test_reliable_network_never_drops():
    """``loss=None`` is the reliable network ISIS CBCAST assumes."""
    sim, net, inboxes, _ = build(loss=None)
    for k in range(50):
        net.broadcast(0, Pdu(0, k + 1))
    sim.run()
    assert len(inboxes[1]) == 50
    assert net.stats.copies_dropped == 0


def test_arrival_at_unattached_entity_raises():
    sim = Simulator()
    net = MCNetwork(sim, TraceLog(), Topology.uniform(2, 1.0))
    net.attach(0, lambda p: None)
    net.broadcast(0, Pdu(0, 1))
    with pytest.raises(RuntimeError):
        sim.run()


# ----------------------------------------------------------------------
# The per-copy path (DESIGN.md §16): per-frame constants hoisted, same
# draws, same arrival times, every copy counted once
# ----------------------------------------------------------------------

def _reference_arrivals(n, sends, seed, *, delays, loss, dup, jitter,
                        delay_model, bandwidth):
    """The per-copy algorithm as it was written before the fan-out loop
    was hoisted — one copy at a time, a tuple-keyed FIFO dict, every term
    recomputed — kept here as the reference the network must match to the
    bit.  Returns ``[(arrival, src, dst, seq)]`` in scheduling order."""
    rngs = RngRegistry(seed)
    loss_rng = rngs.stream("network-loss")
    jitter_rng = rngs.stream("network-jitter")
    dup_rng = rngs.stream("network-dup")
    delay_rng = rngs.stream("network-delay")
    last = {}
    out = []

    def dispatch(now, src, dst, pdu):
        if loss is not None and loss.should_drop(src, dst, pdu, loss_rng):
            return
        arrival = now + delays[src][dst]
        if bandwidth:
            arrival += pdu.wire_size() / bandwidth
        if jitter:
            arrival += jitter_rng.expovariate(1.0 / jitter)
        if delay_model is not None:
            arrival += delay_model.extra_delay(src, dst, pdu, delay_rng)
        arrival = max(arrival, last.get((src, dst), 0.0))
        last[(src, dst)] = arrival
        out.append((arrival, src, dst, pdu.seq))

    for now, src, dst, pdu in sends:
        for target in ([d for d in range(n) if d != src] if dst is None else [dst]):
            if dup is not None:
                for _ in range(dup.extra_copies(src, target, pdu, dup_rng)):
                    dispatch(now, src, target, pdu)
            dispatch(now, src, target, pdu)
    return out


@pytest.mark.parametrize("lossy", [False, True])
def test_copy_path_matches_the_per_copy_reference_bit_for_bit(lossy):
    n, seed = 4, 13
    topology = Topology.random_plane(n, RngRegistry(1).stream("plane"))
    knobs = dict(jitter=3e-4, bandwidth=2e6)
    make_models = lambda: dict(       # stateful: one set per side
        loss=BernoulliLoss(0.2) if lossy else None,
        dup=DuplicatingChannel(0.3, max_extra=2),
        delay_model=JitterDelay(2e-4, links=[(0, 1), (2, 3), (3, 0)]),
    )
    # (send time, src, unicast dst or None, pdu): bursts at one instant and
    # spread sends, so the FIFO clamp is exercised under jitter.
    sends = [
        (0.0005 * (k // 3), k % n, (k + 1) % n if k % 5 == 0 else None,
         Pdu(k % n, k + 1))
        for k in range(60)
    ]

    sim = Simulator()
    models = make_models()
    net = MCNetwork(
        sim, TraceLog(), topology, loss=models["loss"], rngs=RngRegistry(seed),
        bandwidth_bytes_per_s=knobs["bandwidth"], jitter=knobs["jitter"],
        duplication=models["dup"], delay_model=models["delay_model"],
    )
    got = []
    for i in range(n):
        net.attach(i, lambda pdu: None)
    net._arrive = lambda src, dst, pdu: got.append((sim.now, src, dst, pdu.seq))
    for at, src, dst, pdu in sends:
        send = net.broadcast if dst is None else net.unicast
        args = (src, pdu) if dst is None else (src, dst, pdu)
        sim.schedule_at(at, send, *args)
    sim.run()

    want = _reference_arrivals(
        n, sends, seed, delays=topology.as_matrix(), **make_models(), **knobs)
    # Same multiset of (time, pair, seq) — exact float equality — and the
    # same per-pair order.
    assert sorted(got) == sorted(want)
    for pair in {(s, d) for _, s, d, _ in want}:
        assert ([e for e in got if e[1:3] == pair]
                == [e for e in want if e[1:3] == pair])
    # Every copy — original, duplicate, dropped — is counted exactly once.
    dropped = net.stats.copies_dropped
    assert net.stats.copies_sent == len(want) + dropped
    assert net.stats.bytes_sent == 10 * net.stats.copies_sent
    assert (dropped > 0) == lossy
    assert net.stats.copies_duplicated == models["dup"].duplicated > 0


def test_fifo_clamp_is_per_pair():
    """A late copy holds back only the copies behind it on *its* link."""
    slow = LinkDelay()
    sim = Simulator()
    net = MCNetwork(sim, TraceLog(), Topology.uniform(3, 1.0), delay_model=slow)
    arrivals = []
    for i in range(3):
        net.attach(i, lambda pdu, i=i: arrivals.append((sim.now, i, pdu.seq)))
    slow.set_link(0, 1, 5.0)
    net.broadcast(0, Pdu(0, 1))          # 0->1 arrives at 6.0, 0->2 at 1.0
    slow.clear()
    net.broadcast(0, Pdu(0, 2))          # 0->1 clamped to 6.0, 0->2 at 1.0
    net.broadcast(1, Pdu(1, 1))          # other sources are not held back
    sim.run()
    assert [(t, seq) for t, dst, seq in arrivals if dst == 1] == [(6.0, 1), (6.0, 2)]
    assert [(t, seq) for t, dst, seq in arrivals if dst == 2] == [
        (1.0, 1), (1.0, 2), (1.0, 1)]
    assert [(t, seq) for t, dst, seq in arrivals if dst == 0] == [(1.0, 1)]


def test_duplicating_channel_draws_per_copy():
    """One dup draw per destination; each duplicate takes its own loss and
    jitter draw and is counted as a copy of its own."""

    class CountingLoss(BernoulliLoss):
        calls = 0

        def should_drop(self, src, dst, pdu, rng):
            CountingLoss.calls += 1
            return super().should_drop(src, dst, pdu, rng)

    dup = DuplicatingChannel(1.0, max_extra=1)      # always exactly one extra
    sim = Simulator()
    net = MCNetwork(
        sim, TraceLog(), Topology.uniform(3, 1.0), loss=CountingLoss(0.0),
        rngs=RngRegistry(2), jitter=1e-3, duplication=dup,
    )
    times = {1: [], 2: []}
    net.attach(0, lambda pdu: None)
    for i in (1, 2):
        net.attach(i, lambda pdu, i=i: times[i].append(sim.now))
    net.broadcast(0, Pdu(0, 1))
    assert net.in_flight == 4
    sim.run()
    assert CountingLoss.calls == 4
    assert net.stats.copies_sent == 4 and net.stats.copies_duplicated == 2
    assert net.stats.bytes_sent == 40 and net.stats.copies_delivered == 4
    for i in (1, 2):
        assert len(times[i]) == 2 and times[i] == sorted(times[i])
    # Four jitter draws were taken, one per copy.
    fresh = RngRegistry(2).stream("network-jitter")
    for _ in range(4):
        fresh.expovariate(1.0 / 1e-3)
    assert net._jitter_rng.random() == fresh.random()


def test_no_loss_model_is_never_consulted():
    """``NoLoss`` draws nothing, so the copy path does not call it; any
    other model — a subclass included — is consulted once per copy."""

    class Spy(NoLoss):
        calls = 0

        def should_drop(self, src, dst, pdu, rng):
            Spy.calls += 1
            return False

    sim, net, inboxes, _ = build(loss=Spy())
    net.broadcast(0, Pdu(0, 1))
    assert Spy.calls == 2
    net.loss = NoLoss()                 # swapped mid-run: read per frame
    net.broadcast(0, Pdu(0, 2))
    sim.run()
    assert Spy.calls == 2 and len(inboxes[1]) == 2
