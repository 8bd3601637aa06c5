"""Property-based tests of the whole protocol: random environments in,
CO service contract out.

Each example draws a cluster size, workload shape, loss environment and
seed, runs the full simulation, and asserts the ordering oracle's report is
clean.  This is the repository's strongest single check: the protocol has
no knowledge of the oracle, and the oracle has no knowledge of sequence
numbers.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cluster import build_cluster, CpuModel
from repro.core.config import ProtocolConfig, RetransmissionScheme
from repro.net.loss import BernoulliLoss
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry

ENVIRONMENTS = st.fixed_dictionaries({
    "n": st.integers(min_value=2, max_value=5),
    "seed": st.integers(min_value=0, max_value=10_000),
    "loss": st.sampled_from([0.0, 0.03, 0.08, 0.15]),
    "protect_control": st.booleans(),
    "window": st.sampled_from([2, 4, 8]),
    "messages": st.integers(min_value=3, max_value=12),
    "senders": st.sampled_from(["one", "two", "all"]),
    "scheme": st.sampled_from(list(RetransmissionScheme)),
})


def run_environment(env):
    config = ProtocolConfig(window=env["window"], retransmission=env["scheme"])
    loss = None
    if env["loss"] > 0:
        loss = BernoulliLoss(env["loss"], protect_control=env["protect_control"])
    cluster = build_cluster(
        env["n"], config=config, loss=loss, rngs=RngRegistry(env["seed"]),
        buffer_capacity=max(64, 2 * env["n"]),
    )
    if env["senders"] == "one":
        senders = [0]
    elif env["senders"] == "two":
        senders = list({0, env["n"] - 1})
    else:
        senders = list(range(env["n"]))
    for k in range(env["messages"]):
        for s in senders:
            cluster.submit(s, f"m{s}.{k}")
    cluster.run_until_quiescent(max_time=60.0)
    return cluster, len(senders) * env["messages"]


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ENVIRONMENTS)
def test_co_service_contract_holds_in_random_environments(env):
    cluster, sent = run_environment(env)
    report = verify_run(cluster.trace, env["n"])
    assert report.ok, report.summary()
    assert report.deliveries == [sent] * env["n"]


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ENVIRONMENTS)
def test_every_entity_quiesces_with_empty_logs(env):
    cluster, _ = run_environment(env)
    for engine in cluster.engines:
        assert engine.quiescent
        assert engine.rrl.total == 0
        assert len(engine.prl) == 0
        assert engine.gaps.open_gaps == 0


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ENVIRONMENTS)
def test_acknowledged_prefix_agrees_across_entities(env):
    """All entities acknowledge the same PDU set (atomicity)."""
    cluster, _ = run_environment(env)
    ack_sets = [
        {(r.get("src"), r.get("seq")) for r in cluster.trace.select("ack", entity=i)}
        for i in range(env["n"])
    ]
    assert all(s == ack_sets[0] for s in ack_sets)
