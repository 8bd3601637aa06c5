"""End-to-end integration: full clusters, workloads, loss, verification.

Every test runs a complete simulated cluster and then checks the CO service
contract (§2.3) with the independent causal-order checker.
"""

import pytest

from repro.core.cluster import build_cluster, CpuModel
from repro.core.config import ProtocolConfig
from repro.harness import ExperimentConfig, run_experiment
from repro.net.loss import BernoulliLoss, BurstLoss
from repro.net.topology import Topology
from repro.ordering.checker import verify_run
from repro.sim.rng import RngRegistry
from repro.workloads.generators import (
    BurstyWorkload,
    ContinuousWorkload,
    PoissonWorkload,
    RequestReplyWorkload,
)


def run_and_verify(cluster, n, max_time=60.0):
    cluster.run_until_quiescent(max_time=max_time)
    report = verify_run(cluster.trace, n)
    report.assert_ok()
    return report


class TestLossFreeOperation:
    def test_many_concurrent_senders(self):
        cluster = build_cluster(5)
        for r in range(10):
            for i in range(5):
                cluster.submit(i, f"m{i}.{r}")
        report = run_and_verify(cluster, 5)
        assert report.deliveries == [50] * 5

    def test_heterogeneous_delays(self):
        rngs = RngRegistry(3)
        topo = Topology.random_plane(4, rngs.stream("topo"))
        cluster = build_cluster(4, topology=topo, rngs=rngs)
        for k in range(12):
            cluster.submit(k % 4, f"m{k}")
        run_and_verify(cluster, 4)


class TestLossyOperation:
    @pytest.mark.parametrize("loss_rate", [0.02, 0.08, 0.15])
    def test_bernoulli_loss_recovered(self, loss_rate):
        cluster = build_cluster(
            4, loss=BernoulliLoss(loss_rate, protect_control=True),
            rngs=RngRegistry(int(loss_rate * 100)),
        )
        for r in range(12):
            for i in range(4):
                cluster.submit(i, f"m{i}.{r}")
        report = run_and_verify(cluster, 4)
        assert report.deliveries == [48] * 4

    def test_lossy_control_plane_recovered(self):
        cluster = build_cluster(
            4, loss=BernoulliLoss(0.10, protect_control=False),
            rngs=RngRegistry(17),
        )
        for r in range(10):
            for i in range(4):
                cluster.submit(i, f"m{i}.{r}")
        run_and_verify(cluster, 4)

    def test_burst_loss_recovered(self):
        cluster = build_cluster(
            4,
            loss=BurstLoss(p_good_to_bad=0.05, p_bad_to_good=0.3, bad_loss=0.8),
            rngs=RngRegistry(23),
        )
        for r in range(10):
            for i in range(4):
                cluster.submit(i, f"m{i}.{r}")
        run_and_verify(cluster, 4)

    def test_overrun_loss_from_slow_cpu(self):
        cluster = build_cluster(
            3, buffer_capacity=8, cpu=CpuModel(base=1.5e-3, per_entity=0.0),
        )
        for k in range(12):
            cluster.submit(0, f"m{k}")
        report = run_and_verify(cluster, 3, max_time=120.0)
        assert report.deliveries == [12] * 3


class TestWorkloads:
    def _cluster(self, n=4, seed=0, **kw):
        return build_cluster(n, rngs=RngRegistry(seed), **kw)

    def test_continuous_workload(self):
        cluster = self._cluster()
        ContinuousWorkload(messages_per_entity=8, interval=5e-4).install(
            cluster, RngRegistry(0),
        )
        report = run_and_verify(cluster, 4)
        assert report.deliveries == [32] * 4

    def test_poisson_workload(self):
        cluster = self._cluster(seed=1)
        PoissonWorkload(rate_per_entity=2000, duration=0.01).install(
            cluster, RngRegistry(1),
        )
        run_and_verify(cluster, 4)

    def test_bursty_workload(self):
        cluster = self._cluster(seed=2)
        BurstyWorkload(bursts=3, burst_size=6).install(cluster, RngRegistry(2))
        report = run_and_verify(cluster, 4)
        assert report.deliveries == [18] * 4

    def test_request_reply_creates_causal_chains(self):
        cluster = self._cluster(seed=3)
        RequestReplyWorkload(requests=4).install(cluster, RngRegistry(3))
        report = run_and_verify(cluster, 4)
        # Each request gets n-1 replies: 4 * (1 + 3) messages.
        assert report.messages_sent == 16

    def test_request_reply_under_loss_still_causal(self):
        cluster = self._cluster(
            seed=4, loss=BernoulliLoss(0.1, protect_control=True),
        )
        RequestReplyWorkload(requests=5, max_depth=2).install(
            cluster, RngRegistry(4),
        )
        run_and_verify(cluster, 4)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            result = run_experiment(ExperimentConfig(
                n=4, messages_per_entity=10, loss_rate=0.07, seed=seed,
            ))
            return [
                (r.time, r.category, r.entity, tuple(sorted(r.details.items())))
                for r in result.cluster.trace
            ]

        assert run(9) == run(9)

    def test_different_seed_different_loss_pattern(self):
        def drops(seed):
            result = run_experiment(ExperimentConfig(
                n=4, messages_per_entity=10, loss_rate=0.07, seed=seed,
            ))
            return result.cluster.trace.count("drop")

        # Not a hard guarantee for any pair, but these seeds differ.
        assert drops(1) != drops(2) or drops(2) != drops(3)


class TestScale:
    def test_sixteen_entities(self):
        cluster = build_cluster(16, buffer_capacity=1024)
        for i in range(16):
            cluster.submit(i, f"hello-{i}")
        report = run_and_verify(cluster, 16, max_time=120.0)
        assert report.deliveries == [16] * 16

    def test_long_run_sequence_numbers_keep_growing(self):
        cluster = build_cluster(3)
        for r in range(100):
            cluster.submit(0, f"m{r}")
        run_and_verify(cluster, 3, max_time=120.0)
        assert cluster.engines[0].sl.next_seq == 101

    def test_sending_log_pruned_on_long_run(self):
        cluster = build_cluster(3)
        for r in range(100):
            cluster.submit(0, f"m{r}")
        cluster.run_until_quiescent(max_time=120.0)
        # Everything acknowledged: almost nothing retained.
        assert cluster.engines[0].sl.retained < 100
