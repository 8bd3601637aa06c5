"""Randomized soak testing: hammer the protocol with random environments.

Each trial draws a cluster size, workload, loss environment and timing
parameters from a seeded RNG, runs the full simulation, and verifies the CO
service contract with the causal-order checker.  A clean soak of hundreds
of trials is the repository's strongest evidence of correctness beyond the
targeted tests (this is how the PACK dependency-gate bug documented in
DESIGN.md was originally found).

Run from the command line::

    python -m repro.harness.soak --trials 100 --seed 7
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, List, Optional

from repro.harness.nemesis import (
    Crash,
    InvariantViolation,
    Run,
    Scenario,
    Traffic,
    agreed,
    ordered,
    pruned,
    readmitted,
    run_scenario,
)
from repro.harness.runner import ExperimentConfig, _build_workload, run_experiment
from repro.net.loss import BernoulliLoss
from repro.sim.trace import TraceLog

#: The pools each trial draws from.
CLUSTER_SIZES = (2, 3, 4, 5, 6, 8)
LOSS_RATES = (0.0, 0.0, 0.02, 0.05, 0.10, 0.15, 0.25)
WINDOWS = (1, 2, 4, 8, 16)
PROTOCOLS = ("co", "co", "co", "co-gbn", "co-preack", "to")
WORKLOADS = ("continuous", "continuous", "poisson", "bursty", "request-reply")


@dataclass
class TrialOutcome:
    """The verdict of one randomized trial."""

    index: int
    config: ExperimentConfig
    ok: bool
    quiesced: bool
    detail: str = ""


@dataclass
class SoakReport:
    """Aggregate outcome of a soak campaign."""

    trials: int
    failures: List[TrialOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    messages_verified: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "CLEAN" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"soak: {self.trials} trials, {self.messages_verified} message "
            f"deliveries verified, {self.wall_seconds:.1f}s wall — {status}"
        )


def random_config(rng: random.Random, trial_seed: int) -> ExperimentConfig:
    """Draw one random experiment environment."""
    protocol = rng.choice(PROTOCOLS)
    workload = rng.choice(WORKLOADS)
    return ExperimentConfig(
        n=rng.choice(CLUSTER_SIZES),
        protocol=protocol,
        workload=workload,
        messages_per_entity=rng.randint(3, 15),
        send_interval=rng.choice((2e-4, 5e-4, 1e-3)),
        payload_size=rng.choice((0, 64, 512)),
        loss_rate=rng.choice(LOSS_RATES),
        protect_control=rng.random() < 0.5,
        window=rng.choice(WINDOWS),
        buffer_capacity=rng.choice((64, 128, 256)),
        seed=trial_seed,
        max_time=120.0,
    )


def run_trial(
    index: int,
    config: ExperimentConfig,
    trace: Optional[TraceLog] = None,
) -> TrialOutcome:
    """Run one trial and judge it.

    The total-order protocol holds back an unacknowledgeable tail on finite
    workloads by design, so for it (and any non-quiescing run) the check is
    relaxed to "whatever was delivered is correctly ordered".
    """
    try:
        result = run_experiment(config, trace=trace)
    except Exception as exc:  # soak must report, not die
        return TrialOutcome(index, config, False, False, f"exception: {exc!r}")
    report = result.report
    expect_complete = result.quiesced and config.protocol != "to"
    if not report.ok:
        return TrialOutcome(
            index, config, False, result.quiesced, report.summary(),
        )
    if expect_complete:
        expected = report.messages_sent * config.n
        if sum(report.deliveries) != expected:
            return TrialOutcome(
                index, config, False, result.quiesced,
                f"delivered {sum(report.deliveries)} of {expected}",
            )
    if not result.quiesced and config.protocol != "to":
        return TrialOutcome(
            index, config, False, False, "did not quiesce",
        )
    return TrialOutcome(index, config, True, result.quiesced)


def _survivors_agree(run: Run) -> None:
    counts = {len(run.cluster.delivered(i)) for i in run.survivors}
    if len(counts) != 1:
        raise InvariantViolation(
            f"survivors disagree on delivery count: {sorted(counts)}"
        )


def _membership_trial(
    index: int,
    trial_seed: int,
    trace: Optional[TraceLog],
    n: int,
    loss_rate: float,
    messages: int,
    victim: int,
    **spec: Any,
) -> TrialOutcome:
    """Run one membership trial as a nemesis scenario: ``messages``
    broadcasts round robin, the spec's crash step, its oracles."""
    outcome = run_scenario(
        Scenario(
            n=n, victim=victim, max_time=120.0,
            faults=lambda: (
                {"loss": BernoulliLoss(loss_rate, protect_control=True)}
                if loss_rate else {}
            ),
            traffic=(Traffic("pre", messages),),
            **spec,
        ),
        trial_seed, trace,
    )
    config = ExperimentConfig(n=n, seed=trial_seed)  # record-keeping only
    return TrialOutcome(index, config, outcome.ok, outcome.ok, outcome.detail)


def run_crash_trial(
    index: int,
    rng: random.Random,
    trial_seed: int,
    trace: Optional[TraceLog] = None,
) -> TrialOutcome:
    """A membership trial: random traffic, one random crash, survivors judged.

    Built on the nemesis runner (``run_experiment`` has no fault
    injection).  Survivors must quiesce, agree on the acknowledged set and
    show no ordering violations; completeness is judged per the membership
    semantics (everything any survivor accepted reaches every survivor, so
    all survivor delivery counts must be equal).
    """
    n = rng.choice((3, 4, 5))
    loss_rate = rng.choice((0.0, 0.05, 0.10))
    messages = rng.randint(3, 8)
    victim = rng.randrange(n)
    survivors = tuple(i for i in range(n) if i != victim)
    return _membership_trial(
        index, trial_seed, trace, n, loss_rate, messages, victim,
        name="crash-injection", doc=run_crash_trial.__doc__,
        config=dict(suspect_timeout=0.02),
        crash=Crash(
            at=rng.choice((0.002, 0.01, 0.03)),
            post=Traffic("post", messages, sources=survivors),
        ),
        oracles=(ordered, _survivors_agree),
    )


def run_evict_trial(
    index: int,
    rng: random.Random,
    trial_seed: int,
    trace: Optional[TraceLog] = None,
) -> TrialOutcome:
    """A recovery trial: crash → agreed eviction → (sometimes) rejoin.

    Goes beyond :func:`run_crash_trial` by configuring ``evict_timeout`` so
    the survivors run the view-change machinery: they must install the
    shrunken view everywhere, reach the acknowledged level for traffic
    submitted after the eviction (their sending logs prune back to empty),
    and — on the rejoin variant — re-admit the restarted victim through the
    state-transfer handshake without an ordering violation.
    """
    n = rng.choice((3, 4, 5))
    loss_rate = rng.choice((0.0, 0.05))
    messages = rng.randint(3, 8)
    victim = rng.randrange(n)
    rejoin = rng.random() < 0.5
    survivors = tuple(i for i in range(n) if i != victim)
    return _membership_trial(
        index, trial_seed, trace, n, loss_rate, messages, victim,
        name="evict-rejoin", doc=run_evict_trial.__doc__,
        config=dict(suspect_timeout=0.02, evict_timeout=0.05),
        # 0.7 lets suspicion ripen and the eviction install.
        crash=Crash(
            at=rng.choice((0.002, 0.01)), evict_wait=0.7,
            post=Traffic("post", messages, sources=survivors), restart=rejoin,
        ),
        oracles=(
            partial(pruned, on="survivors"),
            *((readmitted,) if rejoin else ()),
            partial(agreed, on="survivors"),
            ordered,
        ),
    )


def run_soak(
    trials: int = 50,
    seed: int = 0,
    verbose: bool = False,
    record_dir: Optional[str] = None,
) -> SoakReport:
    """Run a full campaign and return the aggregate report.

    Roughly one in six trials injects a crash-stop fault and judges the
    survivors under the membership extension's semantics; a further one in
    six runs the full eviction (and, half the time, rejoin) machinery.

    With ``record_dir`` every trial records into a :class:`TraceLog` of its
    own and a failing trial dumps that complete log as
    ``soak-trial-<index>.jsonl`` there for ``python -m repro inspect``.
    """
    rng = random.Random(seed)
    report = SoakReport(trials=trials)
    start = time.perf_counter()

    def dump_on_failure(outcome: TrialOutcome, recorder: Optional[TraceLog]) -> None:
        if outcome.ok or recorder is None:
            return
        os.makedirs(record_dir, exist_ok=True)
        path = os.path.join(record_dir, f"soak-trial-{outcome.index}.jsonl")
        recorder.dump_jsonl(path)
        outcome.detail += f" [recording: {path}]"

    for index in range(trials):
        recorder = TraceLog() if record_dir is not None else None
        draw = rng.random()
        if draw < 2 / 6:
            kind, runner = (
                ("crash-injection", run_crash_trial) if draw < 1 / 6
                else ("evict-rejoin", run_evict_trial)
            )
            outcome = runner(index, rng, trial_seed=seed * 100_003 + index,
                             trace=recorder)
            dump_on_failure(outcome, recorder)
            if verbose:
                flag = "ok " if outcome.ok else "FAIL"
                print(f"[{flag}] trial {index:3d}: {kind} {outcome.detail}")
            if not outcome.ok:
                report.failures.append(outcome)
            else:
                report.messages_verified += 1
            continue
        config = random_config(rng, trial_seed=seed * 100_003 + index)
        outcome = run_trial(index, config, trace=recorder)
        dump_on_failure(outcome, recorder)
        if verbose:
            flag = "ok " if outcome.ok else "FAIL"
            print(f"[{flag}] trial {index:3d}: n={config.n} "
                  f"{config.protocol}/{config.workload} "
                  f"loss={config.loss_rate:.0%} W={config.window} "
                  f"{outcome.detail}")
        if not outcome.ok:
            report.failures.append(outcome)
        else:
            # Exact where the workload is deterministic (size-threaded via
            # total_messages); randomized workloads fall back to the
            # per-entity nominal count.
            exact = _build_workload(config).total_messages(config.n)
            report.messages_verified += (
                exact if exact is not None
                else config.n * config.messages_per_entity
            )
    report.wall_seconds = time.perf_counter() - start
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--record-dir", default=os.environ.get("REPRO_FLIGHT_DIR"),
                        help="dump a JSONL flight recording here when a "
                             "trial fails (default: $REPRO_FLIGHT_DIR)")
    args = parser.parse_args(argv)
    report = run_soak(trials=args.trials, seed=args.seed, verbose=args.verbose,
                      record_dir=args.record_dir)
    print(report.summary())
    for failure in report.failures:
        print(f"  trial {failure.index}: {failure.detail}")
        print(f"    config: {failure.config}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
