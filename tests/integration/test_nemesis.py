"""Integration tests for the deterministic nemesis harness.

Every declarative fault campaign must come out clean, a campaign must
report — not raise — whatever goes wrong inside one scenario, and a failing
scenario's flight recordings must hold its trace.  Bit-for-bit replay from
the seed is pinned per scenario by ``test_nemesis_golden.py``.
"""

import json

import pytest

from repro.harness import nemesis
from repro.harness.nemesis import (
    SCENARIOS,
    check_prefix_consistency,
    check_view_agreement,
    run_nemesis,
    run_scenario,
)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_is_clean(name):
    outcome = run_scenario(SCENARIOS[name], seed=0)
    assert outcome.ok, outcome.summary()


@pytest.mark.parametrize("seed", (1, 42))
def test_crash_evict_rejoin_extra_seeds(seed):
    outcome = run_scenario(SCENARIOS["crash-evict-rejoin"], seed)
    assert outcome.ok, outcome.summary()


def test_run_nemesis_campaign_and_cli():
    outcomes = run_nemesis(scenarios=["duplication", "corruption"], seed=3)
    assert all(o.ok for o in outcomes)
    with pytest.raises(ValueError):
        run_nemesis(scenarios=["no-such-scenario"])

    from repro.harness.nemesis import main
    assert main(["--scenario", "partition-heal", "--seed", "5"]) == 0


def test_unknown_scenario_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        nemesis.main(["--scenario", "no-such-scenario"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'no-such-scenario'" in capsys.readouterr().err


def _recorded_lines(outcome):
    paths = outcome.observations["flight_recordings"]
    assert paths and all(p in outcome.detail for p in paths)
    lines = []
    for path in paths:
        with open(path) as f:
            lines.append(f.read().splitlines())
    assert all(json.loads(file_lines[0])["meta"] for file_lines in lines)
    return lines


def test_stalled_scenario_is_reported_and_the_campaign_goes_on(monkeypatch, tmp_path):
    # A scenario that never quiesces is a failed outcome with its recording
    # dumped, and the next scenario still runs.
    def stall(self, max_time=60.0, settle_chunks=2):
        raise TimeoutError("cluster did not quiesce (injected)")

    monkeypatch.setattr(nemesis.Cluster, "run_until_quiescent", stall)
    outcomes = run_nemesis(["duplication", "corruption"], record_dir=str(tmp_path))
    assert [o.scenario for o in outcomes] == ["duplication", "corruption"]
    for outcome in outcomes:
        assert not outcome.ok
        assert "did not quiesce" in outcome.detail
        assert all(len(file_lines) > 1 for file_lines in _recorded_lines(outcome))


def test_failing_hierarchy_scenario_dumps_its_group_traces(monkeypatch, tmp_path):
    def gap(cluster):
        raise nemesis.InvariantViolation("injected inter-group gap")

    monkeypatch.setattr(nemesis, "check_intergroup_gaps", gap)
    [outcome] = run_nemesis(["bridge-failover"], record_dir=str(tmp_path))
    assert not outcome.ok and "injected" in outcome.detail
    lines = _recorded_lines(outcome)
    assert len(lines) >= 3  # one per group, plus the backbone's if it recorded
    assert all(len(file_lines) > 1 for file_lines in lines)


def test_invariant_helpers_reject_bad_histories():
    # The oracles themselves must bite: feed them hand-made violations.
    from repro.harness.nemesis import InvariantViolation

    class FakeEngine:
        def __init__(self, index, view_log):
            self.index = index
            self.view_log = view_log
            self.view, self.members = view_log[-1][0], set(view_log[-1][1])

    split_brain = [
        FakeEngine(0, [(1, (0, 1))]),
        FakeEngine(1, [(1, (1, 2))]),
    ]
    with pytest.raises(InvariantViolation):
        check_view_agreement(split_brain, live=[0, 1])

    class FakeMessage:
        def __init__(self, src, seq):
            self.src, self.seq = src, seq

    class FakeCluster:
        n = 2

        def delivered(self, i):
            return [FakeMessage(0, s) for s in ([1, 2, 3] if i == 0 else [1, 3])]

    with pytest.raises(InvariantViolation):
        check_prefix_consistency(FakeCluster(), live=[0, 1])
