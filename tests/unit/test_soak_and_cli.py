"""Unit tests for the soak harness and the CLI."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.harness.runner import ExperimentConfig
from repro.harness.soak import random_config, run_soak, run_trial


class TestSoak:
    def test_random_config_is_deterministic(self):
        a = random_config(random.Random(5), trial_seed=1)
        b = random_config(random.Random(5), trial_seed=1)
        assert a == b

    def test_random_config_is_valid(self):
        rng = random.Random(2)
        for k in range(20):
            config = random_config(rng, trial_seed=k)
            assert config.n >= 2
            assert 0.0 <= config.loss_rate <= 0.25

    def test_small_campaign_clean(self):
        report = run_soak(trials=6, seed=11)
        assert report.ok, [f.detail for f in report.failures]
        assert report.trials == 6
        assert report.messages_verified > 0
        assert "CLEAN" in report.summary()

    def test_trial_outcome_fields(self):
        config = ExperimentConfig(n=3, messages_per_entity=4, seed=1)
        outcome = run_trial(0, config)
        assert outcome.ok
        assert outcome.quiesced
        assert outcome.config is config

    def test_crash_injection_trials_clean(self):
        # Seeded so the 1-in-6 crash-injection path is taken at least once.
        import random as _random

        from repro.harness.soak import run_crash_trial

        outcome = run_crash_trial(0, _random.Random(3), trial_seed=77)
        assert outcome.ok, outcome.detail
        assert outcome.quiesced

    def test_failing_trial_reported_not_raised(self):
        # An environment that cannot quiesce: strict paper mode is not in
        # the soak pools, so simulate a failure via a tiny max_time.
        config = ExperimentConfig(
            n=4, messages_per_entity=10, loss_rate=0.1, seed=1, max_time=1e-4,
        )
        outcome = run_trial(0, config)
        assert not outcome.ok
        assert outcome.detail


class TestCli:
    def test_demo_runs_clean(self, capsys):
        code = cli_main(["demo", "--n", "3", "--messages", "2", "--loss", "0",
                         "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verification: [OK]" in out

    def test_version(self, capsys):
        assert cli_main(["version"]) == 0
        import repro
        assert repro.__version__ in capsys.readouterr().out

    def test_soak_command(self, capsys):
        code = cli_main(["soak", "--trials", "2", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "soak: 2 trials" in out

    def test_figures_fast_only(self, capsys):
        code = cli_main(["figures", "--fast", "--only", "c3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "c3-buffer" in out

    def test_no_command_prints_help(self, capsys):
        assert cli_main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestModuleEntryPoints:
    @pytest.mark.parametrize("argv", [
        ["repro.harness.soak", "--trials", "2", "--seed", "1"],
        ["repro.harness.nemesis", "--rounds", "1"],
    ])
    def test_python_dash_m_runs_without_runtime_warning(self, argv):
        """CI's ``faults`` job runs these as ``python -m``: the package must
        not have imported the module by the time runpy executes it."""
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert "CLEAN" in done.stdout
