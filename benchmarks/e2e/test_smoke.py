"""Smoke test of the end-to-end benchmark harness.

Not part of tier-1 (``testpaths`` is untouched); run with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def driver(workload: str, seed: int) -> dict:
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
              "--trace", "0")
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_contract_names_are_well_formed_and_unique():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in names


def test_smoke_prints_every_workload_and_metric_row():
    rows = {
        (line.split()[0], line.split()[1]): float(line.split()[2])
        for line in run("--smoke").splitlines()
    }
    for workload in CONTRACT["workloads"]:
        for metric in CONTRACT["end_to_end"]:
            value = rows[(workload["name"], metric["name"])]
            assert value > 0, (workload["name"], metric["name"], value)


def test_sim_wide_repeats_exactly_for_a_seed_and_moves_with_it():
    exact = ("deliver_p50_ms", "deliver_p95_ms", "wire_frames_per_msg")
    first, again, other = (
        driver("sim_wide", 3), driver("sim_wide", 3), driver("sim_wide", 4))
    assert [first[k] for k in exact] == [again[k] for k in exact]
    assert [first[k] for k in exact] != [other[k] for k in exact]
