"""End-to-end benchmark of the CO broadcast service.

Driver contract (one workload per call, last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload udp_steady --seed 7 --seconds 12 --trace 0

Everything at once, every metric printed by name with its unit::

    python3 benchmarks/e2e/run.py --seed 7            # all workloads + traced runs
    python3 benchmarks/e2e/run.py --seed 7 --aa       # two full sets, compared
    python3 benchmarks/e2e/run.py --smoke             # 1 short repeat each, no trace

Every repeat runs in a fresh child process, one at a time.  Metric names,
units, bounds and the workload list are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from workloads import SPECS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Repeats (child processes) one ``--seconds`` budget is split over.
REPEATS = 5
SPIN_ITERS = 100_000
SPIN_TOLERANCE = 0.15
CHILD_TIMEOUT_S = 150.0
#: On the simulator these come off the simulated clock and the frame
#: counter: two runs of one seed must agree to the last digit.
SIMULATED_EXACT = ("deliver_p50_ms", "deliver_p95_ms", "wire_frames_per_msg")


class BenchmarkFailure(Exception):
    """A repeat broke the delivery contract or its child died."""


def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Noise control
# ----------------------------------------------------------------------

def spin_ns_per_iter() -> float:
    """A fixed pure-Python loop: what the machine gives this process right
    now.  Median of three short bursts so one preemption does not decide."""
    bursts = []
    for _ in range(3):
        x = 0
        start = time.perf_counter_ns()
        for i in range(SPIN_ITERS):
            x = (x * 31 + i) & 0xFFFF
        bursts.append((time.perf_counter_ns() - start) / SPIN_ITERS)
    return statistics.median(bursts)


# ----------------------------------------------------------------------
# Running repeats
# ----------------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One repeat in a fresh process; raises on any contract violation."""
    spin = spin_ns_per_iter()
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--spawned-at", repr(time.time()),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchmarkFailure(
            f"{workload} seed {seed}: child exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["spin_ns_per_iter"] = spin
    if result["violation_count"] or result["undelivered"]:
        raise BenchmarkFailure(
            f"{workload} seed {seed}: {result['violation_count']} order violations, "
            f"{result['undelivered']} undelivered pairs; "
            + "; ".join(result["violations"]))
    return result


def run_set(names: Sequence[str], seed: int, seconds: float, repeats: int,
            trace: bool) -> Dict[str, Dict[str, Any]]:
    """Repeats of all ``names`` interleaved round-robin (A B C D A B C D …)
    so machine drift hits every workload alike; then the traced repeats.

    A repeat whose preceding spin is more than 15 % off the session median
    ran on a disturbed machine: it is discarded and re-run once.
    """
    per_repeat = seconds / repeats
    runs: Dict[str, Dict[str, Any]] = {
        name: {"repeats": [], "traced": None, "discarded": 0} for name in names}
    for r in range(repeats):
        for name in names:
            runs[name]["repeats"].append(
                run_child(name, seed * 1000 + r, per_repeat, trace=False))

    reference = statistics.median(
        rep["spin_ns_per_iter"] for run in runs.values() for rep in run["repeats"])
    reruns_left = len(names)
    for name in names:
        for r, rep in enumerate(runs[name]["repeats"]):
            off = abs(rep["spin_ns_per_iter"] - reference) / reference
            if off > SPIN_TOLERANCE and reruns_left:
                reruns_left -= 1
                runs[name]["discarded"] += 1
                runs[name]["repeats"][r] = run_child(
                    name, seed * 1000 + r, per_repeat, trace=False)
    if trace:
        for name in names:
            runs[name]["traced"] = run_child(name, seed * 1000, per_repeat, trace=True)
    return runs


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _cpu_us_per_delivery(rep: Dict[str, Any]) -> float:
    return rep["cpu_s"] * 1e6 / rep["pairs_delivered"]


def end_to_end(repeats: List[Dict[str, Any]]) -> Dict[str, float]:
    """Timings are medians over repeats; counts are pooled."""
    def med(f: Any) -> float:
        return statistics.median(f(rep) for rep in repeats)

    return {
        "deliver_p50_ms": med(lambda r: r["p50_ms"]),
        "deliver_p95_ms": med(lambda r: r["p95_ms"]),
        "goodput_msgs_per_s": med(lambda r: r["msgs_everywhere"] / r["wall_s"]),
        "cpu_us_per_delivery": med(_cpu_us_per_delivery),
        "wire_frames_per_msg": (
            sum(r["frames"] for r in repeats) / sum(r["msgs"] for r in repeats)),
        "peak_rss_mb": med(lambda r: r["rss_mb"]),
        "setup_s": med(lambda r: r["setup_s"]),
    }


def per_layer(run: Dict[str, Any]) -> Dict[str, float]:
    """The traced repeat's layer metrics plus the ledger's own rows."""
    traced = run["traced"]
    out = dict(traced["layers"])
    spins = [traced["spin_ns_per_iter"]]
    if run["repeats"]:
        untraced = statistics.median(_cpu_us_per_delivery(r) for r in run["repeats"])
        out["ledger.trace_overhead_ratio"] = _cpu_us_per_delivery(traced) / untraced
        spins += [r["spin_ns_per_iter"] for r in run["repeats"]]
    out["machine.spin_ns_per_iter"] = statistics.median(spins)
    out["machine.repeats_discarded"] = run["discarded"]
    return out


def attempted_pairs(run: Dict[str, Any]) -> int:
    reps = run["repeats"] + ([run["traced"]] if run["traced"] else [])
    return sum(r["pairs_attempted"] for r in reps)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def _units(contract: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in contract["end_to_end"] + contract["per_layer"]}


def print_table(results: Dict[str, Dict[str, float]], units: Dict[str, str]) -> None:
    for workload, metrics in results.items():
        for name, value in metrics.items():
            print(f"{workload:<11s} {name:<38s} {value:>16.6g} {units[name]}")


def full_set(contract: Dict[str, Any], seed: int, seconds: float, repeats: int,
             trace: bool, reverse: bool = False) -> Dict[str, Dict[str, float]]:
    names = [w["name"] for w in contract["workloads"]]
    runs = run_set(names[::-1] if reverse else names, seed, seconds, repeats, trace)
    results = {}
    for name in names:
        results[name] = end_to_end(runs[name]["repeats"])
        if trace:
            results[name].update(per_layer(runs[name]))
            if results[name]["ledger.coverage"] < 0.90:
                print(f"warning: {name}: ledger covers only "
                      f"{results[name]['ledger.coverage']:.0%} of CPU time",
                      file=sys.stderr)
    return results


def aa(contract: Dict[str, Any], seed: int, seconds: float) -> int:
    """Two full sets of the same code, launched in opposite order: each
    gated metric's medians must agree within its own bound."""
    first = full_set(contract, seed, seconds, REPEATS, trace=False)
    second = full_set(contract, seed, seconds, REPEATS, trace=False, reverse=True)
    outside = 0
    print(f"{'workload':<11s} {'metric':<22s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for workload in first:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a, b = first[workload][name], second[workload][name]
            if SPECS[workload].runtime == "sim" and name in SIMULATED_EXACT:
                inside, verdict = a == b, "exact" if a == b else "NOT EXACT"
            else:
                inside = abs(b - a) / a <= metric["bound"]
                verdict = "inside" if inside else "OUTSIDE"
            outside += not inside
            print(f"{workload:<11s} {name:<22s} {a:>12.5g} {b:>12.5g} "
                  f"{b / a:>8.4f} {metric['bound']:>6.2f}  {verdict}")
    return 1 if outside else 0


def driver(contract: Dict[str, Any], workload: str, seed: int, seconds: float,
           trace: bool) -> int:
    """One workload, one JSON result line: the benchmark contract."""
    if trace:
        # One untraced repeat is the base of ledger.trace_overhead_ratio.
        run = run_set([workload], seed, seconds / REPEATS, 1, trace=True)[workload]
        metrics, wanted = per_layer(run), contract["per_layer"]
    else:
        run = run_set([workload], seed, seconds, REPEATS, trace=False)[workload]
        metrics, wanted = end_to_end(run["repeats"]), contract["end_to_end"]
    print(json.dumps({
        "correct": True,
        "attempted": attempted_pairs(run),
        "failed": 0,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="run two full sets and compare them")
    parser.add_argument("--smoke", action="store_true",
                        help="one repeat of at most 1 s per workload, no trace")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("the program under test (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    try:
        if args.workload:
            if args.workload not in [w["name"] for w in contract["workloads"]]:
                parser.error(f"unknown workload {args.workload!r}")
            return driver(contract, args.workload, args.seed, seconds, bool(args.trace))
        if args.aa:
            return aa(contract, args.seed, seconds)
        if args.smoke:
            results = full_set(contract, args.seed, 1.0, repeats=1, trace=False)
        else:
            results = full_set(contract, args.seed, seconds, REPEATS, trace=True)
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            (out / f"result-{args.seed}.json").write_text(json.dumps(results, indent=1))
        print_table(results, _units(contract))
        return 0
    except BenchmarkFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
