"""One repeat of one workload in a fresh process.

Started by ``run.py`` (never directly by the driver).  Prints the repeat's
raw measurements as one JSON line.  With ``--trace 1`` the layer boundaries
are wrapped before anything is built, per-layer metrics are added, and the
span dump is written under ``out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads

    tracer = probes = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        probes = layers.install(tracer, workloads.SPECS[args.workload].runtime)

    result = workloads.run(
        args.workload, args.seed, args.seconds, args.spawned_at, tracer, probes)

    spans = result.pop("spans")
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, probes, result)
        if result["violation_count"] == 0 and result["undelivered"] == 0:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            path = out / f"spans-{args.workload}-{args.seed}.json"
            path.write_text(json.dumps(spans))
            result["spans_file"] = str(path.relative_to(HERE))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
