"""Experiment harness.

* :mod:`repro.harness.runner` — one experiment = one
  :class:`ExperimentConfig` in, one :class:`ExperimentResult` out (metrics +
  verification);
* :mod:`repro.harness.sweeps` — parameter sweeps over a base config;
* :mod:`repro.harness.figures` — one generator per paper artifact
  (Figure 8, Table 1, claims C1–C5), each emitting the text table recorded
  in EXPERIMENTS.md.  ``python -m repro.harness.figures`` regenerates them
  all.
"""

from repro.harness.comparison import ComparisonReport, compare_protocols
from repro.harness.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.harness.sweeps import sweep


def __getattr__(name: str):
    # ``soak`` is also a ``python -m`` entry point: importing it here, with
    # the package, makes runpy warn that it is in sys.modules before it runs.
    if name in ("SoakReport", "run_soak"):
        from repro.harness import soak

        return getattr(soak, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ComparisonReport",
    "ExperimentConfig",
    "ExperimentResult",
    "SoakReport",
    "compare_protocols",
    "run_experiment",
    "run_soak",
    "sweep",
]
