"""Ordering oracles: independent verification of every run.

The CO protocol decides causality from sequence numbers (Theorem 4.1).  To
*verify* it we need machinery that does not share that code path:

* :mod:`repro.ordering.checker` — one pass over a run's trace that stamps
  each send with the sender's vector clock and, at every delivery, checks
  the member's per-source delivered frontier against the stamp, together
  with exactly-once, local order and completeness (the paper's §2.2 log
  properties); :func:`~repro.ordering.checker.verify_run` is the one-call
  judge the integration tests and the harness use;
* :mod:`repro.ordering.vector_clock` — classic vector clocks, the substrate
  of the ISIS CBCAST baseline;
* :mod:`repro.ordering.properties` — per-entity delivery logs and the
  total-order agreement check for the TO extension.
"""

from repro.ordering.checker import CausalPass, RunReport, verify_run
from repro.ordering.vector_clock import VectorClock

__all__ = [
    "CausalPass",
    "RunReport",
    "VectorClock",
    "verify_run",
]
