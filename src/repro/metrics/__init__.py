"""Measurement machinery.

* :mod:`repro.metrics.collector` — reconstructs each PDU's lifecycle
  (submit → broadcast → accept → pre-ack → ack → deliver, per entity) from
  a run's trace, yielding the latency distributions behind Figure 8 and the
  §5 claims;
* :mod:`repro.metrics.stats` — summaries (mean / percentiles / linear fits
  for the O(n) shape checks), standard library only;
* :mod:`repro.metrics.reporting` — plain-text tables and series, the form
  in which every "figure" of this reproduction is emitted.
"""

from repro.metrics.collector import (
    LatencySample,
    MessageLifecycle,
    collect_lifecycles,
    latency_samples,
    pdu_census,
)
from repro.metrics.reporting import format_series, format_table
from repro.metrics.stats import Summary, linear_fit, summarize
from repro.metrics.timeseries import (
    Series,
    delivery_latency_series,
    event_rate_series,
    resident_series,
)

__all__ = [
    "LatencySample",
    "MessageLifecycle",
    "Series",
    "Summary",
    "delivery_latency_series",
    "event_rate_series",
    "resident_series",
    "collect_lifecycles",
    "format_series",
    "format_table",
    "latency_samples",
    "linear_fit",
    "pdu_census",
    "summarize",
]
