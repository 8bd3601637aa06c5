"""repro — reproduction of the Causally Ordering Broadcast (CO) protocol.

Nakamura & Takizawa, *Causally Ordering Broadcast Protocol*, ICDCS 1994.

The package provides:

* :class:`repro.CausalBroadcastService` — the public API: reliable, causally
  ordered, atomic broadcast for a fixed cluster of entities over a simulated
  high-speed multi-channel network with buffer-overrun loss;
* :mod:`repro.core` — the CO protocol itself (PDUs, logs, the Theorem 4.1
  causality algebra, the two-phase pre-ack/ack engine);
* :mod:`repro.sim` / :mod:`repro.net` — the discrete-event and network
  substrates;
* :mod:`repro.ordering` — the one-pass causal-order checker of the
  paper's log properties, used to *verify* every run;
* :mod:`repro.baselines` — ISIS CBCAST, the PO (FIFO) protocol, unordered
  broadcast and the go-back-n ablation;
* :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.harness` — the
  evaluation machinery that regenerates the paper's figures and claims.

Quick start::

    from repro import CausalBroadcastService

    svc = CausalBroadcastService(n=3, seed=1)
    svc.broadcast(0, "g")
    svc.run_until_quiescent()
    print(svc.delivered_payloads(2))     # ['g'] at every member
"""

from repro.core.config import (
    ConfirmationMode,
    DeliveryLevel,
    ProtocolConfig,
    RetransmissionScheme,
)
from repro.core.entity import DeliveredMessage
from repro.core.service import CausalBroadcastService
from repro.net.topology import Topology

__version__ = "1.0.0"

__all__ = [
    "CausalBroadcastService",
    "ConfirmationMode",
    "DeliveredMessage",
    "DeliveryLevel",
    "ProtocolConfig",
    "RetransmissionScheme",
    "Topology",
    "__version__",
]
