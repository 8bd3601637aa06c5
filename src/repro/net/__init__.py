"""High-speed multi-channel (MC) network substrate.

The paper's MC service (Definition in §2.3) is a model of computers fully
connected by high-speed links: every receipt log is **local-order-preserved**
(per-source FIFO) but not necessarily **information-preserved** — receivers
lose PDUs through buffer overrun because the network outruns their processing
speed.  This package implements that model:

* :mod:`repro.net.topology` — per-pair propagation delays and the maximum
  delay ``R`` used by the latency analysis in §5;
* :mod:`repro.net.buffers` — finite receive buffers whose overflow *is* the
  paper's failure model;
* :mod:`repro.net.loss` — additional injectable loss models for controlled
  experiments (Bernoulli, burst, scripted single-PDU drops);
* :mod:`repro.net.network` — the broadcast :class:`MCNetwork` itself, which
  guarantees per-pair FIFO arrival order (links are error-free and ordered;
  only receivers lose PDUs).  With ``loss=None`` and unbounded receive
  buffers it is the loss-free network ISIS CBCAST assumes.
"""

from repro.net.buffers import BufferStats, ReceiveBuffer
from repro.net.dissemination import (
    DisseminationStrategy,
    GossipStrategy,
    RingStrategy,
    make_strategy,
)
from repro.net.loss import (
    BernoulliLoss,
    BurstLoss,
    CompositeLoss,
    LossModel,
    NoLoss,
    ScriptedLoss,
)
from repro.net.network import MCNetwork, NetworkStats
from repro.net.topology import Topology

__all__ = [
    "BernoulliLoss",
    "BufferStats",
    "BurstLoss",
    "CompositeLoss",
    "DisseminationStrategy",
    "GossipStrategy",
    "LossModel",
    "MCNetwork",
    "NetworkStats",
    "NoLoss",
    "ReceiveBuffer",
    "RingStrategy",
    "ScriptedLoss",
    "Topology",
    "make_strategy",
]
