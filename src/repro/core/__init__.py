"""The CO (causally ordering broadcast) protocol — the paper's contribution.

Layout mirrors §4 of the paper:

* :mod:`repro.core.pdu` — the PDU formats of Figs. 4 and 5 (plus the
  heartbeat control PDU of the quiescence extension);
* :mod:`repro.core.logs` — sending log ``SL``, per-source receipt sublogs
  ``RRL`` and pre-acknowledged log ``PRL`` (the acknowledged log ``ARL``
  is kept as a per-source frontier);
* :mod:`repro.core.causality` — Theorem 4.1's sequence-number causality
  predicates and the causality-preserved insertion (CPI) operation;
* :mod:`repro.core.state` — the knowledge matrices ``REQ``, ``AL``, ``PAL``,
  ``BUF`` of §4.1;
* :mod:`repro.core.flow` — the flow condition of §4.2;
* :mod:`repro.core.retransmit` — failure conditions (1)/(2) bookkeeping and
  RET retry timers (§4.3);
* :mod:`repro.core.entity` — the sans-I/O protocol engine tying the actions
  together (transmission, acceptance, PACK, ACK);
* :mod:`repro.core.cluster` — hosts that bind engines to the simulated
  network, receive buffers and a CPU model;
* :mod:`repro.core.service` — the high-level :class:`CausalBroadcastService`
  façade used by the examples.
"""

from repro.core.causality import (
    causally_coincident,
    causally_precedes,
    cpi_insert,
    cpi_position,
)
from repro.core.cluster import Cluster, CpuModel, EntityHost, build_cluster
from repro.core.config import (
    ConfirmationMode,
    DeliveryLevel,
    ProtocolConfig,
    RetransmissionScheme,
)
from repro.core.entity import COEntity, DeliveredMessage
from repro.core.errors import ConfigurationError, ProtocolError
from repro.core.logs import Log, ReceiptSublogs, SendingLog
from repro.core.pdu import DataPdu, HeartbeatPdu, RetPdu
from repro.core.service import CausalBroadcastService
from repro.core.state import KnowledgeState

__all__ = [
    "COEntity",
    "CausalBroadcastService",
    "Cluster",
    "ConfigurationError",
    "ConfirmationMode",
    "CpuModel",
    "DataPdu",
    "DeliveredMessage",
    "DeliveryLevel",
    "EntityHost",
    "HeartbeatPdu",
    "KnowledgeState",
    "Log",
    "ProtocolConfig",
    "ProtocolError",
    "ReceiptSublogs",
    "RetPdu",
    "RetransmissionScheme",
    "SendingLog",
    "build_cluster",
    "causally_coincident",
    "causally_precedes",
    "cpi_insert",
    "cpi_position",
]
