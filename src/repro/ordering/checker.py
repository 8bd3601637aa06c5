"""One-call verification of a whole run, in one pass over its trace.

:func:`verify_run` checks the full CO service contract of §2.3:

1. every data PDU sent is delivered at **every** entity exactly once
   (information preservation + atomicity);
2. each delivery log is local-order-preserved;
3. each delivery log is causality-preserved (§2.2): whenever ``p ≺ q``,
   ``p`` is delivered before ``q``.

Causality is rebuilt from the trace with one vector clock per entity, not
from the protocol's ACK vectors or Theorem 4.1's arithmetic:

* a message is *sent* at its first ``broadcast`` record or at its sender's
  self-``accept``, whichever comes first — a retransmission is the same
  send, and a PDU in an open batch is stamped at self-acceptance, before
  its frame leaves;
* the sender's clock takes the message's seq as its own entry, and the
  message is stamped with the whole clock;
* an ``accept`` by another entity merges the message's stamp into the
  acceptor's clock (deliveries add no knowledge).

So ``(s, x) ≺ q`` iff ``x <= stamp(q)[s]``, and ``x < seq`` on ``q``'s own
source.  At each ``deliver`` the entity's delivered frontier per source —
contiguous, skipping known nulls, which hold sequence numbers but are never
delivered — must have reached the stamp: the safety predicate of Tong et
al. and the WaitingCausalBroadcast delivery rule, asserted instead of
enforced.  That is O(n) work per record.  A frontier that falls short
names a range of predecessors not yet delivered; each of them delivered
later is reported as a pair ``(q, p)``.

Integration tests call ``verify_run(...).assert_ok()`` after every scenario;
the harness records the report alongside the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.errors import DeliveryOrderError, IncompleteRecordingError
from repro.sim.trace import TraceLog

MessageId = Tuple[int, int]

#: Broadcast-record kinds that carry application-visible messages.  Control
#: PDUs (RetPdu, HeartbeatPdu, PoRetPdu, ...) are knowledge, not messages.
DATA_KINDS = frozenset({"DataPdu", "CbcastMessage", "PoPdu", "RawMessage", "TotalOrderPdu"})


def _broadcast_seqs(rec) -> "tuple":
    """Sequence numbers one broadcast record sends, batch frames included.

    A ``BatchPdu`` broadcast carries several data PDUs at once; the network
    records their sequence numbers as ``seqs``, and each is its own sending
    event.  An empty batch (pure coalesced confirmation) sends nothing.
    """
    kind = rec.get("kind")
    if kind == "BatchPdu":
        return tuple(rec.get("seqs") or ())
    return (rec.get("seq"),) if kind in DATA_KINDS else ()


class CausalPass:
    """One pass over a run's trace: send stamps, delivery logs, and the
    frontier check at every delivery.

    ``stamps`` maps every message sent, nulls included, to its vector
    timestamp, in send order.
    """

    def __init__(self, trace: TraceLog, n: int):
        self.stamps: Dict[MessageId, Tuple[int, ...]] = {}
        self.nulls: Set[MessageId] = set()
        self.logs: List[List[MessageId]] = [[] for _ in range(n)]
        self.delivered: List[Set[MessageId]] = [set() for _ in range(n)]
        self.duplicates: List[List[MessageId]] = [[] for _ in range(n)]
        self.local_order: List[List[Tuple[MessageId, MessageId]]] = [[] for _ in range(n)]
        # (entity, position of q, q, source, lo, hi): q was delivered before
        # seqs lo..hi of that source, which precede it unless null.
        self._short: List[tuple] = []
        self._clocks = [[0] * n for _ in range(n)]
        self._frontier = [[0] * n for _ in range(n)]
        self._top = [[0] * n for _ in range(n)]
        for rec in trace:
            category = rec.category
            if category == "deliver":
                self._deliver(rec.entity, (rec.get("src"), rec.get("seq")))
            elif category == "accept":
                self._accept(rec.entity, (rec.get("src"), rec.get("seq")), rec.get("null"))
            elif category == "broadcast":
                for seq in _broadcast_seqs(rec):
                    self._send(rec.entity, seq)

    def _send(self, entity: int, seq: int) -> None:
        if (entity, seq) not in self.stamps:
            clock = self._clocks[entity]
            clock[entity] = seq
            self.stamps[(entity, seq)] = tuple(clock)

    def _accept(self, entity: int, message: MessageId, null) -> None:
        if null:
            self.nulls.add(message)
        if message[0] == entity:
            self._send(entity, message[1])
        elif message in self.stamps:
            self._clocks[entity] = list(map(max, self._clocks[entity], self.stamps[message]))

    def _deliver(self, entity: int, q: MessageId) -> None:
        src, seq = q
        seen = self.delivered[entity]
        if q in seen:
            self.duplicates[entity].append(q)
        top = self._top[entity]
        if seq < top[src]:
            self.local_order[entity].append(((src, top[src]), q))
        top[src] = max(top[src], seq)
        stamp = self.stamps.get(q)
        if stamp is not None:
            frontier = self._frontier[entity]
            for s, need in enumerate(stamp):
                if s == src:
                    need = seq - 1
                f = frontier[s]
                while f < need and ((s, f + 1) in seen or (s, f + 1) in self.nulls):
                    f += 1
                frontier[s] = f
                if f < need:
                    self._short.append((entity, len(self.logs[entity]), q, s, f + 1, need))
        seen.add(q)
        self.logs[entity].append(q)

    def sent(self) -> List[MessageId]:
        """Every non-null message sent, in send order."""
        return [m for m in self.stamps if m not in self.nulls]

    def causality(self) -> List[List[Tuple[MessageId, MessageId]]]:
        """Per entity, the pairs ``(q, p)`` with ``p ≺ q`` but ``q``
        delivered first, ordered by (position of q, position of p)."""
        found: List[list] = [[] for _ in self.logs]
        positions: Dict[int, Dict[MessageId, List[int]]] = {}
        for entity, at, q, s, lo, hi in self._short:
            if entity not in positions:
                positions[entity] = index = {}
                for k, m in enumerate(self.logs[entity]):
                    index.setdefault(m, []).append(k)
            found[entity] += [
                (at, k, q, (s, x)) for x in range(lo, hi + 1)
                for k in positions[entity].get((s, x), ()) if k > at
            ]
        return [[(q, p) for _, _, q, p in sorted(pairs)] for pairs in found]


def _by_entity(tables: List[list]) -> Dict[int, list]:
    return {i: items for i, items in enumerate(tables) if items}


@dataclass
class RunReport:
    """Verification outcome for one run."""

    n: int
    messages_sent: int
    deliveries: List[int]
    missing: Dict[int, List[MessageId]] = field(default_factory=dict)
    duplicates: Dict[int, List[MessageId]] = field(default_factory=dict)
    local_order: Dict[int, List[Tuple[MessageId, MessageId]]] = field(default_factory=dict)
    causality: Dict[int, List[Tuple[MessageId, MessageId]]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (self.missing or self.duplicates or self.local_order or self.causality)

    def assert_ok(self) -> None:
        """Raise :class:`DeliveryOrderError` describing the first defects."""
        if self.ok:
            return
        problems = []
        for name, table in (
            ("missing deliveries", self.missing),
            ("duplicate deliveries", self.duplicates),
            ("local-order violations", self.local_order),
            ("causality violations", self.causality),
        ):
            for entity, items in table.items():
                problems.append(f"{name} at E{entity}: {items[:5]}")
        raise DeliveryOrderError("; ".join(problems))

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATIONS"
        return (
            f"[{status}] n={self.n} sent={self.messages_sent} "
            f"delivered={self.deliveries} "
            f"missing={sum(len(v) for v in self.missing.values())} "
            f"dup={sum(len(v) for v in self.duplicates.values())} "
            f"fifo={sum(len(v) for v in self.local_order.values())} "
            f"causal={sum(len(v) for v in self.causality.values())}"
        )


def verify_run(
    trace: TraceLog,
    n: int,
    expect_all_delivered: bool = True,
) -> RunReport:
    """Check the CO service contract over a finished run's trace.

    ``expect_all_delivered=False`` relaxes check (1) to "whatever was
    delivered is ordered correctly" — used for baselines that are *expected*
    to lose or reorder (unordered broadcast, PO under loss), where the point
    is counting the violations rather than failing.

    A bounded recorder cannot be verified: it keeps no per-PDU records, so
    a check over it would pass with nothing sent and nothing delivered, and
    once it sheds records the missing head of the run would read as
    undelivered messages and broken causal chains.  That is an incomplete
    recording, not a protocol defect, and is reported as one.
    """
    if not trace.keeps_per_pdu:
        raise IncompleteRecordingError(
            f"incomplete recording: a {type(trace).__name__} keeps no "
            "per-PDU records, so the run cannot be verified — record into "
            "a TraceLog()"
        )
    check = CausalPass(trace, n)
    sent = check.sent()
    missing = [
        [m for m in sent if m not in seen] if expect_all_delivered else []
        for seen in check.delivered
    ]
    return RunReport(
        n=n,
        messages_sent=len(sent),
        deliveries=[len(log) for log in check.logs],
        missing=_by_entity(missing),
        duplicates=_by_entity(check.duplicates),
        local_order=_by_entity(check.local_order),
        causality=_by_entity(check.causality()),
    )


def count_causal_anomalies(trace: TraceLog, n: int) -> int:
    """Total causality violations across all entities (baseline metric)."""
    report = verify_run(trace, n, expect_all_delivered=False)
    return sum(len(v) for v in report.causality.values())

