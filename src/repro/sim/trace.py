"""Structured trace log.

Every interesting thing that happens in a run — a PDU broadcast, an
acceptance, a buffer overrun, a delivery — is appended to a
:class:`TraceLog` as a :class:`TraceRecord`.  The trace serves three
consumers:

* the **causal-order checker** in :mod:`repro.ordering`, which stamps
  every send with a vector clock and checks the paper's log properties
  (information-, local-order- and causality-preservation);
* the **metrics collectors** in :mod:`repro.metrics`, which compute PDU
  lifecycle latencies (acceptance → pre-ack → ack → delivery);
* humans debugging a scenario (``log.format()`` pretty-prints a run).

Records are plain data; categories are free-form strings but the protocol
engines stick to the vocabulary in :data:`CATEGORIES`.

Recording is on every runtime's hot path, so a record is a plain
``__slots__`` class (half a frozen dataclass's construction cost) and there
is one way in, :meth:`TraceLog.record`, which also keeps ``recorded_total``.
Nothing is recorded that no consumer of *that log* reads: a copy
*reaching* a receive buffer is not an event, its fate (``drop``, or
``accept`` / ``duplicate`` / ``stash`` once the engine saw it) is; and the
per-PDU happy path (:data:`PER_PDU_CATEGORIES`) goes only into a log that
keeps it (:attr:`TraceLog.keeps_per_pdu`).  A complete :class:`TraceLog`
keeps everything — the checker and the lifecycle metrics read it.  A
bounded :class:`FlightRecorder` is the ring for runs with no end, and keeps
faults and decisions only — DESIGN.md §16.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Vocabulary of record categories emitted by the engines in this repository.
CATEGORIES = (
    "submit",        # application handed data to the service
    "broadcast",     # a PDU was handed to the network
    "unicast",       # a PDU was handed to the network for one destination
    "batch",         # an open batch frame was flushed to the wire
    "drop",          # a PDU was lost (buffer overrun or injected loss)
    "accept",        # acceptance action ran (PDU entered RRL)
    "duplicate",     # a retransmitted copy of an already-accepted PDU arrived
    "stash",         # out-of-order PDU stashed for selective repeat
    "gap",           # a failure condition detected missing PDUs
    "ret",           # a RET (retransmission-request) PDU was sent
    "retransmit",    # a source rebroadcast PDUs in response to a RET
    "preack",        # a PDU moved to the pre-acknowledged log PRL
    "ack",           # a PDU reached the acknowledged level (the paper's ARL)
    "deliver",       # a PDU's data was handed to the application
    "heartbeat",     # a heartbeat control PDU was sent (quiescence extension)
    "flow-blocked",  # the flow condition deferred a transmission
    "suspect",       # an entity was suspected crashed (membership extension)
    "unsuspect",     # a suspected entity spoke and was re-included
    "crash",         # a host was crashed by the experiment script
    "pause",         # a host was frozen by the experiment script (GC pause)
    "resume",        # a paused host was unfrozen
    "restart",       # a crashed host was restarted as a rejoining incarnation
    "view-propose",  # a view-change round was proposed (coordinator)
    "view-agree",    # this entity countersigned a proposed view
    "view-install",  # an agreed view was installed (flush barrier passed)
    "evict",         # a member was evicted by an installed view
    "readmit",       # a previously evicted member was re-admitted
    "fence",         # a removed member's PDU was dropped at the view fence
    "join",          # a rejoining incarnation broadcast a join request
    "state-transfer",# a sponsor served (or a joiner applied) a state snapshot
    "gauge",         # a host sampled its entity's live occupancy gauges
    "digest",        # an anti-entropy digest was sent (repair extension)
    "pull",          # a repair-pull request was sent (digest compare / escalation)
    "pull-serve",    # a pull's ranges were answered from resident stores
    "delta",         # a delta-sync burst was pushed to a straggler
    "stash-drop",    # an evicted member's unserviceable stash was discarded
    "bridge_failover",  # a group's bridge role moved to another member (§18)
)


#: The per-PDU happy path: what every message does at every member when
#: nothing goes wrong.  The engine records these only into a log whose
#: :attr:`~TraceLog.keeps_per_pdu` is true (probe heartbeats are a decision,
#: not happy path, and are always recorded).
PER_PDU_CATEGORIES = (
    "submit", "accept", "preack", "ack", "deliver", "heartbeat", "batch",
    "flow-blocked",
)


class TraceRecord:
    """One event in a run.

    ``entity`` is the index of the entity the event happened *at* (or the
    sender for ``broadcast``); ``details`` carries category-specific keys
    such as ``src``, ``seq``, ``pdu_id``.  Records compare by value.
    """

    __slots__ = ("time", "category", "entity", "details")

    def __init__(
        self, time: float, category: str, entity: int,
        details: Optional[Dict[str, Any]] = None,
    ):
        self.time = time
        self.category = category
        self.entity = entity
        self.details: Dict[str, Any] = {} if details is None else details

    def get(self, key: str, default: Any = None) -> Any:
        return self.details.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time and self.category == other.category
            and self.entity == other.entity and self.details == other.details
        )

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, category={self.category!r}, "
                f"entity={self.entity!r}, details={self.details!r})")

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.time:12.6f}] E{self.entity:<3d} {self.category:<12s} {parts}"


class TraceLog:
    """An append-only sequence of :class:`TraceRecord`.

    The log preserves insertion order, which equals simulated-time order
    because the kernel is single-threaded and monotonic.
    """

    #: A complete log keeps the per-PDU happy path
    #: (:data:`PER_PDU_CATEGORIES`): the causal-order checker, the
    #: lifecycle metrics and quiescence detection read it.
    keeps_per_pdu = True

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._records: List[TraceRecord] = []
        #: Every record ever offered — never reset, so an absolute cursor
        #: whatever :meth:`clear` or a ring bound did to the retained ones.
        self.recorded_total = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, time: float, category: str, entity: int, **details: Any) -> None:
        """Append a record (no-op when the log is disabled)."""
        if not self.enabled:
            return
        self.recorded_total += 1
        self._records.append(TraceRecord(time, category, entity, details))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        return tuple(self._records)

    def tail(self, k: int) -> Iterator[TraceRecord]:
        """The last ``k`` retained records, **newest first**, in O(k): for
        polling what a long run appended without walking it from record 0."""
        return islice(reversed(self._records), max(k, 0))

    def select(
        self,
        category: Optional[str] = None,
        entity: Optional[int] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Records matching all the given filters, in time order."""
        out = []
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if entity is not None and rec.entity != entity:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def count(self, category: str, entity: Optional[int] = None) -> int:
        """Number of records in a category (optionally for one entity)."""
        return len(self.select(category=category, entity=entity))

    def first(self, category: str, **match: Any) -> Optional[TraceRecord]:
        """The earliest record of ``category`` whose details contain ``match``."""
        for rec in self._records:
            if rec.category != category:
                continue
            if all(rec.details.get(k) == v for k, v in match.items()):
                return rec
        return None

    def format(self, limit: Optional[int] = None) -> str:
        """Human-readable dump of the first ``limit`` records."""
        records = self._records if limit is None else list(self._records)[:limit]
        return "\n".join(str(rec) for rec in records)

    def clear(self) -> None:
        self._records.clear()

    # ------------------------------------------------------------------
    # Flight recordings (JSONL snapshot export)
    # ------------------------------------------------------------------
    def meta(self) -> Dict[str, Any]:
        """Header fields written at the top of a JSONL recording."""
        return {"kind": "trace", "records": len(self._records)}

    def dump_jsonl(self, path: str) -> str:
        """Write the retained records as a JSONL flight recording.

        Line 1 is a ``{"meta": ...}`` header; every further line is one
        record as ``{"t", "cat", "e", "d"}``.  Tuples in details are
        JSON-encoded as lists (the only lossy conversion); everything a
        recording consumer needs — :mod:`repro.metrics`,
        :mod:`repro.analysis.recording` — reads either form.
        """
        with open(path, "w") as f:
            f.write(json.dumps({"meta": self.meta()}, sort_keys=True) + "\n")
            for rec in self._records:
                f.write(json.dumps(
                    {"t": rec.time, "cat": rec.category, "e": rec.entity,
                     "d": rec.details},
                    sort_keys=True, default=_jsonable,
                ) + "\n")
        return path


def _jsonable(value: Any) -> Any:
    """Fallback encoder: sets become sorted lists, objects become reprs."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return repr(value)


def load_jsonl(path: str) -> Tuple["TraceLog", Dict[str, Any]]:
    """Read a flight recording back into a (TraceLog, meta) pair.

    The returned log is a plain :class:`TraceLog` regardless of whether a
    bounded :class:`FlightRecorder` wrote it — the bound matters when
    recording, not when analysing.  What the writer kept does matter: the
    log's :attr:`~TraceLog.keeps_per_pdu` is the meta's ``per_pdu``, so a
    ring's recording is refused by ``verify_run`` as the live ring is.
    """
    log = TraceLog()
    meta: Dict[str, Any] = {}
    with open(path) as f:
        for line_number, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if line_number == 0 and "meta" in obj:
                meta = obj["meta"]
                continue
            log.record(obj["t"], obj["cat"], obj["e"], **obj.get("d", {}))
    log.keeps_per_pdu = meta.get("per_pdu", True)
    return log, meta


class FlightRecorder(TraceLog):
    """A :class:`TraceLog` with a hard memory bound: a ring of the most
    recent ``capacity`` records.

    The paper's failure model is receiver-side overrun; an observability
    layer that grows without bound while diagnosing one would be its own
    overrun.  The recorder keeps the *tail* of the run — the window that
    contains whatever just went wrong — and counts what it shed
    (``evicted``) so a truncated recording is never mistaken for a short
    run.  It is the default log of the wall-clock runtime, whose runs have
    no end: the engine records no per-PDU happy path into it
    (:attr:`keeps_per_pdu`), so the ring holds faults and decisions
    instead of being flushed by deliveries.  A record still goes through
    :meth:`TraceLog.record` itself (the bound lives in the ``deque`` the
    records go into), so whatever instruments that one method sees every
    record; what the bound shed is what was offered, not kept, not cleared.
    A log that keeps no per-PDU records cannot be verified and cannot
    drive a simulated cluster's quiescence detection: ``verify_run`` and
    ``build_cluster`` refuse it.
    """

    #: A ring has no end to verify against, so it keeps faults and
    #: decisions, not the happy path every PDU takes at every member.
    keeps_per_pdu = False

    def __init__(self, capacity: int = 100_000, enabled: bool = True):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__(enabled)
        self.capacity = capacity
        self._records = deque(maxlen=capacity)  # type: ignore[assignment]
        self._cleared = 0

    def clear(self) -> None:
        self._cleared += len(self._records)
        super().clear()

    @property
    def evicted(self) -> int:
        """Records pushed out by the ring bound."""
        return self.recorded_total - self._cleared - len(self._records)

    def meta(self) -> Dict[str, Any]:
        return {
            "kind": "flight-recorder",
            "per_pdu": self.keeps_per_pdu,
            "capacity": self.capacity,
            "records": len(self._records),
            "recorded_total": self.recorded_total,
            "evicted": self.evicted,
        }
