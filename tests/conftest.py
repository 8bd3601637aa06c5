"""Shared test fixtures and helpers."""

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

import pytest

from repro.core.config import ProtocolConfig
from repro.core.entity import COEntity, DeliveredMessage
from repro.core.pdu import DataPdu, HeartbeatPdu, RetPdu
from repro.sim.trace import TraceLog


class EngineDriver:
    """Drives one sans-I/O CO engine by hand in unit tests.

    Captures everything the engine sends (``driver.sent``, with typed
    accessors) and delivers (``driver.delivered``), and provides a manual
    clock (``driver.clock``).  ``unicast=True`` also binds a point-to-point
    path, as every shipped host does; its ``(dst, pdu)`` pairs land in
    ``driver.unicasts``.  ``driver.advertised_buf`` is what the engine reads
    as its host's free inbox units; lower it to simulate unread input.
    Every entry point also checks that no batch outlives the call that
    opened it (docs/PROTOCOL.md §14).  The clock counts its reads
    (``driver.clock_reads``) and moves ``driver.clock_drift`` seconds on
    each one — a wall clock that runs while an input is processed.
    ``engine_cls`` swaps in a :class:`COEntity` subclass.  ``receive`` is a
    turn of one; ``receive_turn`` feeds several PDUs as one turn, the way
    the UDP runtime drains a burst (docs/PROTOCOL.md §7).
    """

    def __init__(self, index: int, n: int, config: Optional[ProtocolConfig] = None,
                 trace: Optional[TraceLog] = None, buf: int = 10 ** 6,
                 unicast: bool = False, engine_cls: type = COEntity):
        self.clock = 0.0
        self.clock_reads = 0
        self.clock_drift = 0.0
        self.advertised_buf = buf
        self.trace = trace if trace is not None else TraceLog()
        self.sent: List[Any] = []
        self.unicasts: List[Tuple[int, Any]] = []
        self.delivered: List[DeliveredMessage] = []
        self._unread: Deque[Any] = deque()
        self.engine = engine_cls(
            index, n,
            config or ProtocolConfig(),
            clock=self._read_clock,
            trace=self.trace,
            advertised_buf=lambda: self.advertised_buf,
        )
        self.engine.bind(
            send=self.sent.append, deliver=self.delivered.append,
            unicast=(
                (lambda dst, pdu: self.unicasts.append((dst, pdu)))
                if unicast else None
            ),
            more_input=lambda: bool(self._unread),
        )

    def _read_clock(self) -> float:
        self.clock_reads += 1
        self.clock += self.clock_drift
        return self.clock

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def submit(self, data, size=0) -> Optional[DataPdu]:
        before = len(self.sent)
        self.engine.submit(data, size)
        assert not self.engine._batch
        fresh = [p for p in self.sent[before:] if isinstance(p, DataPdu)]
        return fresh[0] if fresh else None

    def receive(self, pdu) -> None:
        self.engine.on_pdu(pdu)
        assert not self.engine._batch

    def receive_turn(self, pdus) -> None:
        """Feed ``pdus`` as one turn: each leaves the unread queue before
        ``on_pdu`` sees it, then the turn ends.  A ``None`` stands for a
        datagram that did not decode — it never reaches the engine."""
        self._unread.extend(pdus)
        while self._unread:
            pdu = self._unread.popleft()
            if pdu is not None:
                self.engine.on_pdu(pdu)
        self.engine.end_turn()
        assert not self.engine._batch

    def tick(self, dt: float = 0.0) -> None:
        self.clock += dt
        self.engine.on_tick()
        assert not self.engine._batch

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def data_sent(self) -> List[DataPdu]:
        return [p for p in self.sent if isinstance(p, DataPdu)]

    @property
    def rets_sent(self) -> List[RetPdu]:
        return [p for p in self.sent if isinstance(p, RetPdu)]

    @property
    def heartbeats_sent(self) -> List[HeartbeatPdu]:
        return [p for p in self.sent if isinstance(p, HeartbeatPdu)]

    @property
    def delivered_payloads(self) -> List[Any]:
        return [m.data for m in self.delivered]


def make_pdu(src: int, seq: int, ack, data: Any = "payload", buf: int = 10 ** 6) -> DataPdu:
    """A hand-built data PDU for feeding an engine."""
    return DataPdu(cid=1, src=src, seq=seq, ack=tuple(ack), buf=buf, data=data)


@pytest.fixture
def driver():
    """A 3-entity cluster's engine at index 0."""
    return EngineDriver(0, 3)


@pytest.fixture
def driver4():
    """A 4-entity cluster's engine at index 0."""
    return EngineDriver(0, 4)
