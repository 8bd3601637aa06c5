"""Outside-in span tracing: the harness wraps the calls *into* each layer.

Nothing under ``src/`` is edited.  In the traced child process the public
functions of every layer (module attributes and class methods) are replaced
by wrappers that record a span — name, start, end and the span that caused
it — on one in-memory stack.  A layer's busy time is the *self* time of its
spans: duration minus the part its child spans cover, so a microsecond is
charged to exactly one layer and the shares can be summed into a ledger.

Spans are aggregated per name; full spans are kept only for a 1-in-64
sample of message ids ``(src, seq)``, together with everything they caused.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

SAMPLE_ONE_IN = 64
MAX_SAMPLED_SPANS = 200_000

MessageId = Tuple[int, int]
Ident = Callable[[tuple], Any]


def message_id(pdu: Any) -> Optional[MessageId]:
    """``(src, seq)`` of a sequenced PDU, ``None`` for control frames."""
    seq = getattr(pdu, "seq", None)
    if seq is None:
        return None
    return (pdu.src, seq)


def _is_sampled(mid: MessageId) -> bool:
    return (mid[0] * 7919 + mid[1]) % SAMPLE_ONE_IN == 0


class Tracer:
    """Span recorder for one single-threaded process.

    Wrapped functions must run to completion without suspending (plain
    functions, never coroutines), which is what keeps one stack correct
    under asyncio.
    """

    def __init__(self) -> None:
        #: name -> [calls, total ns, self ns]
        self.agg: Dict[str, List[int]] = {}
        #: name -> layer, for the ledger.
        self.layer_of: Dict[str, str] = {}
        #: open spans, innermost last: [child ns, name]
        self.stack: List[list] = []
        #: (name, start ns, end ns, parent name, src, seq) of sampled messages.
        self.sampled: List[tuple] = []
        self.active_id: Optional[MessageId] = None

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        ident: Optional[Ident] = None,
        ident_result: bool = False,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``.

        ``ident(args)`` names the PDU a call is about (or, with
        ``ident_result``, is applied to ``(result,)``); calls about a
        sampled message id record full spans for themselves and for every
        span they cause.
        """
        rec = self.agg.setdefault(name, [0, 0, 0])
        self.layer_of[name] = layer
        stack = self.stack
        now = perf_counter_ns
        tracer = self

        def plain(*args: Any, **kwargs: Any) -> Any:
            frame = [0, name]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                dur = end - start
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if tracer.active_id is not None:
                    tracer._sample(name, start, end, tracer.active_id)

        def identified(*args: Any, **kwargs: Any) -> Any:
            opened = False
            if not ident_result and tracer.active_id is None:
                mid = message_id(ident(args))
                if mid is not None and _is_sampled(mid):
                    tracer.active_id = mid
                    opened = True
            frame = [0, name]
            stack.append(frame)
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                dur = end - start
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                mid = tracer.active_id
                if mid is None and ident_result and result is not None:
                    mid = message_id(ident((result,)))
                    if mid is not None and not _is_sampled(mid):
                        mid = None
                if mid is not None:
                    tracer._sample(name, start, end, mid)
                if opened:
                    tracer.active_id = None

        wrapper = plain if ident is None else identified
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _sample(self, name: str, start: int, end: int, mid: MessageId) -> None:
        if len(self.sampled) < MAX_SAMPLED_SPANS:
            parent = self.stack[-1][1] if self.stack else None
            self.sampled.append((name, start, end, parent, mid[0], mid[1]))

    def patch(self, owner: Any, attr: str, name: str, layer: str, **kw: Any) -> None:
        """Replace ``owner.attr`` by its traced wrapper, for the rest of
        this (dedicated) process."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, layer, **kw))

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates (called when the timed region starts)."""
        for rec in self.agg.values():
            rec[0] = rec[1] = rec[2] = 0
        del self.sampled[:]

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[0]

    def self_us(self, *names: str) -> float:
        return sum(self.agg.get(n, (0, 0, 0))[2] for n in names) / 1e3

    def us_per_call(self, *names: str) -> float:
        calls = sum(self.calls(n) for n in names)
        return self.self_us(*names) / calls if calls else 0.0

    def layer_self_us(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, rec in self.agg.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + rec[2] / 1e3
        return out

    def dump(self) -> Dict[str, Any]:
        return {
            "aggregate": {
                name: {"layer": self.layer_of[name], "calls": rec[0],
                       "total_us": rec[1] / 1e3, "self_us": rec[2] / 1e3}
                for name, rec in sorted(self.agg.items())
            },
            "sampled_one_in": SAMPLE_ONE_IN,
            "sampled_spans": [
                {"name": s[0], "start_ns": s[1], "end_ns": s[2],
                 "parent": s[3], "src": s[4], "seq": s[5]}
                for s in self.sampled
            ],
        }
