"""Property: below a round of unread input the backlog gate does not exist.

"Read before you announce" (docs/PROTOCOL.md §7) holds the two timer-paced
confirmations back while at least one PDU per live peer sits unread in the
inbox.  An engine whose host advertises a constant BUF — every
``EngineDriver`` unit test, every host without a bounded inbox — can never
see a backlog, and neither can one whose inbox stays short of a round: both
must be indistinguishable, record for record, from an engine with the gate
taken out (the rule as it was before: the interval alone).
"""

from hypothesis import given, settings, strategies as st

from tests.conftest import EngineDriver
from tests.property.test_prop_merge_memo import _feed, engine_streams


def _ungated_driver(n):
    driver = EngineDriver(0, n)
    engine = driver.engine
    engine._may_announce = lambda now: (
        now - engine._last_send_time >= engine.config.deferred_interval
    )
    return driver


@st.composite
def streams_with_short_inboxes(draw):
    n, events = draw(engine_streams())
    # Unread units before each event: always short of one per live peer
    # (nobody is suspected in these streams, so that is n - 1).
    unread = draw(st.lists(
        st.integers(min_value=0, max_value=n - 2),
        min_size=len(events), max_size=len(events),
    ))
    return n, list(zip(unread, events))


@settings(max_examples=120, deadline=None)
@given(streams_with_short_inboxes(), st.booleans())
def test_gate_is_invisible_below_a_round_of_unread_input(stream, constant_buf):
    n, events = stream
    gated, reference = EngineDriver(0, n), _ungated_driver(n)
    empty = gated.advertised_buf
    for unread, ev in events:
        if not constant_buf:
            # The advertisement goes out in every PDU's BUF field, so the
            # reference's inbox reads the same.
            gated.advertised_buf = reference.advertised_buf = empty - unread
        _feed(gated, ev)
        _feed(reference, ev)
        assert gated.sent == reference.sent
    assert list(gated.trace) == list(reference.trace)
    assert gated.engine.state.snapshot() == reference.engine.state.snapshot()
    assert gated.engine.counters.snapshot() == reference.engine.counters.snapshot()
    assert gated.delivered == reference.delivered
