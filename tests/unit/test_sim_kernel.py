"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator, sim_clock


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_zero_delay_event_runs_after_current_instant_events():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: (order.append("first"), sim.schedule(0.0, order.append, "nested")))
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.pending


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    end = sim.run(until=2.0)
    assert fired == ["a"]
    assert end == 2.0
    assert sim.now == 2.0


def test_run_until_includes_events_exactly_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "boundary")
    sim.run(until=2.0)
    assert fired == ["boundary"]


def test_resume_after_until_runs_remaining_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    sim.run()
    assert fired == ["a", "b"]


def test_run_empty_with_until_advances_clock():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_max_events_guard():
    sim = Simulator()

    def reschedule():
        sim.schedule(0.1, reschedule)

    sim.schedule(0.1, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=50)


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == ["a", "b"]


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(k):
        fired.append(k)
        if k < 3:
            sim.schedule(1.0, chain, k + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# The handle is the heap entry (DESIGN.md §16)
# ----------------------------------------------------------------------

def test_same_instant_order_never_compares_callbacks_or_args():
    """Heap entries are ordered by the C list comparison on (time, seq);
    seq is unique, so neither the callback nor the args — here objects
    that define no ordering at all — is ever reached."""
    sim = Simulator()
    order = []
    tokens = [object() for _ in range(64)]

    def make(k):
        return lambda token: order.append((k, token))   # distinct callbacks

    for k, token in enumerate(tokens):
        sim.schedule(1.0, make(k), token)
    sim.schedule_at(1.0, lambda: order.append("last"))
    sim.run()
    assert order == [(k, token) for k, token in enumerate(tokens)] + ["last"]


def test_cancelled_handle_frees_its_references():
    sim = Simulator()
    fired = []
    payload = object()
    handle = sim.schedule(1.0, fired.append, payload)
    assert handle.callback == fired.append and handle.args == (payload,)
    handle.cancel()
    assert handle.callback is None and handle.args == ()
    assert not any(item is payload for entry in sim._heap for item in entry)
    # The key survives: the entry has to keep its place in the heap.
    assert handle.time == 1.0 and handle.seq == 1
    sim.run()
    assert fired == []


def test_handle_state_semantics():
    sim = Simulator()
    sim.schedule(0.5, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    assert (handle.time, handle.seq) == (2.0, 2)
    assert handle.pending and not handle.cancelled
    sim.run()
    # Firing does not touch the handle; only cancel() does.
    assert handle.pending and not handle.cancelled
    handle.cancel()
    assert handle.cancelled and not handle.pending


def test_cancelled_head_is_skipped_and_not_counted():
    sim = Simulator()
    fired = []
    head = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    head.cancel()
    assert sim.step() is True
    assert fired == ["kept"] and sim.now == 2.0
    assert sim.events_executed == 1
    assert sim.pending_events == 0


def test_until_with_cancelled_head_still_stops_at_the_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "x").cancel()
    sim.schedule(5.0, fired.append, "late")
    assert sim.run(until=3.0) == 3.0
    assert fired == [] and sim.pending_events == 1


def test_max_events_counts_only_this_run():
    sim = Simulator()
    for k in range(6):
        sim.schedule(float(k), lambda: None)
    sim.run(until=2.0, max_events=3)          # exactly three: allowed
    with pytest.raises(SimulationError):
        sim.run(max_events=2)                  # three left
    assert sim.events_executed == 5


def test_events_executed_is_current_inside_a_callback():
    sim = Simulator()
    seen = []
    for _ in range(3):
        sim.schedule(1.0, lambda: seen.append(sim.events_executed))
    sim.run()
    assert seen == [1, 2, 3]


def test_sim_clock_reads_the_live_time():
    sim = Simulator()
    clock = sim_clock(sim)
    seen = []
    sim.schedule(1.5, lambda: seen.append(clock()))
    assert clock() == 0.0
    sim.run(until=4.0)
    assert seen == [1.5] and clock() == sim.now == 4.0
