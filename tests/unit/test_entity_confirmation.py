"""Unit tests for deferred confirmation, heartbeats and strict paper mode."""

from repro.core.config import ConfirmationMode, ProtocolConfig
from repro.core.pdu import HeartbeatPdu
from tests.conftest import EngineDriver, make_pdu


def test_heartbeat_after_hearing_from_all(driver):
    """Deferred confirmation: send after receiving from every entity (§5)."""
    driver.receive(make_pdu(1, 1, (1, 1, 1)))
    assert driver.heartbeats_sent == []
    driver.receive(make_pdu(2, 1, (1, 1, 1)))
    assert len(driver.heartbeats_sent) == 1
    hb = driver.heartbeats_sent[0]
    assert hb.ack == (1, 2, 2)


def test_heartbeat_after_timer(driver):
    driver.receive(make_pdu(1, 1, (1, 1, 1)))
    driver.tick(dt=driver.engine.config.deferred_interval + 1e-9)
    assert len(driver.heartbeats_sent) == 1


def test_no_heartbeat_without_news(driver):
    driver.tick(dt=1.0)
    driver.tick(dt=1.0)
    assert driver.heartbeats_sent == []


def test_pending_data_takes_priority_over_heartbeat(driver):
    driver.engine.submit("queued")  # sent immediately; resets heard_from
    driver.receive(make_pdu(1, 1, (2, 1, 1)))
    driver.receive(make_pdu(2, 1, (2, 1, 1)))
    # Hearing from all with no *pending* data sends a heartbeat...
    assert len(driver.heartbeats_sent) == 1
    # ...but with data pending, the data PDU is the confirmation.
    driver.engine._pending.append(("later", 0))
    driver.receive(make_pdu(1, 2, (2, 2, 1)))
    driver.receive(make_pdu(2, 2, (2, 2, 2)))
    assert len(driver.data_sent) == 2
    assert len(driver.heartbeats_sent) == 1  # unchanged


def test_data_pdu_resets_confirmation_state(driver):
    driver.receive(make_pdu(1, 1, (1, 1, 1)))
    driver.submit("x")  # carries ack (1->2) for E1's PDU
    interval = driver.engine.config.deferred_interval + 1e-9
    driver.tick(dt=interval)
    # The data PDU confirmed REQ as it stood *before* its own
    # self-acceptance (Table 1's ACK_self = SEQ convention), so the timer's
    # first heartbeat carries a changed vector: a plain confirmation.
    assert [hb.probe for hb in driver.heartbeats_sent] == [False]
    assert driver.heartbeats_sent[0].ack == (2, 2, 1)
    # Nothing new after that, but the engine still holds undrained state
    # (its own PDU and E1's await pre-ack): one quiet interval later the
    # timer emits a *probe* rather than staying silent.
    driver.tick(dt=interval)
    assert [hb.probe for hb in driver.heartbeats_sent] == [False, True]


def test_immediate_mode_confirms_every_receipt():
    drv = EngineDriver(0, 3, ProtocolConfig(confirmation=ConfirmationMode.IMMEDIATE))
    drv.receive(make_pdu(1, 1, (1, 1, 1)))
    drv.receive(make_pdu(2, 1, (1, 1, 1)))
    drv.receive(make_pdu(1, 2, (1, 2, 1)))
    assert len(drv.heartbeats_sent) == 3


def test_strict_mode_sends_sequenced_null():
    drv = EngineDriver(0, 3, ProtocolConfig(strict_paper_mode=True))
    drv.receive(make_pdu(1, 1, (1, 1, 1)))
    drv.receive(make_pdu(2, 1, (1, 1, 1)))
    assert drv.heartbeats_sent == []
    nulls = [p for p in drv.data_sent if p.is_null]
    assert len(nulls) == 1
    assert nulls[0].seq == 1
    assert nulls[0].ack == (1, 2, 2)
    assert drv.engine.counters.sent_null == 1


def test_strict_mode_null_respects_flow_when_not_forced():
    config = ProtocolConfig(strict_paper_mode=True, window=1)
    drv = EngineDriver(0, 3, config)
    drv.submit("a")  # fills the window
    drv.receive(make_pdu(1, 1, (1, 1, 1)))
    drv.receive(make_pdu(2, 1, (1, 1, 1)))
    # Window full -> the unforced confirmation is skipped...
    assert drv.engine.counters.sent_null == 0
    # ...but the deferred timer forces it through.
    drv.tick(dt=config.deferred_interval + 1e-9)
    assert drv.engine.counters.sent_null == 1


def test_probe_flag_on_stuck_resend(driver):
    # Heard-from-all confirmations are fresh, not probes.
    driver.receive(make_pdu(1, 1, (1, 1, 1)))
    driver.receive(make_pdu(2, 1, (1, 1, 1)))
    assert [hb.probe for hb in driver.heartbeats_sent] == [False]
    # Timer-driven repeats while state remains undrained are probes, with
    # exponential backoff between them.
    interval = driver.engine.config.deferred_interval + 1e-9
    driver.tick(dt=interval)
    driver.tick(dt=interval)        # within backoff: suppressed
    driver.tick(dt=interval)
    assert [hb.probe for hb in driver.heartbeats_sent] == [False, True, True]


def test_probe_answered_with_fresh_heartbeat(driver):
    # A drained entity answers a probe so the prober can catch up.  This
    # driver binds no unicast path, so the answer is a broadcast — and a
    # broadcast is a confirmation, booked and rate-limited like one.
    probe = HeartbeatPdu(cid=1, src=2, ack=(1, 1, 1), pack=(1, 1, 1), buf=10**6, probe=True)
    driver.clock = 1.0  # past the rate limit
    driver.receive(probe)
    assert len(driver.heartbeats_sent) == 1
    assert driver.heartbeats_sent[0].probe is False
    assert driver.engine._last_send_time == 1.0
    assert driver.engine.counters.probe_answers_sent == 1
    driver.receive(probe)  # inside the deferred window: not repeated
    assert len(driver.heartbeats_sent) == 1


def test_stale_peer_answered(driver):
    driver.receive(make_pdu(1, 1, (1, 1, 1)))
    driver.sent.clear()
    # E2's heartbeat shows it has not seen E1's PDU; we answer with ours.
    stale = HeartbeatPdu(cid=1, src=2, ack=(1, 1, 1), pack=(1, 1, 1), buf=10**6)
    driver.clock = 1.0
    driver.receive(stale)
    assert len(driver.heartbeats_sent) == 1


def test_up_to_date_heartbeat_not_answered(driver):
    fresh = HeartbeatPdu(cid=1, src=2, ack=(1, 1, 1), pack=(1, 1, 1), buf=10**6)
    driver.clock = 1.0
    driver.receive(fresh)
    assert driver.heartbeats_sent == []


def test_heartbeat_merges_pal(driver):
    hb = HeartbeatPdu(cid=1, src=1, ack=(1, 1, 1), pack=(1, 3, 2), buf=10**6)
    driver.receive(hb)
    assert driver.engine.state.pal[1] == [1, 3, 2]


# ----------------------------------------------------------------------
# The timer's two rules (docs/PROTOCOL.md §7): "my vectors changed" goes out
# every deferred interval whatever the back-off; "I lost a heartbeat" — the
# probe — waits for silence.  Power-of-two intervals keep the manual clock's
# arithmetic exact, so the schedules below are asserted to the tick.
# ----------------------------------------------------------------------
TICK = 2.0 ** -10
INTERVAL = 2 * TICK
TIMED = ProtocolConfig(deferred_interval=INTERVAL, tick_interval=TICK)


def _hb(src, ack, pack, probe=False):
    return HeartbeatPdu(cid=1, src=src, ack=ack, pack=pack, buf=10**6, probe=probe)


def _tick_until(drv, condition, limit=1000):
    for _ in range(limit):
        if condition():
            return
        drv.tick(dt=TICK)
    raise AssertionError("condition never held")


def test_silent_needy_member_probes_with_capped_doubling_backoff():
    drv = EngineDriver(0, 3, TIMED)
    drv.submit("x")  # own PDU awaits pre-acknowledgment: needy from here on
    sent_at = []
    for _ in range(400):
        before = len(drv.heartbeats_sent)
        drv.tick(dt=TICK)
        sent_at += [drv.clock] * (len(drv.heartbeats_sent) - before)
    # The self-accepted REQ goes out first, plain; every repeat is a probe.
    assert [hb.probe for hb in drv.heartbeats_sent] == [False] + [True] * 8
    gaps = [(b - a) / INTERVAL for a, b in zip(sent_at, sent_at[1:])]
    assert gaps == [1, 2, 4, 8, 16, 32, 64, 64]
    assert drv.engine.counters.probes_sent == 8
    # Only probes carry the key: a plain heartbeat's details stay empty.
    assert [r.get("probe") for r in drv.trace.select("heartbeat")] == (
        [None] + [True] * 8
    )


def test_changed_vector_is_not_held_by_the_probe_backoff():
    """The 82 ms bug: a backed-off prober pre-acknowledges a PDU; peers wait
    on exactly that PACK vector, so it must not wait for the probe timer."""
    drv = EngineDriver(0, 3, TIMED)
    drv.submit("x")
    drv.receive(_hb(1, (2, 1, 1), (1, 1, 1)))  # E1 holds x; E2 stays silent
    _tick_until(drv, lambda: drv.engine._probe_backoff == 64)
    sent = len(drv.heartbeats_sent)
    assert drv.heartbeats_sent[-1].probe
    drv.tick(dt=TICK)
    # E2's confirmation completes the PACK condition: x moves RRL -> PRL
    # (backlog size unchanged, nothing accepted: the back-off stays put).
    # Rule 1 does not fire (E1 was not heard since the last probe) and E2
    # does not trail us, so nothing event-driven goes out.
    drv.receive(_hb(2, (2, 1, 1), (2, 1, 1)))
    assert drv.engine._preack_floor == [2, 1, 1]
    assert drv.engine._probe_backoff == 64
    assert len(drv.heartbeats_sent) == sent
    changed_at = drv.clock
    _tick_until(drv, lambda: len(drv.heartbeats_sent) > sent)
    assert drv.clock - changed_at <= INTERVAL + TICK
    hb = drv.heartbeats_sent[-1]
    assert hb.pack == (2, 1, 1) and not hb.probe


def test_learning_member_confirms_but_does_not_probe():
    drv = EngineDriver(0, 3, TIMED)
    rounds = 40
    for seq in range(1, rounds + 1):
        drv.receive(make_pdu(2, seq, (1, 1, seq)))
    # Every tick E1 reports one more of E2's PDUs accepted: an AL cell rises,
    # one PDU is pre-acknowledged, our PACK vector changes.  Needy all along
    # (nothing is acknowledged) — and never stuck.
    for seq in range(1, rounds + 1):
        drv.receive(_hb(1, (1, 1, seq + 1), (1, 1, 1)))
        drv.tick(dt=TICK)
        assert drv.engine._needy
    assert len(drv.heartbeats_sent) >= rounds // 2
    assert drv.engine.counters.probes_sent == 0
    # Then silence: the last change goes out plain, one quiet interval
    # later the first probe follows.
    learned_at = drv.clock
    _tick_until(drv, lambda: drv.engine.counters.probes_sent == 1)
    assert drv.clock - learned_at <= 2 * INTERVAL + TICK
    assert [hb.probe for hb in drv.heartbeats_sent[-2:]] == [False, True]


def test_probe_backoff_resets_on_progress_only():
    drv = EngineDriver(0, 3, TIMED)
    drv.submit("x")
    drv.submit("y")
    _tick_until(drv, lambda: drv.engine._probe_backoff == 8)
    # Learning is not progress: E1 reports x accepted, an AL cell rises,
    # nothing moves — a reset here is the n-squared "twitch" storm.
    drv.receive(_hb(1, (2, 1, 1), (1, 1, 1)))
    drv.tick(dt=TICK)
    assert drv.engine._probe_backoff >= 8
    # A shrinking backlog is: x is acknowledged everywhere and leaves.
    drv.receive(_hb(1, (2, 1, 1), (2, 1, 1)))
    drv.receive(_hb(2, (2, 1, 1), (2, 1, 1)))
    assert drv.delivered_payloads == ["x"]
    drv.tick(dt=TICK)
    assert drv.engine._probe_backoff == 1
    # So is an acceptance, at once.
    _tick_until(drv, lambda: drv.engine._probe_backoff == 4)
    drv.receive(make_pdu(1, 1, (3, 1, 1)))
    assert drv.engine._probe_backoff == 1


def test_probe_answer_is_one_unicast_and_not_a_confirmation():
    drv = EngineDriver(0, 4, unicast=True)
    engine = drv.engine
    drv.receive(make_pdu(1, 1, (1, 1, 1, 1)))  # REQ moved, not yet confirmed
    drv.clock = 1.0
    drv.receive(_hb(2, (1, 1, 1, 1), (1, 1, 1, 1), probe=True))
    # One frame, to the prober alone, carrying the current vectors.
    assert drv.sent == []
    [(dst, answer)] = drv.unicasts
    assert dst == 2 and answer.probe is False
    assert (answer.ack, answer.pack) == ((1, 2, 1, 1), (1, 1, 1, 1))
    assert (answer.buf, answer.view) == (10 ** 6, engine.view)
    assert engine.counters.probe_answers_sent == 1
    assert engine.counters.sent_heartbeats == 1
    # One member was told, not the cluster: the bookkeeping is untouched...
    assert engine._last_confirmed_req == (1, 1, 1, 1)
    assert engine._last_confirmed_pack == (1, 1, 1, 1)
    assert engine._last_send_time == 0.0
    assert engine._heard_from == {1, 2}
    # ...every probe is answered (the prober's back-off is the rate limit)...
    drv.receive(_hb(2, (1, 1, 1, 1), (1, 1, 1, 1), probe=True))
    assert len(drv.unicasts) == 2 and drv.sent == []
    # ...and the changed vector is still broadcast at the next tick.
    drv.tick()
    [confirmation] = drv.heartbeats_sent
    assert confirmation.ack == (1, 2, 1, 1) and confirmation.probe is False
    assert engine._last_confirmed_req == (1, 2, 1, 1)


# ----------------------------------------------------------------------
# Read before you announce (docs/PROTOCOL.md §7): the two timer-paced
# confirmations wait while at least one PDU per live peer sits unread in
# the inbox — the shortfall of the BUF advertisement against the empty
# inbox's.  The round, the keepalive, probes and their answers never ask.
# ----------------------------------------------------------------------
BUF = 10 ** 6


def _unread(drv, units):
    drv.advertised_buf = BUF - units


def _changed_and_due():
    """A driver whose REQ moved (E1's first PDU accepted) one full interval
    ago: the next timer-paced confirmation is due."""
    drv = EngineDriver(0, 4, TIMED, buf=BUF)
    drv.receive(make_pdu(1, 1, (1, 1, 1, 1)))
    drv.clock += INTERVAL
    return drv


def _burst_from_e1(drv, n, count=12):
    for seq in range(1, count + 1):
        ack = [1] * n
        ack[1] = seq
        drv.receive(make_pdu(1, seq, tuple(ack)))


def _still_learning(drv, n, k):
    """E2 reports how much of E1's burst it holds: one AL cell rises, so the
    member is learning — not stuck, no probe — and E2 trails our REQ, so
    the stale-peer branch is asked on every call as well."""
    ack = [1] * n
    ack[1] = k
    drv.receive(_hb(2, tuple(ack), (1,) * n))


def test_backlogged_member_defers_the_tick_confirmation():
    drv = EngineDriver(0, 4, TIMED, buf=BUF)
    _burst_from_e1(drv, 4)                 # REQ moved: a confirmation is owed
    _unread(drv, 3)                        # one PDU per live peer
    for k in range(2, 12):                 # five intervals, learning all along
        _still_learning(drv, 4, k)
        drv.tick(dt=TICK)
    assert drv.sent == []
    assert drv.engine.counters.probes_sent == 0
    # One unit fewer is not a round's worth: the very next tick confirms,
    # once, plainly.
    _unread(drv, 2)
    drv.tick(dt=TICK)
    [hb] = drv.sent
    assert isinstance(hb, HeartbeatPdu) and not hb.probe
    assert hb.ack == (1, 13, 1, 1)
    drv.tick(dt=TICK)
    assert drv.sent == [hb]


def test_backlogged_member_does_not_answer_a_stale_peer():
    drv = _changed_and_due()
    stale = _hb(2, (1, 1, 1, 1), (1, 1, 1, 1))   # E2 trails our REQ[1] = 2
    _unread(drv, 3)
    drv.receive(stale)
    assert drv.sent == []
    _unread(drv, 0)
    drv.receive(stale)
    [hb] = drv.heartbeats_sent
    assert hb.ack == (1, 2, 1, 1) and not hb.probe


def test_suspected_peer_shrinks_the_backlog_threshold():
    config = ProtocolConfig(
        deferred_interval=INTERVAL, tick_interval=TICK, suspect_timeout=64 * TICK,
    )
    drv = EngineDriver(0, 4, config, buf=BUF)
    # E1 and E2 keep talking; E3 never does and is suspected.
    quiet = (1, 1, 1, 1)
    _tick_until(drv, lambda: (
        drv.receive(_hb(1, quiet, quiet)), drv.receive(_hb(2, quiet, quiet)),
        3 in drv.engine.suspected,
    )[-1])
    assert drv.engine.suspected == {3}
    _burst_from_e1(drv, 4)
    drv.tick(dt=INTERVAL)                  # confirmed; heard-from starts over
    sent = len(drv.sent)
    # Two unread units were below the threshold of three live peers; with
    # two live peers they are a round.  (Only E2 speaks from here on, so the
    # heard-from-all rule stays out of it; each report pre-acknowledges one
    # more PDU, so a changed PACK vector is owed at every tick.)
    _unread(drv, 2)
    for k in range(2, 8):
        _still_learning(drv, 4, k)
        drv.tick(dt=TICK)
    assert len(drv.sent) == sent
    _unread(drv, 1)
    drv.tick(dt=TICK)
    assert len(drv.sent) == sent + 1
    assert drv.engine.counters.probes_sent == 0


def test_round_rule_fires_whatever_the_backlog():
    drv = EngineDriver(0, 4, TIMED, buf=BUF)
    _unread(drv, 200)
    for src in (1, 2, 3):
        assert drv.sent == []
        drv.receive(make_pdu(src, 1, (1, 1, 1, 1)))
    # Heard from every live peer, inside the interval, inbox far behind.
    [hb] = drv.heartbeats_sent
    assert hb.ack == (1, 2, 2, 2)


def test_keepalive_fires_whatever_the_backlog():
    config = ProtocolConfig(
        deferred_interval=INTERVAL, tick_interval=TICK, suspect_timeout=64 * TICK,
    )
    drv = EngineDriver(0, 4, config, buf=BUF)
    _unread(drv, 200)
    drv.tick(dt=32 * TICK)                 # suspect_timeout / 2 of silence
    [hb] = drv.heartbeats_sent
    assert not hb.probe


def test_probes_and_probe_answers_go_out_whatever_the_backlog():
    drv = EngineDriver(0, 4, TIMED, buf=BUF, unicast=True)
    _unread(drv, 200)
    drv.receive(_hb(2, (1, 1, 1, 1), (1, 1, 1, 1), probe=True))
    [(dst, answer)] = drv.unicasts
    assert dst == 2 and not answer.probe
    # Needy (an own PDU awaits pre-acknowledgment), silent, nothing
    # learned: the probe goes out although the changed-vector confirmation
    # before it was held back.
    drv.submit("x")
    _tick_until(drv, lambda: drv.engine.counters.probes_sent == 1)
    assert [hb.probe for hb in drv.heartbeats_sent] == [True]


def test_data_still_carries_the_confirmation_when_backlogged():
    drv = _changed_and_due()
    _unread(drv, 200)
    pdu = drv.submit("x")
    assert pdu.ack == (1, 2, 1, 1)
    assert drv.engine._last_confirmed_req[1] == 2
