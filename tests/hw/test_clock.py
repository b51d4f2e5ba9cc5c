"""Tests for the simulation clock."""

import pytest

from repro.hw.clock import SimulationClock


def test_clock_starts_at_zero_by_default():
    assert SimulationClock().now == 0.0


def test_clock_starts_at_given_time():
    assert SimulationClock(start=5.0).now == 5.0


def test_advance_moves_time_forward():
    clock = SimulationClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == pytest.approx(2.0)


def test_advance_rejects_negative_duration():
    with pytest.raises(ValueError):
        SimulationClock().advance(-1.0)


def test_schedule_rejects_negative_delay():
    with pytest.raises(ValueError):
        SimulationClock().schedule(-0.1, lambda now: None)


def test_schedule_rejects_non_positive_period():
    with pytest.raises(ValueError):
        SimulationClock().schedule(0.1, lambda now: None, period=0.0)


def test_one_shot_event_fires_once():
    clock = SimulationClock()
    fired = []
    clock.schedule(1.0, fired.append)
    assert clock.advance(0.5) == 0
    assert clock.advance(1.0) == 1
    assert clock.advance(5.0) == 0
    assert fired == [pytest.approx(1.0)]


def test_periodic_event_fires_repeatedly():
    clock = SimulationClock()
    fired = []
    clock.schedule(0.5, fired.append, period=0.5)
    clock.advance(2.0)
    assert len(fired) == 4
    assert fired == [pytest.approx(t) for t in (0.5, 1.0, 1.5, 2.0)]


def test_events_fire_in_timestamp_order():
    clock = SimulationClock()
    order = []
    clock.schedule(2.0, lambda now: order.append("late"))
    clock.schedule(1.0, lambda now: order.append("early"))
    clock.advance(3.0)
    assert order == ["early", "late"]


def test_cancelled_event_does_not_fire():
    clock = SimulationClock()
    fired = []
    handle = clock.schedule(1.0, fired.append)
    handle.cancel()
    clock.advance(2.0)
    assert fired == []
    assert handle.cancelled


def test_cancelling_periodic_event_stops_rescheduling():
    clock = SimulationClock()
    fired = []
    handle = clock.schedule(0.5, fired.append, period=0.5)
    clock.advance(1.0)
    handle.cancel()
    clock.advance(5.0)
    assert len(fired) == 2


def test_event_scheduled_by_callback_fires_in_same_window():
    clock = SimulationClock()
    fired = []

    def chain(now: float) -> None:
        fired.append(now)
        if len(fired) < 3:
            clock.schedule(0.1, chain)

    clock.schedule(0.1, chain)
    clock.advance(1.0)
    assert len(fired) == 3


def test_pending_events_counts_only_active_events():
    clock = SimulationClock()
    handle = clock.schedule(1.0, lambda now: None)
    clock.schedule(2.0, lambda now: None)
    assert clock.pending_events() == 2
    handle.cancel()
    assert clock.pending_events() == 1


def test_cancel_all_clears_everything():
    clock = SimulationClock()
    fired = []
    clock.schedule(0.5, fired.append, period=0.5)
    clock.schedule(1.0, fired.append)
    clock.cancel_all()
    clock.advance(10.0)
    assert fired == []
    assert clock.pending_events() == 0


def test_time_does_not_move_backwards_when_advancing_zero():
    clock = SimulationClock(start=3.0)
    clock.advance(0.0)
    assert clock.now == 3.0


def test_periodic_ties_fire_in_scheduling_order():
    """Equal due times fire in scheduling order, tick after tick.

    The board's two per-CPU timers tie on every tick; the order in which
    they raise their interrupts must not depend on anything but the order
    they were (re-)armed in, through a cancel, a re-arm and ``reset_to``.
    """
    clock = SimulationClock()
    order = []

    def recorder(name):
        return lambda now: order.append((name, now))

    first = clock.schedule(0.5, recorder("a"), period=0.5)
    clock.schedule(0.5, recorder("b"), period=0.5)
    clock.advance(1.0)
    assert order == [("a", 0.5), ("b", 0.5), ("a", 1.0), ("b", 1.0)]

    # Re-armed at the same phase, "a" is now scheduled after "b".
    order.clear()
    first.cancel()
    rearmed = clock.schedule(0.5, recorder("a"), period=0.5)
    assert rearmed.due == 1.5
    clock.advance(1.0)
    assert order == [("b", 1.5), ("a", 1.5), ("b", 2.0), ("a", 2.0)]

    # After reset_to, only the events scheduled afterwards fire, in order.
    order.clear()
    clock.reset_to(10.0)
    clock.schedule(0.25, recorder("c"), period=0.25)
    clock.schedule(0.25, recorder("a"), period=0.25)
    assert clock.advance(0.5) == 4
    assert order == [("c", 10.25), ("a", 10.25), ("c", 10.5), ("a", 10.5)]
    assert rearmed.cancelled
