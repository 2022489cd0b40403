"""Unit tests for the simulated clock."""

import pytest

from repro.common import SimClock


def test_clock_starts_at_zero():
    assert SimClock().now == 0


def test_clock_custom_start():
    assert SimClock(start=500).now == 500


def test_clock_rejects_negative_start():
    with pytest.raises(ValueError):
        SimClock(start=-1)


def test_advance_moves_time():
    clock = SimClock()
    clock.advance(1000)
    clock.advance(234)
    assert clock.now == 1234


def test_advance_rejects_negative():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_timer_fires_at_deadline():
    clock = SimClock()
    fired = []
    clock.call_at(100, lambda: fired.append(clock.now))
    clock.advance(99)
    assert fired == []
    clock.advance(1)
    assert fired == [100]


def test_timer_fires_in_order():
    clock = SimClock()
    fired = []
    clock.call_at(200, lambda: fired.append("b"))
    clock.call_at(100, lambda: fired.append("a"))
    clock.call_at(300, lambda: fired.append("c"))
    clock.advance(1000)
    assert fired == ["a", "b", "c"]


def test_timer_same_deadline_fifo():
    clock = SimClock()
    fired = []
    clock.call_at(100, lambda: fired.append("first"))
    clock.call_at(100, lambda: fired.append("second"))
    clock.advance(100)
    assert fired == ["first", "second"]


def test_callback_sees_deadline_as_now():
    clock = SimClock()
    seen = []
    clock.call_at(50, lambda: seen.append(clock.now))
    clock.advance(500)
    assert seen == [50]
    assert clock.now == 500


def test_rescheduling_callback_fires_within_same_advance():
    clock = SimClock()
    fired = []

    def tick():
        fired.append(clock.now)
        if clock.now < 300:
            clock.call_after(100, tick)

    clock.call_at(100, tick)
    clock.advance(1000)
    assert fired == [100, 200, 300]


def test_call_after_relative():
    clock = SimClock(start=1000)
    fired = []
    clock.call_after(500, lambda: fired.append(clock.now))
    clock.advance(499)
    assert fired == []
    clock.advance(1)
    assert fired == [1500]


def test_call_after_rejects_negative_delay():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.call_after(-5, lambda: None)


def test_past_deadline_fires_on_next_advance():
    clock = SimClock(start=100)
    fired = []
    clock.call_at(10, lambda: fired.append(True))
    clock.advance(0)
    assert fired == [True]


def test_pending_timers_count():
    clock = SimClock()
    clock.call_at(10, lambda: None)
    clock.call_at(20, lambda: None)
    assert clock.pending_timers() == 2
    clock.advance(15)
    assert clock.pending_timers() == 1

