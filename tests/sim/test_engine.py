"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "mid")
    sim.run(until=10.0)
    assert fired == ["early", "mid", "late"]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in ("a", "b", "c"):
        sim.schedule(2.0, fired.append, tag)
    sim.run(until=5.0)
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_until_even_when_heap_drains():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_events_beyond_horizon_are_not_executed():
    sim = Simulator()
    fired = []
    sim.schedule(50.0, fired.append, "x")
    sim.run(until=10.0)
    assert fired == []
    sim.run(until=60.0)
    assert fired == ["x"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run(until=5.0)
    assert fired == []
    assert sim.events_processed == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run(until=2.0)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run(until=5.0)
    assert fired == ["outer", "inner"]
    assert sim.now == 5.0


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def recurse():
        try:
            sim.run(until=100.0)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, recurse)
    sim.run(until=10.0)
    assert len(errors) == 1


def test_pending_skips_cancelled():
    sim = Simulator()
    keep = sim.schedule(7.0, lambda: None)
    drop = sim.schedule(3.0, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert keep.time == 7.0


def test_pending_counter_tracks_cancel_and_execution():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending == 5
    events[1].cancel()
    events[1].cancel()                   # idempotent: counted once
    events[3].cancel()
    assert sim.pending == 3
    sim.run(until=10.0)
    assert sim.pending == 0
    assert sim.events_processed == 3


def test_pending_counts_events_cancelled_from_callbacks():
    sim = Simulator()
    victim = sim.schedule(5.0, lambda: None)
    sim.schedule(1.0, victim.cancel)
    sim.step()
    assert sim.pending == 0


def test_rng_determinism():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert [a.rng.random() for _ in range(5)] == \
        [b.rng.random() for _ in range(5)]


def test_serial_counters_are_per_simulation():
    sim = Simulator(seed=1)
    assert [sim.serial("a"), sim.serial("a"), sim.serial("b")] == [1, 2, 1]
    # A fresh simulator must count from zero again — this is what keeps
    # back-to-back runs in one process byte-identical.
    assert Simulator(seed=1).serial("a") == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=40))
def test_property_all_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run(until=2e6)
    assert times == sorted(times)
    assert len(times) == len(delays)
