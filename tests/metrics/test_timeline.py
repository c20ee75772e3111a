"""Tests for the slot timeline recorder."""

import pytest

from repro.metrics.timeline import SlotEvent, TimelineRecorder
from repro.topology.links import Link


def make_recorder():
    recorder = TimelineRecorder()
    # slot 0: spread 20 us; slot 1: spread 2 us; slot 2: aligned.
    recorder.record(0, Link(0, 1), 100.0)
    recorder.record(0, Link(2, 3), 120.0)
    recorder.record(1, Link(0, 1), 600.0)
    recorder.record(1, Link(2, 3), 602.0)
    recorder.record(2, Link(0, 1), 1100.0, fake=True, kind="fake")
    recorder.record(2, Link(2, 3), 1100.5)
    return recorder


def test_misalignment_by_slot():
    table = make_recorder().misalignment_by_slot()
    assert table[0] == pytest.approx(20.0)
    assert table[1] == pytest.approx(2.0)
    assert table[2] == pytest.approx(0.5)


def test_fake_counts_toward_misalignment():
    recorder = TimelineRecorder()
    recorder.record(0, Link(0, 1), 10.0)
    recorder.record(0, Link(2, 3), 40.0, fake=True, kind="fake")
    assert recorder.misalignment_by_slot()[0] == pytest.approx(30.0)


def test_polls_excluded_from_misalignment():
    recorder = TimelineRecorder()
    recorder.record(0, Link(0, 1), 10.0)
    recorder.record(0, Link(2, 2), 500.0, kind="poll")
    assert recorder.misalignment_by_slot()[0] == 0.0


def test_audible_filter_restricts_pairs():
    recorder = make_recorder()

    def never_audible(a, b):
        return False

    table = recorder.misalignment_by_slot(audible=never_audible)
    assert all(v == 0.0 for v in table.values())

    def only_0_and_2(a, b):
        return {a, b} == {0, 2}

    table = recorder.misalignment_by_slot(audible=only_0_and_2)
    assert table[0] == pytest.approx(20.0)


def test_series_fills_missing_slots():
    recorder = make_recorder()
    series = recorder.misalignment_series(5)
    assert len(series) == 5
    assert series[3] == 0.0 and series[4] == 0.0


def test_from_trace_reads_slot_exec_and_rop_poll():
    records = [
        {"ev": "sched_dispatch", "t": 0.0, "batch": 0, "first_slot": 0,
         "last_slot": 3, "slots": 4},
        {"ev": "slot_exec", "t": 100.0, "node": 0, "slot": 0, "dst": 1,
         "fake": False, "id": 1, "cause": None, "via": "self"},
        {"ev": "frame_tx", "t": 100.0, "node": 0},
        {"ev": "slot_exec", "t": 120.0, "node": 2, "slot": 0, "dst": 3,
         "fake": True, "id": 3, "cause": None, "via": "self"},
        {"ev": "rop_poll", "t": 600.0, "node": 2, "slot": 1,
         "poll_set": 0, "id": 4, "cause": 1},
    ]
    recorder = TimelineRecorder.from_trace(records)
    assert recorder.events == [
        SlotEvent(0, Link(0, 1), 100.0, False, "data"),
        SlotEvent(0, Link(2, 3), 120.0, True, "fake"),
        SlotEvent(1, Link(2, 2), 600.0, False, "poll"),
    ]
    assert recorder.misalignment_by_slot() == {0: 20.0}


def test_render_contains_marks():
    text = make_recorder().render(names={0: "AP1", 1: "C1"})
    assert "AP1->C1" in text
    assert "D" in text
    assert "f" in text


def test_count_by_kind():
    recorder = make_recorder()
    assert recorder.count("data") == 5
    assert recorder.count("fake") == 1
    assert recorder.count("poll") == 0
