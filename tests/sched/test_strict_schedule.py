"""Tests for the strict schedule container."""

import pytest

from repro.sched.strict_schedule import StrictSchedule
from repro.topology.links import Link
from tests.graphs import undirected


def test_append_iter_getitem():
    schedule = StrictSchedule()
    schedule.append([Link(0, 1)])
    schedule.append([Link(2, 3), Link(4, 5)])
    assert len(schedule) == 2
    assert schedule[1] == [Link(2, 3), Link(4, 5)]
    assert [len(s) for s in schedule] == [1, 2]


def test_links_deduplicated_in_order():
    schedule = StrictSchedule()
    schedule.append([Link(0, 1), Link(2, 3)])
    schedule.append([Link(0, 1)])
    assert schedule.links() == [Link(0, 1), Link(2, 3)]


def test_service_counts():
    schedule = StrictSchedule()
    schedule.append([Link(0, 1)])
    schedule.append([Link(0, 1), Link(2, 3)])
    counts = schedule.service_counts()
    assert counts[Link(0, 1)] == 2
    assert counts[Link(2, 3)] == 1


def test_validate_against_detects_conflict():
    graph = undirected([Link(0, 1), Link(2, 3)], [(Link(0, 1), Link(2, 3))])
    bad = StrictSchedule()
    bad.append([Link(0, 1), Link(2, 3)])
    with pytest.raises(ValueError):
        bad.validate_against(graph)
    good = StrictSchedule()
    good.append([Link(0, 1)])
    good.append([Link(2, 3)])
    good.validate_against(graph)  # no raise


def test_link_helpers():
    link = Link(3, 7)
    assert link.sender == 3 and link.receiver == 7
    assert link.reversed() == Link(7, 3)
    assert link.shares_node(Link(7, 9))
    assert not link.shares_node(Link(1, 2))
    assert str(link) == "3->7"
