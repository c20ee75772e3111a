"""Tests for the strict schedule container."""

from repro.sched.strict_schedule import StrictSchedule
from repro.topology.links import Link


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


def test_link_helpers():
    link = Link(3, 7)
    assert link.sender == 3 and link.receiver == 7
    assert link.reversed() == Link(7, 3)
    assert link.shares_node(Link(7, 9))
    assert not link.shares_node(Link(1, 2))
    assert str(link) == "3->7"
