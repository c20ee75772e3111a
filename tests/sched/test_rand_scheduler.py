"""Tests for the RAND-style greedy scheduler."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.sched.rand_scheduler import RandScheduler
from repro.topology.conflict_graph import build_conflict_graph
from repro.topology.links import Link
from test_interference_map import ADDITIVE_PAIRS, make_imap


def chain_graph(n):
    """n links in a path-conflict structure: i conflicts with i+1."""
    links = [Link(10 * i, 10 * i + 1) for i in range(n)]
    graph = nx.Graph()
    graph.add_nodes_from(links)
    for a, b in zip(links, links[1:]):
        graph.add_edge(a, b)
    return links, graph


def test_slots_are_independent_sets():
    links, graph = chain_graph(5)
    scheduler = RandScheduler(graph, links)
    schedule = scheduler.schedule_batch({l: 3 for l in links}, max_slots=10)
    for slot in schedule:
        for a, b in itertools.combinations(slot, 2):
            assert not graph.has_edge(a, b)


def test_greedy_packs_alternating_links():
    links, graph = chain_graph(4)
    scheduler = RandScheduler(graph, links)
    schedule = scheduler.schedule_batch({l: 1 for l in links}, max_slots=10)
    # Chain 0-1-2-3: {0,2} then {1,3} serves everything in 2 slots.
    assert len(schedule) == 2
    assert set(schedule[0]) == {links[0], links[2]}
    assert set(schedule[1]) == {links[1], links[3]}


def test_only_backlogged_links_scheduled():
    links, graph = chain_graph(4)
    scheduler = RandScheduler(graph, links)
    schedule = scheduler.schedule_batch({links[1]: 2}, max_slots=10)
    assert len(schedule) == 2
    for slot in schedule:
        assert slot == [links[1]]


def test_demands_dict_not_mutated():
    links, graph = chain_graph(3)
    scheduler = RandScheduler(graph, links)
    demands = {l: 2 for l in links}
    scheduler.schedule_batch(demands, max_slots=10)
    assert all(v == 2 for v in demands.values())


def test_fairness_rotation():
    """Two mutually conflicting links must alternate across batches."""
    links = [Link(0, 1), Link(2, 3)]
    graph = nx.Graph()
    graph.add_nodes_from(links)
    graph.add_edge(*links)
    scheduler = RandScheduler(graph, links)
    first = scheduler.schedule_batch({l: 1 for l in links}, max_slots=1)
    second = scheduler.schedule_batch({l: 1 for l in links}, max_slots=1)
    assert first[0] != second[0]


def test_max_slots_respected():
    links, graph = chain_graph(2)
    scheduler = RandScheduler(graph, links)
    schedule = scheduler.schedule_batch({l: 100 for l in links}, max_slots=7)
    assert len(schedule) == 7


def test_set_check_blocks_additive_sets():
    imap = make_imap(ADDITIVE_PAIRS)
    links = [Link(0, 1), Link(2, 3), Link(4, 5)]
    graph = build_conflict_graph(imap, links)
    assert graph.number_of_edges() == 0  # compatible in pairs
    demands = {l: 1 for l in links}
    # The graph alone packs the triple into one slot ...
    assert RandScheduler(graph, links).schedule_batch(
        demands, max_slots=10)[0] == links
    # ... the additive check on the real map splits it.
    scheduler = RandScheduler(graph, links, imap=imap)
    schedule = scheduler.schedule_batch(demands, max_slots=10)
    assert [list(slot) for slot in schedule] == [links[:2], links[2:]]
    for slot in schedule:
        assert imap.set_survives(slot)


def test_unknown_link_rejected():
    links, graph = chain_graph(2)
    with pytest.raises(ValueError):
        RandScheduler(graph, links + [Link(99, 98)])


def test_unsatisfied_after():
    links, graph = chain_graph(2)
    scheduler = RandScheduler(graph, links)
    demands = {links[0]: 3, links[1]: 1}
    schedule = scheduler.schedule_batch(demands, max_slots=2)
    leftover = scheduler.unsatisfied_after(demands, schedule)
    served = schedule.service_counts()
    for link, want in demands.items():
        assert leftover.get(link, 0) == max(0, want - served.get(link, 0))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=8),
       st.dictionaries(st.integers(min_value=0, max_value=7),
                       st.integers(min_value=0, max_value=5), max_size=8))
def test_property_service_never_exceeds_demand(n_links, raw_demands):
    links, graph = chain_graph(8)
    scheduler = RandScheduler(graph, links)
    demands = {links[i]: d for i, d in raw_demands.items() if d > 0}
    schedule = scheduler.schedule_batch(demands, max_slots=30)
    served = schedule.service_counts()
    for link, count in served.items():
        assert count <= demands.get(link, 0)
    # Everything is eventually served within the generous slot budget.
    assert scheduler.unsatisfied_after(demands, schedule) == {}
