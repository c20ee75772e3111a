"""Tests for conflict-graph construction and utilities."""

import pytest

from repro.topology.builder import fig7_topology, fig13a_topology
from repro.topology.conflict_graph import (build_conflict_graph,
                                           greedy_maximal_extension,
                                           hearing_graph,
                                           is_independent_set,
                                           two_hop_graph)
from repro.topology.links import Link
from repro.topology.measurement import campaign_overhead_fraction
from tests.graphs import path_graph, star_graph


def two_hop_max_degree(hearing):
    """The paper's delta: the two-hop graph's maximum degree."""
    return max(map(len, two_hop_graph(hearing).values()), default=0)


def test_fig7_downlink_graph_edges():
    topo = fig7_topology()
    imap = topo.interference_map()
    downlinks = [Link(2 * i, 2 * i + 1) for i in range(4)]
    graph = build_conflict_graph(imap, downlinks)
    assert len(graph) == 4
    assert {frozenset((a, b)) for a in graph for b in graph[a]} == {
        frozenset((Link(0, 1), Link(2, 3))),
        frozenset((Link(4, 5), Link(6, 7))),
    }


def test_fig13a_graph_has_no_edges():
    topo = fig13a_topology()
    graph = build_conflict_graph(topo.interference_map(), topo.flows)
    assert not any(graph.values())


def test_is_independent_set():
    topo = fig7_topology()
    graph = build_conflict_graph(topo.interference_map(),
                                 [Link(2 * i, 2 * i + 1) for i in range(4)])
    assert is_independent_set(graph, [Link(0, 1), Link(4, 5)])
    assert not is_independent_set(graph, [Link(0, 1), Link(2, 3)])


def test_greedy_maximal_extension():
    topo = fig7_topology()
    links = [Link(2 * i, 2 * i + 1) for i in range(4)]
    graph = build_conflict_graph(topo.interference_map(), links)
    extended = greedy_maximal_extension(graph, [Link(0, 1)], links)
    assert Link(0, 1) in extended
    assert Link(2, 3) not in extended  # conflicts with base
    assert is_independent_set(graph, extended)
    # Maximal: nothing else can be added.
    leftovers = [l for l in links if l not in extended]
    for leftover in leftovers:
        assert not is_independent_set(graph, extended + [leftover])


def test_update_cost_formula_matches_paper():
    """Sec. 5: delta=40, 40 us beacons, 125.1 ms coherence -> ~1.3 %."""
    star = star_graph(40)  # center has degree 40
    # two-hop graph of a star is complete: every leaf reaches every
    # other leaf through the hub -> max degree stays 40.
    assert two_hop_max_degree(star) == 40
    overhead = campaign_overhead_fraction(star)
    assert overhead == pytest.approx(40e-6 * 41 / 125.1e-3, rel=1e-6)
    assert 0.012 < overhead < 0.014


def test_two_hop_degree_on_path():
    path = path_graph(5)  # 0-1-2-3-4
    # node 2 reaches 0,1,3,4 within two hops.
    assert two_hop_max_degree(path) == 4


def test_two_hop_degree_empty_graph():
    assert two_hop_max_degree({}) == 0


def test_hearing_graph_uses_cs_range():
    topo = fig7_topology()
    imap = topo.interference_map()
    graph = hearing_graph(imap, [0, 2, 4, 6])
    assert 2 in graph[0]   # AP2 audible at AP1
    assert 4 in graph[0]   # AP3 audible at AP1
    assert 6 not in graph[4]  # AP3/AP4 hidden
