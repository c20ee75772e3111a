"""Beacon-round planning (Sec. 5) against networkx as an oracle.

``beacon_rounds`` colours the two-hop hearing graph with its own
largest-first greedy colouring.  networkx is a test dependency only;
here it builds the same graph, squares it with ``nx.power`` and colours
it with ``greedy_color(strategy="largest_first")``.  Both must give the
same rounds, including the tie order among equal-degree vertices, which
comes from vertex insertion order on both sides.
"""

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.topology.builder import (fig1_topology, fig7_topology,
                                    fig13a_topology, fig13b_topology,
                                    random_t_topology)
from repro.topology.conflict_graph import hearing_graph
from repro.topology.measurement import beacon_rounds, validate_rounds
from tests.graphs import undirected


def oracle_rounds(order, edges):
    """Rounds bucketed and sorted from networkx's colouring."""
    graph = nx.Graph()
    graph.add_nodes_from(order)
    graph.add_edges_from(edges)
    colouring = nx.coloring.greedy_color(nx.power(graph, 2),
                                         strategy="largest_first")
    rounds = [[] for _ in range(max(colouring.values(), default=-1) + 1)]
    for node, colour in colouring.items():
        rounds[colour].append(node)
    return [sorted(r) for r in rounds]


@st.composite
def graphs(draw):
    """Vertex order (a permutation, so ties break differently) and a
    simple edge list over at most 30 vertices."""
    n = draw(st.integers(min_value=0, max_value=30))
    order = draw(st.permutations(range(n)))
    if n < 2:
        return order, []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=60))
    return order, [(a, b) for a, b in pairs if a != b]


STAR = (list(range(9)), [(0, leaf) for leaf in range(1, 9)])
DISCONNECTED = (list(range(12)),
                [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (9, 10)])


@settings(deadline=None, max_examples=200)
@given(graphs())
@example(([], []))
@example(STAR)
@example(DISCONNECTED)
def test_beacon_rounds_match_networkx_largest_first(graph):
    order, edges = graph
    hearing = undirected(order, edges)
    rounds = beacon_rounds(hearing)
    assert rounds == oracle_rounds(order, edges)
    validate_rounds(hearing, rounds)


#: ``beacon_rounds(hearing_graph(...))`` over every node of each
#: topology, recorded with the networkx colouring.
PINNED_ROUNDS = {
    "fig1": [[0], [3, 4], [2, 5], [1]],
    "fig7": [[4], [0, 6], [1, 5], [2, 7], [3]],
    "fig13a": [[0], [2], [4], [6], [1, 3, 5, 7]],
    "fig13b": [[6], [0, 3, 5], [1, 2], [4], [7]],
    "t10_2_seed1": [
        [0, 3, 6, 12], [1, 4, 7, 13], [2, 5, 8, 14], [9, 15, 25],
        [10, 16, 24, 29], [11, 17, 26, 27], [18, 21, 28], [19, 22],
        [20, 23]],
    "t20_3_seed100": [
        [13, 27, 55, 67], [20, 24, 28, 42, 68], [8, 21, 30, 33, 62],
        [9, 22, 31, 65, 72], [10, 23, 29, 64, 73], [11, 36, 66, 74],
        [37, 53, 75], [32, 38, 52, 63], [35, 39, 54], [17, 69, 76],
        [56, 70, 77], [57, 71, 78], [19, 79], [25, 40], [26, 43],
        [1, 48], [44, 49], [45, 50], [46, 51], [12, 58], [15, 47, 59],
        [0, 61], [2, 16, 60], [3, 41], [4, 14], [5, 18], [6, 34], [7]],
}

TOPOLOGIES = {
    "fig1": fig1_topology,
    "fig7": fig7_topology,
    "fig13a": fig13a_topology,
    "fig13b": fig13b_topology,
    "t10_2_seed1": lambda: random_t_topology(10, 2, seed=1),
    "t20_3_seed100": lambda: random_t_topology(20, 3, seed=100),
}


@pytest.mark.parametrize("name", sorted(PINNED_ROUNDS))
def test_beacon_rounds_pinned_on_topologies(name):
    topology = TOPOLOGIES[name]()
    node_ids = sorted(n.node_id for n in topology.network)
    hearing = hearing_graph(topology.interference_map(), node_ids)
    assert beacon_rounds(hearing) == PINNED_ROUNDS[name]
