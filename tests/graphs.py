"""Test graph builders in the program's graph form.

The program keeps its conflict, hearing and two-hop graphs as plain
adjacency dicts (``{vertex: set_of_neighbours}``, see
:mod:`repro.topology.conflict_graph`); tests build their inputs here.
"""


def undirected(vertices, edges=()):
    """Adjacency dict over ``vertices`` (in order) with ``edges``."""
    graph = {v: set() for v in vertices}
    for a, b in edges:
        graph[a].add(b)
        graph[b].add(a)
    return graph


def path_graph(n):
    """Path ``0-1-...-(n-1)``."""
    return undirected(range(n), zip(range(n - 1), range(1, n)))


def star_graph(leaves):
    """Hub 0 joined to leaves ``1..leaves``."""
    return undirected(range(leaves + 1),
                      ((0, leaf) for leaf in range(1, leaves + 1)))
