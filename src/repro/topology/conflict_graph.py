"""Link conflict graph G(V, E) (Sec. 3).

Each vertex is a link (AP->client or client->AP); an edge means the
two links interfere and must not share a slot.  Independent sets of
this graph are exactly the legal slots.  The graph is derived from the
central interference map, mirroring the conflict-graph construction
the paper cites.

Every graph here is a plain adjacency dict (vertex -> neighbour set,
each edge stored both ways) that only this module's functions write;
readers ask ``b in graph[a]``, ``a in graph`` and ``len(graph[a])``.

The node-level hearing graph and its two-hop expansion live here too;
:mod:`repro.topology.measurement` colours the latter into the Sec. 5
beacon campaign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, AbstractSet, Callable, Dict, Hashable,
                    Iterable, List, Optional, Sequence, Set, Tuple, TypeVar)

from .links import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .interference_map import InterferenceMap

V = TypeVar("V", bound=Hashable)
Adjacency = Dict[V, Set[V]]  # undirected: vertex -> neighbour set


def _pairwise_graph(vertices: Sequence[V],
                    adjacent: Callable[[V, V], bool]) -> Adjacency[V]:
    """Graph over ``vertices`` with an edge wherever ``adjacent`` holds."""
    graph: Adjacency[V] = {vertex: set() for vertex in vertices}
    for a, b in itertools.combinations(vertices, 2):
        if adjacent(a, b):
            graph[a].add(b)
            graph[b].add(a)
    return graph


def build_conflict_graph(imap: "InterferenceMap",
                         links: Sequence[Link]) -> Adjacency[Link]:
    """Conflict graph over ``links`` from the interference map."""
    return _pairwise_graph(links, imap.conflicts)


def add_vertices(graph: Adjacency[V], vertices: Iterable[V]) -> None:
    """Add ``vertices`` without edges; present ones keep theirs."""
    for vertex in vertices:
        graph.setdefault(vertex, set())


def remove_vertices(graph: Adjacency[V], vertices: Iterable[V]) -> None:
    """Remove ``vertices`` and their edges; absent ones are skipped."""
    for vertex in vertices:
        for neighbour in graph.pop(vertex, ()):
            graph[neighbour].discard(vertex)


@dataclass
class ConflictDelta:
    """What one incremental conflict-graph update actually changed.

    ``checked`` counts the pairwise SINR tests run — the quantity a
    full rebuild pays ``len(links) choose 2`` of, and what the online
    controller's ≥5x incremental speedup comes from keeping small.
    ``pairs`` lists the link pairs whose edge flipped (added or
    removed); cache revalidation uses it to decide whether a stored
    conversion's ROP-sharing decisions could have changed.
    """

    added: int = 0
    removed: int = 0
    checked: int = 0
    pairs: List[Tuple[Link, Link]] = field(default_factory=list)

    @property
    def changed(self) -> int:
        return self.added + self.removed


def update_conflict_graph(graph: Adjacency[Link], imap: "InterferenceMap",
                          links: Sequence[Link],
                          dirty_links: Iterable[Link]) -> ConflictDelta:
    """Recompute only the edges incident to ``dirty_links``, in place.

    The dirty-region contract: ``imap.conflicts(l1, l2)`` reads RSS
    between the two links' endpoints only, so after a change confined
    to one node's RSS row/column the only edges that can flip are
    those incident to a link touching that node.  Callers pass those
    links (plus any newly added vertices) as ``dirty_links``; every
    (dirty, other) pair is re-tested against the *current* map and the
    edge set is patched to match what :func:`build_conflict_graph`
    would build from scratch.  Vertices must already be in ``graph``.
    """
    delta = ConflictDelta()
    dirty = [link for link in dict.fromkeys(dirty_links)]
    dirty_set = set(dirty)
    for dl in dirty:
        neighbours = graph[dl]
        # ``imap.conflicts(dl, other)`` is the two-link slot: fold
        # ``dl`` alone once, then test each partner against it.
        alone = imap.slot()
        viable = alone.try_add(dl)
        for other in links:
            if other == dl:
                continue
            # Dirty-dirty pairs come up twice; test them once.
            if other in dirty_set and other < dl:
                continue
            delta.checked += 1
            conflicting = not (viable and alone.fits(other))
            if conflicting and other not in neighbours:
                neighbours.add(other)
                graph[other].add(dl)
                delta.added += 1
                delta.pairs.append((dl, other))
            elif not conflicting and other in neighbours:
                neighbours.remove(other)
                graph[other].remove(dl)
                delta.removed += 1
                delta.pairs.append((dl, other))
    return delta


def is_independent_set(graph: Adjacency[Link], links: Iterable[Link]) -> bool:
    """True iff no two of ``links`` are adjacent in ``graph``."""
    return not any(l2 in graph[l1]
                   for l1, l2 in itertools.combinations(list(links), 2))


def greedy_maximal_extension(graph: Adjacency[Link], base: Sequence[Link],
                             candidates: Iterable[Link],
                             imap: Optional["InterferenceMap"] = None,
                             blocked_nodes: AbstractSet[int] = frozenset()
                             ) -> List[Link]:
    """Extend ``base`` to a maximal legal slot using ``candidates``.

    Candidates are tried in the given (deterministic) order; each is
    added when it shares no node with the slot, touches none of
    ``blocked_nodes``, is adjacent to no chosen link in ``graph`` and,
    given ``imap``, leaves the whole slot surviving additive
    interference (:class:`~repro.topology.interference_map.SlotSurvival`).
    ``base`` is kept as given, but a base that fails the additive check
    lets no candidate in.  This is the primitive behind both the RAND
    scheduler's slot construction and the converter's fake-link
    insertion (Sec. 3.3).
    """
    chosen: List[Link] = list(base)
    used: Set[int] = set(blocked_nodes)
    for link in chosen:
        used.update(link)
    slot = None
    for cand in candidates:
        if cand.src in used or cand.dst in used:
            continue
        if not graph[cand].isdisjoint(chosen):
            continue
        if imap is not None:
            if slot is None:
                # Fold the base only once some candidate needs it.
                slot = imap.slot()
                if not all(slot.try_add(link) for link in chosen):
                    return chosen
            if not slot.try_add(cand):
                continue
        chosen.append(cand)
        used.update(cand)
    return chosen


def hearing_graph(imap: "InterferenceMap",
                  node_ids: Sequence[int]) -> Adjacency[int]:
    """Node-level graph with an edge where nodes carrier-sense each other."""
    return _pairwise_graph(node_ids, imap.in_cs_range)


def two_hop_graph(hearing: Adjacency[V]) -> Adjacency[V]:
    """Connect any two vertices within two hops of ``hearing``."""
    expanded: Adjacency[V] = {}
    for node, neighbours in hearing.items():
        reach = set(neighbours)
        for neighbour in neighbours:
            reach |= hearing[neighbour]
        reach.discard(node)
        expanded[node] = reach
    return expanded
