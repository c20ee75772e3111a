"""Link conflict graph G(V, E) (Sec. 3).

Each vertex is a link (AP->client or client->AP); an edge means the
two links interfere and must not share a slot.  Independent sets of
this graph are exactly the legal slots.  The graph is derived from the
central interference map, mirroring the conflict-graph construction
the paper cites.

Also implements the Sec. 5 discussion formula for the cost of keeping
the conflict graph fresh under mobility:
``overhead = t * (delta + 1) / coherence_time`` where ``delta`` is the
maximum degree of the two-hop connected graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, AbstractSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

import networkx as nx

from .links import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .interference_map import InterferenceMap


def build_conflict_graph(imap: "InterferenceMap",
                         links: Sequence[Link]) -> nx.Graph:
    """Conflict graph over ``links`` from the interference map."""
    graph = nx.Graph()
    graph.add_nodes_from(links)
    for l1, l2 in itertools.combinations(links, 2):
        if imap.conflicts(l1, l2):
            graph.add_edge(l1, l2)
    return graph


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


def update_conflict_graph(graph: nx.Graph, imap: "InterferenceMap",
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
        for other in links:
            if other == dl:
                continue
            # Dirty-dirty pairs come up twice; test them once.
            if other in dirty_set and other < dl:
                continue
            delta.checked += 1
            conflicting = imap.conflicts(dl, other)
            if conflicting and not graph.has_edge(dl, other):
                graph.add_edge(dl, other)
                delta.added += 1
                delta.pairs.append((dl, other))
            elif not conflicting and graph.has_edge(dl, other):
                graph.remove_edge(dl, other)
                delta.removed += 1
                delta.pairs.append((dl, other))
    return delta


def is_independent_set(graph: nx.Graph, links: Iterable[Link]) -> bool:
    """True iff no two of ``links`` are adjacent in ``graph``."""
    links = list(links)
    for l1, l2 in itertools.combinations(links, 2):
        if graph.has_edge(l1, l2):
            return False
    return True


def greedy_maximal_extension(graph: nx.Graph, base: Sequence[Link],
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
    has_edge = graph.has_edge
    slot = None
    for cand in candidates:
        if cand.src in used or cand.dst in used:
            continue
        if any(has_edge(cand, link) for link in chosen):
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


@dataclass
class ConflictGraphUpdateCost:
    """Sec. 5 estimate of dynamic conflict-graph maintenance overhead."""

    beacon_time_us: float = 40.0
    coherence_time_us: float = 125_100.0  # 125.1 ms walking coherence

    def two_hop_max_degree(self, hearing: nx.Graph) -> int:
        """Max degree of the two-hop connected graph of ``hearing``.

        ``hearing`` is the node-level interference graph (who hears
        whom); two nodes are connected in the two-hop graph when they
        are within two hops.
        """
        two_hop = nx.Graph()
        two_hop.add_nodes_from(hearing.nodes)
        for node in hearing.nodes:
            reach = set(hearing.neighbors(node))
            for neigh in list(reach):
                reach.update(hearing.neighbors(neigh))
            reach.discard(node)
            for other in reach:
                two_hop.add_edge(node, other)
        if two_hop.number_of_nodes() == 0:
            return 0
        return max(dict(two_hop.degree).values(), default=0)

    def overhead_fraction(self, hearing: nx.Graph) -> float:
        """Fraction of airtime spent re-measuring the conflict graph.

        With delta = 40 and 40 us beacons the paper computes 1.3 %.
        """
        delta = self.two_hop_max_degree(hearing)
        return self.beacon_time_us * (delta + 1) / self.coherence_time_us


def hearing_graph(imap: "InterferenceMap",
                  node_ids: Sequence[int]) -> nx.Graph:
    """Node-level graph with an edge where nodes carrier-sense each other."""
    graph = nx.Graph()
    graph.add_nodes_from(node_ids)
    for a, b in itertools.combinations(node_ids, 2):
        if imap.in_cs_range(a, b):
            graph.add_edge(a, b)
    return graph
