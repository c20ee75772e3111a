"""Beacon-based interference measurement (Sec. 5 discussion).

The central server's RSS map has to come from somewhere, and under
mobility it has to be refreshed.  The paper adopts the
measurement-campaign idea it cites (Kashyap et al.): every node
broadcasts a beacon while the others record its RSS.  Done naively
this costs ``N`` beacon slots; "since non-interfering nodes could
send the beacons concurrently, the time complexity could be reduced
to t(delta + 1), where delta is the maximum degree of the two-hop
connected graph".

:func:`beacon_rounds` implements exactly that: greedy colouring of
the two-hop hearing graph, one colour class (a set of mutually
non-conflicting beaconers) per round.  Two nodes may share a round
only if no third node hears both — otherwise their beacons collide at
the common observer and the measurement is lost.

:func:`campaign_overhead_fraction` reproduces the paper's arithmetic:
with delta = 40 and 40 µs beacons against the 125.1 ms walking
coherence time, the overhead is ~1.3 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from .conflict_graph import Adjacency, V, two_hop_graph


def _largest_first_colouring(graph: Adjacency[V]) -> Dict[V, int]:
    """Greedy colouring, highest degree first, ties in insertion order;
    each vertex takes the lowest colour no coloured neighbour holds
    (networkx's ``greedy_color(G, "largest_first")``)."""
    colours: Dict[V, int] = {}
    for node in sorted(graph, key=lambda n: len(graph[n]), reverse=True):
        taken = {colours[n] for n in graph[node] if n in colours}
        colour = 0
        while colour in taken:
            colour += 1
        colours[node] = colour
    return colours


def beacon_rounds(hearing: Adjacency[int]) -> List[List[int]]:
    """Greedy-colour the two-hop graph into concurrent beacon rounds.

    Returns rounds in colour order; every node appears exactly once.
    The number of rounds is at most ``delta + 1`` (greedy colouring
    bound), matching the paper's ``t(delta + 1)`` campaign length.
    """
    colouring = _largest_first_colouring(two_hop_graph(hearing))
    n_rounds = max(colouring.values(), default=-1) + 1
    rounds: List[List[int]] = [[] for _ in range(n_rounds)]
    for node, colour in colouring.items():
        rounds[colour].append(node)
    for round_nodes in rounds:
        round_nodes.sort()
    return rounds


def validate_rounds(hearing: Adjacency[int],
                    rounds: Sequence[Sequence[int]]) -> None:
    """Raise ``ValueError`` if any round risks beacon collisions."""
    expanded = two_hop_graph(hearing)
    seen: Set[int] = set()
    for index, round_nodes in enumerate(rounds):
        for i, a in enumerate(round_nodes):
            if a not in expanded:
                raise ValueError(
                    f"round {index}: node {a} is not in the hearing graph")
            if a in seen:
                raise ValueError(f"node {a} beacons twice")
            seen.add(a)
            for b in round_nodes[i + 1:]:
                if b in expanded[a]:
                    raise ValueError(
                        f"round {index}: {a} and {b} share an observer"
                    )
    missing = set(hearing) - seen
    if missing:
        raise ValueError(f"nodes never beacon: {sorted(missing)}")


def campaign_overhead_fraction(hearing: Adjacency[int],
                               beacon_us: float = 40.0,
                               coherence_us: float = 125_100.0) -> float:
    """Fraction of airtime a periodic refresh campaign costs.

    The paper computes 1.3 % for delta = 40 at walking coherence.
    """
    rounds = beacon_rounds(hearing)
    return len(rounds) * beacon_us / coherence_us


@dataclass
class ObservationStore:
    """Accumulates (tx, rx) -> RSS observations from one campaign."""

    observations: Dict[int, Dict[int, float]] = field(default_factory=dict)

    def record(self, observer: int, beaconer: int, rss_dbm: float) -> None:
        self.observations.setdefault(observer, {})[beaconer] = rss_dbm

    def count(self) -> int:
        return sum(len(v) for v in self.observations.values())

    def apply_to_matrix(self, matrix: "np.ndarray") -> int:
        """Write observations into an RSS matrix (tx row, rx column).

        Pairs never observed keep their previous value.  Returns the
        number of entries updated.
        """
        updated = 0
        for observer, heard in self.observations.items():
            for beaconer, rss in heard.items():
                matrix[beaconer][observer] = rss
                updated += 1
        return updated
