"""Controller-side network state under an event stream.

:class:`NetworkState` is the online controller's picture of the
world: the measured RSS table, AP and client membership, the ordered
link universe, and per-link queue backlogs.  The state never writes
the table: the control plane built over it adopts the table and is
its only writer.  Applying an event returns a :class:`StateDelta`
naming the RSS it carries and the dirty region — the engine hands
the writes to :meth:`repro.core.control_plane.ControlPlane.write_rss`
and the region to :meth:`~repro.core.control_plane.ControlPlane.update`,
which patches the graph and cache in place; the live structures are
never rebuilt.

Universe ordering is load-bearing: fake candidates are tried in
universe order, so the order must be a deterministic function of the
event history.  The initial order matches
:class:`repro.core.controller.DominoController` (flows first, then
association links); joins append their two links at the tail, leaves
remove theirs, everything else keeps its position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Set, Tuple

import numpy as np

from ..core.control_plane import link_universe
from ..topology.interference_map import RssTable
from ..topology.links import Link
from .events import (Associate, ControllerEvent, Disassociate, QueueUpdate,
                     RssDelta)

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependencies
    from ..sim.phy import PhyProfile
    from ..topology.builder import Topology


RssWrite = Tuple[int, Mapping[int, float], Mapping[int, float]]


@dataclass
class StateDelta:
    """Dirty region of one applied event (or an accumulation of them)."""

    #: ``(node, rss_to, rss_from)`` per RSS-carrying event, in event
    #: order, for :meth:`~repro.core.control_plane.ControlPlane.write_rss`.
    rss_writes: List[RssWrite] = field(default_factory=list)
    dirty_nodes: Set[int] = field(default_factory=set)
    added_links: List[Link] = field(default_factory=list)
    removed_links: List[Link] = field(default_factory=list)
    queue_events: int = 0
    ignored_events: int = 0

    @property
    def topology_dirty(self) -> bool:
        return bool(self.dirty_nodes or self.added_links
                    or self.removed_links)

    def merge(self, other: "StateDelta") -> None:
        self.rss_writes.extend(other.rss_writes)
        self.dirty_nodes |= other.dirty_nodes
        self.added_links.extend(l for l in other.added_links
                                if l not in self.added_links)
        self.removed_links.extend(l for l in other.removed_links
                                  if l not in self.removed_links)
        self.queue_events += other.queue_events
        self.ignored_events += other.ignored_events


class NetworkState:
    """Mutable controller state: RSS, membership, universe, queues."""

    def __init__(self, rss_dbm: np.ndarray, aps: List[int],
                 clients: Mapping[int, int], links: List[Link],
                 profile: "PhyProfile"):
        #: Measured RSS, tx row by rx column.  Built from ``rss_dbm``
        #: (which is not kept); the control plane adopts it.
        self.table = RssTable.from_matrix(rss_dbm)
        self.aps = list(aps)
        self._ap_set = frozenset(self.aps)
        #: client id -> governing AP, in association order.
        self.clients: Dict[int, int] = dict(clients)
        self.links: List[Link] = list(links)
        self.profile = profile
        self.queues: Dict[Link, float] = {link: 0.0 for link in self.links}

    @classmethod
    def from_topology(cls, topology: "Topology") -> "NetworkState":
        """Seed the state from a static topology snapshot.

        Shares the batch controller's universe construction, so a
        service with zero events schedules the same network a
        :class:`~repro.core.controller.DominoController` would.
        """
        return cls(
            rss_dbm=topology.trace.rss_dbm,
            aps=[ap.node_id for ap in topology.network.aps],
            clients={client.node_id: client.ap_id
                     for client in topology.network.clients},
            links=link_universe(topology),
            profile=topology.profile,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.table.dbm)

    def ap_of(self, node: int) -> int:
        return node if node in self._ap_set else self.clients[node]

    def ap_links(self) -> Dict[int, List[Link]]:
        """Per-AP association-link view, in universe order."""
        table: Dict[int, List[Link]] = {ap: [] for ap in self.aps}
        for link in self.links:
            table[self.ap_of(link.src)].append(link)
        return table

    def association_links(self, client: int, ap: int) -> List[Link]:
        """Both directions of one association, downlink first (the
        same relative order :meth:`from_topology` seeds)."""
        return [Link(ap, client), Link(client, ap)]

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: ControllerEvent) -> StateDelta:
        """Fold one event in; returns the dirty region it created."""
        if isinstance(event, QueueUpdate):
            return self._apply_queue(event)
        if isinstance(event, RssDelta):
            return self._apply_rss(event)
        if isinstance(event, Associate):
            return self._apply_associate(event)
        if isinstance(event, Disassociate):
            return self._apply_disassociate(event)
        raise TypeError(f"not a controller event: {event!r}")

    def _apply_queue(self, event: QueueUpdate) -> StateDelta:
        link = Link(event.src, event.dst)
        if link not in self.queues:
            # Reports racing a disassociation arrive for links that no
            # longer exist; they are stale by definition.
            return StateDelta(ignored_events=1)
        self.queues[link] = max(0.0, float(event.backlog))
        return StateDelta(queue_events=1)

    def _apply_rss(self, event: RssDelta) -> StateDelta:
        if not 0 <= event.node < self.n_nodes:
            return StateDelta(ignored_events=1)
        if not event.rss_to and not event.rss_from:
            return StateDelta(ignored_events=1)
        return StateDelta(
            rss_writes=[(event.node, event.rss_to, event.rss_from)],
            dirty_nodes={event.node})

    def _apply_associate(self, event: Associate) -> StateDelta:
        client, ap = event.client, event.ap
        if ap not in self._ap_set:
            return StateDelta(ignored_events=1)
        if client in self._ap_set or client >= self.n_nodes or client < 0:
            return StateDelta(ignored_events=1)
        delta = StateDelta(dirty_nodes={client})
        if client in self.clients:
            # Roaming: tear down the old association first.
            delta.merge(self._apply_disassociate(
                Disassociate(t_us=event.t_us, client=client)))
            delta.dirty_nodes.add(client)
        delta.rss_writes.append((client, event.rss_to, event.rss_from))
        self.clients[client] = ap
        for link in self.association_links(client, ap):
            if link not in self.queues:
                self.links.append(link)
                self.queues[link] = 0.0
                delta.added_links.append(link)
        return delta

    def _apply_disassociate(self, event: Disassociate) -> StateDelta:
        client = event.client
        ap = self.clients.pop(client, None)
        if ap is None:
            return StateDelta(ignored_events=1)
        gone = [link for link in self.links
                if client in (link.src, link.dst)]
        if gone:
            gone_set = set(gone)
            self.links = [l for l in self.links if l not in gone_set]
            for link in gone:
                self.queues.pop(link, None)
        return StateDelta(dirty_nodes={client}, removed_links=gone)
