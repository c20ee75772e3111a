"""The DOMINO server's control plane (Sec. 3), maintained in place.

One :class:`ControlPlane` owns the interference map over a measured
RSS matrix, the link conflict graph, the RAND scheduler, the
conversion cache and the converter.  The simulator's controller and
the online service each hold one and build none of the five
themselves.  A service RSS delta and a Sec. 5 measurement campaign
are the same :meth:`~ControlPlane.update` call.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from ..sched.rand_scheduler import RandScheduler
from ..topology.conflict_graph import (ConflictDelta, add_vertices,
                                       build_conflict_graph, remove_vertices,
                                       update_conflict_graph)
from ..topology.interference_map import InterferenceMap
from ..topology.links import Link
from ..topology.propagation import matrix_rss_fn
from .conversion_cache import ConversionCache
from .converter import ConverterConfig, ScheduleConverter
from .relative_schedule import RelativeBatch, TriggerDuty

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependencies
    from ..sim.phy import PhyProfile
    from ..topology.builder import Topology

#: Phase-boundary callback of :meth:`ControlPlane.update`, called with
#: ``"membership_us"``, ``"conflict_us"`` and ``"cache_us"`` as each
#: phase ends.  The caller owns the clock.
Lap = Callable[[str], None]


def link_universe(topology: "Topology") -> List[Link]:
    """The flows, then every association direction (fake-link
    candidates), first occurrence kept: the fairness queue starts with
    real traffic."""
    return list(dict.fromkeys(
        list(topology.flows) + topology.all_association_links()))


class ControlPlane:
    """Map, conflict graph, scheduler, cache and converter as one unit.

    The map reads ``rss`` (tx row, rx column) live: callers write new
    measurements into it in place, then call :meth:`update`.
    """

    def __init__(self, rss: np.ndarray, profile: "PhyProfile",
                 links: Sequence[Link], converter: ConverterConfig,
                 batch_slots: int, demand_cap: int,
                 _parent: Optional["ControlPlane"] = None):
        self.rss = rss
        self.profile = profile
        self.links: List[Link] = list(links)
        self.batch_slots = batch_slots
        self.demand_cap = demand_cap
        self.imap = InterferenceMap(matrix_rss_fn(rss), profile,
                                    margin_db=3.0)
        self.graph = build_conflict_graph(self.imap, self.links)
        queue = self.links if _parent is None else _parent.scheduler.queue
        self.scheduler = RandScheduler(self.graph, queue, imap=self.imap)
        self.cache: Optional[ConversionCache] = None
        if _parent is None:
            self.cache = ConversionCache()
            self.converter = ScheduleConverter(
                self.imap, self.graph, fake_candidates=self.links,
                config=converter, cache=self.cache)
        else:
            self.converter = _parent.converter.fork_preview(
                self.imap, self.graph, fake_candidates=self.links)

    def fork(self) -> "ControlPlane":
        """The equality oracle's reference path: an uncached plane with
        a fresh map and graph over the same RSS values, the live
        fairness order and the converter at the same stream position.
        It only reads the shared RSS matrix and writes nothing this
        plane owns; hand its :meth:`next_batch` a copy of the queues."""
        return ControlPlane(self.rss, self.profile, self.links,
                            self.converter.config, self.batch_slots,
                            self.demand_cap, _parent=self)

    def update(self, links: Sequence[Link], dirty_nodes: Iterable[int],
               added: Sequence[Link] = (), removed: Sequence[Link] = (),
               lap: Optional[Lap] = None,
               ) -> Tuple[List[Link], ConflictDelta]:
        """Patch every structure around the dirty region.

        ``links`` is the new universe, ``dirty_nodes`` the nodes whose
        RSS was rewritten or whose membership changed, and
        ``added``/``removed`` the links that joined or left (one link
        may be in both within a debounce window).  Returns the dirty
        links and the conflict-graph delta.
        """
        dirty = frozenset(dirty_nodes)
        # 1. Trigger verdicts touching a moved or (dis)appeared node.
        self.imap.invalidate_nodes(dirty)
        # 2. Membership, reconciled against the *net* effect: graph
        #    vertices, fairness queue, retained connector.
        self.links = list(links)
        live = set(self.links)
        gone = [l for l in removed if l not in live]
        joined = [l for l in added if l in live]
        if gone:
            self.scheduler.remove_links(gone)
            remove_vertices(self.graph, gone)
            self.converter.purge_links(gone)
        if joined:
            add_vertices(self.graph, joined)
            self.scheduler.add_links(joined)
        if lap is not None:
            lap("membership_us")
        # 3. Conflict edges incident to the dirty region only.
        dirty_links = [link for link in self.links
                       if link.src in dirty or link.dst in dirty]
        conflict = update_conflict_graph(self.graph, self.imap, self.links,
                                         dirty_links)
        if lap is not None:
            lap("conflict_us")
        # 4. Fake candidates follow the universe order.  5. Cache
        #    entries stay iff they provably cannot diverge.
        self.converter.fake_candidates = list(self.links)
        self.converter.revalidate_cache(
            set(dirty_links) | set(removed), dirty,
            changed_pairs=conflict.pairs)
        if lap is not None:
            lap("cache_us")
        return dirty_links, conflict

    def demands(self, queues: Mapping[Link, float]) -> Dict[Link, int]:
        """Packets to schedule per backlogged link, capped per batch."""
        return {link: min(self.demand_cap, int(math.ceil(backlog)))
                for link, backlog in queues.items() if backlog >= 1.0}

    def next_batch(self, queues: Dict[Link, float], aps: Sequence[int],
                   ap_links: Dict[int, List[Link]],
                   client_ap: Mapping[int, int]) -> RelativeBatch:
        """Schedule, pad, convert and bootstrap the next batch.

        ``aps`` poll for uplink queues in this batch; ``queues`` is
        decremented in place by what the batch will serve.
        """
        strict = self.scheduler.schedule_batch(
            self.demands(queues), max_slots=self.batch_slots)
        # Empty slots become fake/polling skeleton slots, keeping the
        # chains alive under light load.
        while len(strict) < self.batch_slots:
            strict.append([])
        batch = self.converter.convert(strict, rop_aps=list(aps),
                                       ap_links=ap_links)
        if batch.initial and batch.slots:
            # First-batch bootstrap (Sec. 3.3): an uplink entry in the
            # first slot has no trigger, so the client's AP broadcasts
            # the client's signature one slot earlier.
            first = batch.slots[0]
            for entry in first.entries:
                sender = entry.link.src
                ap_id = client_ap.get(sender)
                if ap_id is None:
                    continue
                key = (ap_id, first.index - 1)
                existing = batch.duties.get(key)
                targets = (existing.targets | {sender}) if existing \
                    else frozenset({sender})
                batch.duties[key] = TriggerDuty(
                    node=ap_id, slot=first.index - 1, targets=targets)
        for slot in batch.slots:
            for entry in slot.entries:
                backlog = queues.get(entry.link)
                if backlog is not None:
                    queues[entry.link] = max(0.0, backlog - 1.0)
        return batch
