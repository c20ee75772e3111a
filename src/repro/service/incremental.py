"""The incremental recomputation engine behind the controller service.

One :class:`IncrementalController` owns the live control plane — the
interference map, conflict graph, fairness scheduler, converter and
conversion cache — and keeps all of it consistent under a stream of
state deltas without rebuilding from scratch:

* RSS changes at node *n* purge trigger verdicts touching *n* and
  re-test only conflict-graph edges incident to *n*'s links (the
  conflict test's read-set is confined to the two links' endpoints,
  so nothing else can flip);
* membership changes splice links in and out of the graph, the
  fairness queue, the retained connector and the fake-candidate
  order;
* the conversion cache is *refined*, not flushed: entries whose
  replay provably cannot diverge migrate to the new topology key
  (:meth:`~repro.core.converter.ScheduleConverter.revalidate_cache`),
  so untouched chains keep replaying from cache.

:meth:`full_recompute` is the oracle's reference path: a from-scratch
rebuild of every structure at the same stream position, sharing
*values* but no mutable state with the live path.  Its digest must
equal the incremental revision's digest, always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.conversion_cache import ConversionCache, conversion_topology_key
from ..core.converter import ConverterConfig, ScheduleConverter
from ..core.relative_schedule import RelativeBatch, TriggerDuty
from ..topology.interference_map import InterferenceMap
from ..sched.rand_scheduler import RandScheduler
from ..telemetry.wallclock import perf_counter
from ..topology.conflict_graph import (ConflictDelta, build_conflict_graph,
                                       update_conflict_graph)
from ..topology.links import Link
from ..topology.propagation import matrix_rss_fn
from .events import ControllerEvent
from .revision import ScheduleRevision, batch_digest
from .state import NetworkState, StateDelta


@dataclass
class ServiceConfig:
    """Knobs of the online controller (engine + debouncing)."""

    batch_slots: int = 12
    demand_cap: int = 12
    poll_every_batch: bool = True
    converter: ConverterConfig = field(default_factory=ConverterConfig)
    #: Max controller events folded into one revision epoch.
    debounce_events: int = 64
    #: Virtual-time window: an epoch also closes when the next event
    #: is further than this from the epoch's first event.
    epoch_gap_us: float = 2_000.0
    #: Time each revision phase (membership reconciliation, conflict
    #: re-test, cache revalidation, conversion, digest) and attach the
    #: wall-clock breakdown to every :class:`ScheduleRevision`.  Off by
    #: default: with it on, a recorded trace gains ``revision_phases``
    #: events whose durations vary run to run (schema v5 note).
    phase_timing: bool = False


@dataclass
class AppliedDelta:
    """What one epoch's worth of events did to the control plane."""

    events: int = 0
    state: StateDelta = field(default_factory=StateDelta)
    dirty_links: List[Link] = field(default_factory=list)
    conflict: Optional[ConflictDelta] = None
    cache_kept: int = 0
    cache_evicted: int = 0
    connector_purged: int = 0
    trigger_purged: int = 0
    #: Wall-clock phase durations in microseconds (phase timing only):
    #: ``membership_us`` / ``conflict_us`` / ``cache_us``.
    phases: Optional[Dict[str, float]] = None

    @property
    def n_dirty_links(self) -> int:
        return len(self.dirty_links)


class IncrementalController:
    """Live control plane with dirty-region maintenance."""

    def __init__(self, state: NetworkState,
                 config: Optional[ServiceConfig] = None):
        self.state = state
        self.config = config if config is not None else ServiceConfig()
        self.imap = InterferenceMap(matrix_rss_fn(state.rss), state.profile,
                                    margin_db=3.0)
        self.graph = build_conflict_graph(self.imap, state.links)
        self.scheduler = RandScheduler(self.graph, state.links, imap=self.imap)
        self.cache = ConversionCache(self._topology_key())
        self.converter = ScheduleConverter(
            self.imap, self.graph, fake_candidates=list(state.links),
            config=self.config.converter, cache=self.cache)
        self.version = 0
        #: Cumulative pairwise conflict tests actually run incrementally
        #: (a full rebuild would run ``len(links) choose 2`` per epoch).
        self.conflict_checks = 0
        self.full_recomputes = 0

    def _topology_key(self) -> str:
        return conversion_topology_key(self.state.rss, self.state.links,
                                       self.config.converter)

    # ------------------------------------------------------------------
    # Incremental path
    # ------------------------------------------------------------------
    def apply_events(self, events: Iterable[ControllerEvent]) -> AppliedDelta:
        """Fold events into the state, then patch every structure."""
        timing = self.config.phase_timing
        applied = AppliedDelta()
        if timing:
            applied.phases = {"membership_us": 0.0, "conflict_us": 0.0,
                              "cache_us": 0.0}
        for event in events:
            applied.state.merge(self.state.apply(event))
            applied.events += 1
        delta = applied.state
        if not delta.topology_dirty:
            return applied

        t0 = perf_counter() if timing else 0.0

        # 1. Trigger-verdict cache: purge everything touching a moved
        #    or (dis)appeared node.
        applied.trigger_purged = self.imap.invalidate_nodes(
            delta.dirty_nodes)

        # 2. Membership: graph vertices, fairness queue, connector.
        #    Reconcile against *final* membership — a join+leave (or
        #    leave+rejoin) inside one epoch lands in both lists, and
        #    only the net effect may touch the live structures.
        live = set(self.state.links)
        removed = [l for l in delta.removed_links if l not in live]
        added = [l for l in delta.added_links if l in live]
        if removed:
            self.scheduler.remove_links(removed)
            self.graph.remove_nodes_from(removed)
            applied.connector_purged = self.converter.purge_links(removed)
        if added:
            self.graph.add_nodes_from(added)
            self.scheduler.add_links(added)

        t1 = perf_counter() if timing else 0.0

        # 3. Conflict edges incident to the dirty region only.
        dirty_links = [link for link in self.state.links
                       if link.src in delta.dirty_nodes
                       or link.dst in delta.dirty_nodes]
        applied.dirty_links = dirty_links
        applied.conflict = update_conflict_graph(
            self.graph, self.imap, self.state.links, dirty_links)
        self.conflict_checks += applied.conflict.checked

        t2 = perf_counter() if timing else 0.0

        # 4. Fake candidates follow the universe order.
        self.converter.fake_candidates = list(self.state.links)

        # 5. Conversion cache: migrate what provably cannot diverge.
        stale = set(dirty_links) | set(delta.removed_links)
        applied.cache_kept, applied.cache_evicted = (
            self.converter.revalidate_cache(
                self._topology_key(), stale, delta.dirty_nodes,
                changed_pairs=applied.conflict.pairs))

        if timing and applied.phases is not None:
            t3 = perf_counter()
            applied.phases["membership_us"] = (t1 - t0) * 1e6
            applied.phases["conflict_us"] = (t2 - t1) * 1e6
            applied.phases["cache_us"] = (t3 - t2) * 1e6
        return applied

    def revise(self, t_us: float, epoch: int,
               applied: AppliedDelta) -> ScheduleRevision:
        """Produce the next schedule revision from current state."""
        timing = self.config.phase_timing
        hits_before = self.cache.hits
        t0 = perf_counter() if timing else 0.0
        batch = self._convert_once(self.scheduler, self.converter)
        # Optimistic decrement of what this batch will serve (the
        # batch controller does the same between queue reports).
        for slot in batch.slots:
            for entry in slot.entries:
                backlog = self.state.queues.get(entry.link)
                if backlog is not None:
                    self.state.queues[entry.link] = max(0.0, backlog - 1.0)
        self.version += 1
        t1 = perf_counter() if timing else 0.0
        digest = batch_digest(batch)
        phases: Optional[Dict[str, float]] = None
        if timing:
            t2 = perf_counter()
            phases = dict(applied.phases) if applied.phases else {
                "membership_us": 0.0, "conflict_us": 0.0, "cache_us": 0.0}
            phases["convert_us"] = (t1 - t0) * 1e6
            phases["digest_us"] = (t2 - t1) * 1e6
            phases["total_us"] = sum(phases.values())
        return ScheduleRevision(
            version=self.version, epoch=epoch, t_us=t_us, batch=batch,
            digest=digest, events=applied.events,
            dirty_links=applied.n_dirty_links,
            cache_hit=self.cache.hits > hits_before,
            phases=phases)

    # ------------------------------------------------------------------
    # Reference path (the equality oracle's from-scratch recompute)
    # ------------------------------------------------------------------
    def full_recompute(self) -> Tuple[RelativeBatch, str]:
        """From-scratch preview of the next revision; state untouched.

        Rebuilds the interference map, conflict graph, scheduler (from
        the live fairness order) and converter (forked connector and
        counters, no cache), then converts exactly the inputs
        :meth:`revise` would.  Queues are read, never decremented, and
        nothing live is mutated — call it *before* :meth:`revise` and
        compare digests.
        """
        state = self.state
        imap = InterferenceMap(matrix_rss_fn(state.rss), state.profile,
                               margin_db=3.0)
        graph = build_conflict_graph(imap, state.links)
        scheduler = RandScheduler(graph, self.scheduler.queue, imap=imap)
        converter = self.converter.fork_preview(
            imap, graph, fake_candidates=list(state.links))
        self.full_recomputes += 1
        batch = self._convert_once(scheduler, converter)
        return batch, batch_digest(batch)

    def preview_digest(self) -> str:
        return self.full_recompute()[1]

    # ------------------------------------------------------------------
    # Shared conversion recipe
    # ------------------------------------------------------------------
    def _demands(self) -> Dict[Link, int]:
        cap = self.config.demand_cap
        return {
            link: min(cap, int(math.ceil(backlog)))
            for link, backlog in self.state.queues.items()
            if backlog >= 1.0
        }

    def _convert_once(self, scheduler: RandScheduler,
                      converter: ScheduleConverter) -> RelativeBatch:
        strict = scheduler.schedule_batch(
            self._demands(), max_slots=self.config.batch_slots)
        while len(strict) < self.config.batch_slots:
            strict.append([])
        rop_aps = (list(self.state.aps)
                   if self.config.poll_every_batch else [])
        batch = converter.convert(strict, rop_aps=rop_aps,
                                  ap_links=self.state.ap_links())
        if batch.initial:
            self._synthesize_initial_duties(batch)
        return batch

    def _synthesize_initial_duties(self, batch: RelativeBatch) -> None:
        """First-batch bootstrap, as in the batch controller: uplink
        entries in the first slot get their AP to broadcast the
        client's signature one slot earlier."""
        if not batch.slots:
            return
        first = batch.slots[0]
        for entry in first.entries:
            sender = entry.link.src
            if sender not in self.state.clients:
                continue
            ap_id = self.state.clients[sender]
            key = (ap_id, first.index - 1)
            existing = batch.duties.get(key)
            targets = (existing.targets | {sender}) if existing \
                else frozenset({sender})
            batch.duties[key] = TriggerDuty(
                node=ap_id, slot=first.index - 1, targets=targets)
