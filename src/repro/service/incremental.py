"""The incremental recomputation engine behind the controller service.

One :class:`IncrementalController` folds each epoch of events into the
:class:`~repro.service.state.NetworkState` and hands the dirty region
to its :class:`~repro.core.control_plane.ControlPlane`, which patches
trigger verdicts, conflict edges incident to the dirty links (the
conflict test reads only the two links' endpoints), membership and
the conversion cache in place, never rebuilding from scratch.

:meth:`full_recompute` is the oracle's reference path: the next batch
through :meth:`~repro.core.control_plane.ControlPlane.fork`, a
from-scratch plane at the same stream position that shares *values*
but no mutable state with the live path.  Its digest must equal the
incremental revision's digest, always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.control_plane import ControlPlane, Lap
from ..core.conversion_cache import ConversionCache
from ..core.converter import ConverterConfig
from ..core.relative_schedule import RelativeBatch
from ..telemetry.wallclock import perf_counter
from ..topology.conflict_graph import ConflictDelta
from ..topology.links import Link
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
        self.plane = ControlPlane(
            state.rss, state.profile, state.links, self.config.converter,
            batch_slots=self.config.batch_slots,
            demand_cap=self.config.demand_cap)
        self.version = 0
        #: Cumulative pairwise conflict tests actually run incrementally
        #: (a full rebuild would run ``len(links) choose 2`` per epoch).
        self.conflict_checks = 0

    @property
    def cache(self) -> ConversionCache:
        """The live plane's conversion cache (only a fork runs without)."""
        cache = self.plane.cache
        assert cache is not None
        return cache

    # ------------------------------------------------------------------
    # Incremental path
    # ------------------------------------------------------------------
    def apply_events(self, events: Iterable[ControllerEvent]) -> AppliedDelta:
        """Fold events into the state, then patch every structure."""
        applied = AppliedDelta()
        if self.config.phase_timing:
            applied.phases = {"membership_us": 0.0, "conflict_us": 0.0,
                              "cache_us": 0.0}
        for event in events:
            applied.state.merge(self.state.apply(event))
            applied.events += 1
        delta = applied.state
        if not delta.topology_dirty:
            return applied
        lap = None if applied.phases is None else _lap_timer(applied.phases)
        applied.dirty_links, conflict = self.plane.update(
            self.state.links, delta.dirty_nodes, delta.added_links,
            delta.removed_links, lap=lap)
        applied.conflict = conflict
        self.conflict_checks += conflict.checked
        return applied

    def revise(self, t_us: float, epoch: int,
               applied: AppliedDelta) -> ScheduleRevision:
        """Produce the next schedule revision from current state."""
        timing = self.config.phase_timing
        cache = self.cache
        hits_before = cache.hits
        t0 = perf_counter() if timing else 0.0
        batch = self._next_batch(self.plane, self.state.queues)
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
            cache_hit=cache.hits > hits_before,
            phases=phases)

    # ------------------------------------------------------------------
    # Reference path (the equality oracle's from-scratch recompute)
    # ------------------------------------------------------------------
    def full_recompute(self) -> Tuple[RelativeBatch, str]:
        """From-scratch preview of the next revision; state untouched.

        Converts exactly the inputs :meth:`revise` would through a
        :meth:`~repro.core.control_plane.ControlPlane.fork` (fresh map
        and graph, live fairness order, forked converter, no cache),
        over a copy of the queues — call it *before* :meth:`revise` and
        compare digests.
        """
        batch = self._next_batch(self.plane.fork(), dict(self.state.queues))
        return batch, batch_digest(batch)

    def preview_digest(self) -> str:
        return self.full_recompute()[1]

    def _next_batch(self, plane: ControlPlane,
                    queues: Dict[Link, float]) -> RelativeBatch:
        state = self.state
        return plane.next_batch(
            queues, state.aps if self.config.poll_every_batch else [],
            state.ap_links(), state.clients)


def _lap_timer(phases: Dict[str, float]) -> Lap:
    """A phase-boundary callback that writes each phase's wall-clock
    duration, in microseconds, into ``phases``."""
    mark = perf_counter()

    def lap(phase: str) -> None:
        nonlocal mark
        now = perf_counter()
        phases[phase] = (now - mark) * 1e6
        mark = now

    return lap
