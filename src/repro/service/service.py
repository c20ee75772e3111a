"""The asyncio controller daemon and its deterministic twin.

Two ways to drive the same epoch processor:

* :meth:`ControllerService.run` — the live asyncio loop: events
  arrive through :meth:`submit`, each epoch drains whatever is queued
  (bounded by ``debounce_events`` and the virtual-time
  ``epoch_gap_us`` window), revises, and fans the revision out to
  subscribers.
* :meth:`ControllerService.run_events` — the replayable-scenario
  driver: the same debouncing applied synchronously to a pre-sorted
  event list, so epoch boundaries — and therefore every revision
  digest and trace record — are a pure function of the scenario.

Latency discipline: wall-clock timing wraps only the *incremental*
path (apply + revise).  The equality oracle's from-scratch recompute,
when enabled, runs outside the timed window — it is harness
machinery, not service work.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Sequence)

from .. import telemetry
from ..telemetry.ops import FlightRecorder, SloTracker
from ..telemetry.wallclock import perf_counter
from .events import ControllerEvent
from .incremental import IncrementalController
from .revision import RevisionRecord, ScheduleRevision, percentiles_ms

#: How many recent revisions a service keeps.  The history holds
#: batch-free :class:`RevisionRecord` objects (version, digest,
#: counters, phases): a batch lives only as long as a callback or
#: subscriber holds its :class:`ScheduleRevision`, so the history's
#: memory does not grow with the revisions the service has made.
KEEP_REVISIONS = 1024


class OracleMismatch(AssertionError):
    """An incremental revision diverged from the from-scratch digest."""


@dataclass
class ServiceStats:
    """End-of-run summary of one service run."""

    revisions: int
    epochs: int
    events: int
    ignored_events: int
    revision_p50_ms: float
    revision_p99_ms: float
    revision_mean_ms: float
    incremental_hit_rate: float
    conflict_checks: int
    oracle_checks: int
    last_digest: str

    def render(self) -> str:
        lines = [
            f"revisions          {self.revisions}",
            f"epochs             {self.epochs}",
            f"events             {self.events}"
            + (f" ({self.ignored_events} ignored)"
               if self.ignored_events else ""),
            f"revision p50       {self.revision_p50_ms:.3f} ms",
            f"revision p99       {self.revision_p99_ms:.3f} ms",
            f"revision mean      {self.revision_mean_ms:.3f} ms",
            f"cache hit rate     {self.incremental_hit_rate:.3f}",
            f"conflict checks    {self.conflict_checks}",
        ]
        if self.oracle_checks:
            lines.append(f"oracle checks      {self.oracle_checks} "
                         "(all digests equal)")
        if self.last_digest:
            lines.append(f"last digest        {self.last_digest[:12]}")
        return "\n".join(lines)


class ControllerService:
    """Long-running controller: event stream in, revisions out."""

    def __init__(self, engine: IncrementalController,
                 check_every: int = 0,
                 slo: Optional[SloTracker] = None,
                 flight: Optional[FlightRecorder] = None):
        self.engine = engine
        #: Every ``check_every``-th epoch is verified against a
        #: from-scratch recompute (0 disables; 1 checks every epoch).
        self.check_every = check_every
        #: Live SLO judge (optional): fed every revision latency and
        #: every oracle verdict; a ``slo_p99`` breach also triggers the
        #: flight recorder, when armed.
        self.slo = slo
        #: Flight recorder (optional): dumps the trace-ring tail on
        #: oracle mismatch or SLO breach.
        self.flight = flight
        self._trace = telemetry.current()
        self._inbox: "asyncio.Queue[Optional[ControllerEvent]]" = \
            asyncio.Queue()
        self._subscribers: List["asyncio.Queue[ScheduleRevision]"] = []
        self._callbacks: List[Callable[[ScheduleRevision], None]] = []
        self._pending: Optional[ControllerEvent] = None
        self._closing = False
        self._epoch = 0
        self._events_seen = 0
        self._ignored = 0
        self._oracle_checks = 0
        self._oracle_failed = False
        self._last_event_id: Optional[int] = None
        self.latencies_ms: List[float] = []
        #: Records of the most recent revisions, at most
        #: ``KEEP_REVISIONS``; none holds a batch.
        self.revisions: Deque[RevisionRecord] = collections.deque(
            maxlen=KEEP_REVISIONS)

    # ------------------------------------------------------------------
    # Epoch processing (shared by both drivers)
    # ------------------------------------------------------------------
    def _process_epoch(self,
                       events: Sequence[ControllerEvent]) -> ScheduleRevision:
        engine = self.engine
        t0 = perf_counter()
        applied = engine.apply_events(events)
        apply_s = perf_counter() - t0

        expected: Optional[str] = None
        if self.check_every and self._epoch % self.check_every == 0:
            expected = engine.preview_digest()
            self._oracle_checks += 1

        t1 = perf_counter()
        revision = engine.revise(t_us=events[-1].t_us, epoch=self._epoch,
                                 applied=applied)
        latency_ms = (apply_s + (perf_counter() - t1)) * 1_000.0

        revision = dataclasses.replace(revision, latency_ms=latency_ms)
        self._epoch += 1
        self._events_seen += applied.events
        self._ignored += applied.state.ignored_events
        self.latencies_ms.append(latency_ms)
        self.revisions.append(RevisionRecord(
            revision.version, revision.epoch, revision.t_us,
            revision.digest, revision.events, revision.dirty_links,
            revision.cache_hit, revision.full, latency_ms, revision.phases))

        # The trace records are written *before* the oracle verdict so
        # a flight-recorder dump triggered by a mismatch ends with the
        # mismatched epoch's own sched_revision event.
        tel = self._trace
        if tel.enabled:
            self._last_event_id = tel.sched_revision(
                revision.t_us, version=revision.version,
                epoch=revision.epoch, events=revision.events,
                dirty=revision.dirty_links, full=revision.full,
                digest=revision.trace_digest,
                batch=revision.batch.batch_id, cause=self._last_event_id)
            tel.metrics.histogram("service.revision_ms").observe(latency_ms)
            tel.metrics.counter("service.revisions").inc()
            tel.metrics.counter("service.events").inc(revision.events)
            tel.metrics.gauge("service.dirty_links").set(
                revision.dirty_links)
            if revision.phases is not None:
                phases = revision.phases
                tel.revision_phases(
                    revision.t_us, version=revision.version,
                    epoch=revision.epoch,
                    membership_us=phases["membership_us"],
                    conflict_us=phases["conflict_us"],
                    cache_us=phases["cache_us"],
                    convert_us=phases["convert_us"],
                    digest_us=phases["digest_us"],
                    total_us=phases["total_us"],
                    cause=self._last_event_id)
                for phase, micros in phases.items():
                    name = "service.phase." + phase[:-3] + "_ms"
                    tel.metrics.histogram(name).observe(micros / 1_000.0)
        for queue in self._subscribers:
            queue.put_nowait(revision)
        for callback in self._callbacks:
            callback(revision)

        if self.slo is not None:
            alert = self.slo.observe_latency(latency_ms,
                                             epoch=revision.epoch)
            if alert is not None and self.flight is not None:
                self.flight.dump("slo_breach", {
                    "rule": alert.rule, "epoch": revision.epoch,
                    "value": alert.value, "threshold": alert.threshold})

        if expected is not None:
            ok = revision.digest == expected
            if self.slo is not None:
                self.slo.record_oracle(ok, epoch=revision.epoch)
            if not ok:
                self._oracle_failed = True
                if self.flight is not None:
                    self.flight.dump("oracle_mismatch", {
                        "epoch": revision.epoch,
                        "version": revision.version,
                        "expected_digest": expected[:12],
                        "actual_digest": revision.trace_digest})
                raise OracleMismatch(
                    f"revision {revision.version} "
                    f"(epoch {revision.epoch}): "
                    f"incremental digest {revision.digest[:12]} != "
                    f"from-scratch {expected[:12]}")
        return revision

    def _take_epoch(self, events: Sequence[ControllerEvent],
                    start: int) -> int:
        """How many events from ``start`` fall into one epoch."""
        config = self.engine.config
        first_t = events[start].t_us
        count = 1
        while (start + count < len(events)
               and count < config.debounce_events
               and events[start + count].t_us - first_t
               <= config.epoch_gap_us):
            count += 1
        return count

    # ------------------------------------------------------------------
    # Deterministic replay driver
    # ------------------------------------------------------------------
    def run_events(self,
                   events: Iterable[ControllerEvent]) -> ServiceStats:
        """Replay a scenario: debounce purely on virtual time."""
        ordered = sorted(events, key=lambda e: e.t_us)
        index = 0
        while index < len(ordered):
            count = self._take_epoch(ordered, index)
            self._process_epoch(ordered[index:index + count])
            index += count
        return self.stats()

    # ------------------------------------------------------------------
    # Live asyncio driver
    # ------------------------------------------------------------------
    async def submit(self, event: ControllerEvent) -> None:
        await self._inbox.put(event)

    async def close(self) -> None:
        """Ask :meth:`run` to drain the inbox and return."""
        await self._inbox.put(None)

    def subscribe(self) -> "asyncio.Queue[ScheduleRevision]":
        """A queue receiving every future revision."""
        queue: "asyncio.Queue[ScheduleRevision]" = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    def on_revision(self,
                    callback: Callable[[ScheduleRevision], None]) -> None:
        """``callback`` runs synchronously after every revision.

        Unlike :meth:`subscribe` this needs no event loop, so the
        deterministic replay driver can host periodic side work (e.g.
        rendering the metrics exporter) between epochs.
        """
        self._callbacks.append(callback)

    # ------------------------------------------------------------------
    # Live introspection (the ops endpoint's providers)
    # ------------------------------------------------------------------
    def healthy(self) -> bool:
        """``/healthz`` verdict: no oracle mismatch so far."""
        return not self._oracle_failed

    def status(self) -> Dict[str, Any]:
        """JSON-ready run state for ``/statusz``."""
        engine = self.engine
        status: Dict[str, Any] = {
            "epoch": self._epoch,
            "revision_version": engine.version,
            "queue_depth": self._inbox.qsize(),
            "events": self._events_seen,
            "ignored_events": self._ignored,
            "revisions": len(self.latencies_ms),
            "oracle_checks": self._oracle_checks,
            "oracle_failed": self._oracle_failed,
            "conflict_checks": engine.conflict_checks,
            "cache": {
                "hits": engine.cache.hits,
                "misses": engine.cache.misses,
                "hit_rate": round(engine.cache.hit_rate, 4),
                "rejects": dict(engine.cache.reject_counts),
            },
            "last_digest": (self.revisions[-1].trace_digest
                            if self.revisions else ""),
        }
        if self.slo is not None:
            status["slo"] = self.slo.status()
        if self.flight is not None:
            status["flight_dumps"] = list(self.flight.dumps)
        return status

    async def run(self) -> ServiceStats:
        """Consume the inbox until :meth:`close`; one epoch per drain.

        Debouncing is the same virtual-time rule as the replay driver,
        applied to whatever is queued at the moment an epoch starts —
        batching therefore depends on producer/consumer interleaving
        (this is the live mode; replays wanting exact reproducibility
        use :meth:`run_events`).
        """
        config = self.engine.config
        while not (self._closing and self._pending is None
                   and self._inbox.empty()):
            first = self._pending
            self._pending = None
            if first is None:
                first = await self._inbox.get()
                if first is None:
                    self._closing = True
                    continue
            epoch: List[ControllerEvent] = [first]
            while len(epoch) < config.debounce_events:
                try:
                    nxt = self._inbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    self._closing = True
                    break
                if nxt.t_us - epoch[0].t_us > config.epoch_gap_us:
                    self._pending = nxt
                    break
                epoch.append(nxt)
            self._process_epoch(epoch)
            # Let producers run between epochs.
            await asyncio.sleep(0)
        return self.stats()

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        p50, p99 = percentiles_ms(self.latencies_ms)
        mean = (sum(self.latencies_ms) / len(self.latencies_ms)
                if self.latencies_ms else 0.0)
        return ServiceStats(
            revisions=len(self.latencies_ms),
            epochs=self._epoch,
            events=self._events_seen,
            ignored_events=self._ignored,
            revision_p50_ms=p50,
            revision_p99_ms=p99,
            revision_mean_ms=mean,
            incremental_hit_rate=self.engine.cache.hit_rate,
            conflict_checks=self.engine.conflict_checks,
            oracle_checks=self._oracle_checks,
            last_digest=(self.revisions[-1].digest
                         if self.revisions else ""),
        )
