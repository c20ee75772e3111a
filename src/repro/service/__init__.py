"""Online controller service (ROADMAP item 3).

Everything below :mod:`repro.core` treats the control plane as one
static snapshot: RSS matrix in, schedule out, run.  This package is
the *system* view — a long-running controller consuming a typed event
stream (:class:`Associate` / :class:`Disassociate` / :class:`RssDelta`
/ :class:`QueueUpdate`), debouncing it into revision epochs, and
emitting versioned :class:`ScheduleRevision` objects.

Two properties carry the design:

* **Incrementality** — an epoch's revision recomputes only the dirty
  region: conflict-graph edges incident to touched links, trigger
  verdicts touching moved nodes, and conversion-cache entries whose
  replay could diverge (see
  :meth:`repro.core.converter.ScheduleConverter.revalidate_cache`).
* **Equality** — every incremental revision is byte-identical (by
  canonical digest, :func:`repro.service.revision.batch_digest`) to a
  from-scratch recompute of the same state; the churn harness asserts
  this for every epoch it checks.

This is deliberately *not* a sim package: revision latency here is
wall-clock by definition.  Trace events it emits (``sched_revision``)
carry only virtual event-stream time, so replayed scenarios still
trace deterministically.
"""

from .churn import (ChurnConfig, churn_events, link_rss_wobble,
                    mobility_events)
from .events import (Associate, ControllerEvent, Disassociate, QueueUpdate,
                     RssDelta, event_from_json, event_to_json)
from .incremental import (AppliedDelta, IncrementalController, ServiceConfig)
from .revision import RevisionRecord, ScheduleRevision, batch_digest
from .scenario import Scenario, build_scenario, load_scenario
from .service import ControllerService, OracleMismatch, ServiceStats
from .state import NetworkState, StateDelta

__all__ = [
    "Associate", "Disassociate", "RssDelta", "QueueUpdate",
    "ControllerEvent", "event_to_json", "event_from_json",
    "NetworkState", "StateDelta",
    "IncrementalController", "AppliedDelta", "ServiceConfig",
    "RevisionRecord", "ScheduleRevision", "batch_digest",
    "ControllerService", "OracleMismatch", "ServiceStats",
    "ChurnConfig", "churn_events", "link_rss_wobble", "mobility_events",
    "Scenario", "build_scenario", "load_scenario",
]
