"""The revision history is bounded and keeps no batch alive.

The service hands every :class:`ScheduleRevision` (batch included) to
its callbacks and subscribers, but its own history keeps only
batch-free :class:`RevisionRecord` objects, at most
``KEEP_REVISIONS`` of them.  Once no consumer holds a revision, its
batch is garbage: the history's memory does not grow with the number
of revisions the service has made.
"""

import dataclasses
import gc
import weakref

from repro.core.relative_schedule import RelativeBatch
from repro.service import (ControllerService, IncrementalController,
                           NetworkState, RevisionRecord, ScheduleRevision,
                           ServiceConfig, link_rss_wobble)
from repro.service import service as service_module
from repro.topology.builder import fig7_topology

KEEP = 4
#: Gap past the default 2 ms debounce window: one event per epoch.
GAP_US = 5_000.0
EPOCHS = KEEP + 10


def test_history_is_bounded_and_drops_batches(monkeypatch):
    monkeypatch.setattr(service_module, "KEEP_REVISIONS", KEEP)
    topology = fig7_topology()
    events = link_rss_wobble(NetworkState.from_topology(topology),
                             client=1, updates=EPOCHS, gap_us=GAP_US)
    engine = IncrementalController(NetworkState.from_topology(topology),
                                   ServiceConfig())
    service = ControllerService(engine)
    batches = []

    def watch(revision):
        assert isinstance(revision, ScheduleRevision)
        assert isinstance(revision.batch, RelativeBatch)
        batches.append(weakref.ref(revision.batch))

    service.on_revision(watch)
    stats = service.run_events(events)
    gc.collect()

    assert stats.revisions == EPOCHS
    # The first batch fell out of the bounded window; the kept
    # records' batches are not held either.
    alive = [i for i, ref in enumerate(batches) if ref() is not None]
    assert alive == [], f"batches of revisions {alive} outlived them"
    assert len(service.revisions) == KEEP
    assert [r.version for r in service.revisions] == \
        list(range(EPOCHS - KEEP + 1, EPOCHS + 1))
    for record in service.revisions:
        assert type(record) is RevisionRecord
        assert not hasattr(record, "batch")
    newest = service.revisions[-1]
    assert stats.last_digest == service.stats().last_digest == newest.digest
    assert service.status()["last_digest"] == newest.trace_digest


def test_record_and_revision_share_one_field_list():
    record_fields = [f.name for f in dataclasses.fields(RevisionRecord)]
    revision_fields = [f.name for f in dataclasses.fields(ScheduleRevision)]
    assert revision_fields == record_fields + ["batch"]
