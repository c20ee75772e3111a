"""Acceptance criterion: incremental >= 5x full recompute.

At 40 nodes (T(10, 3)) under single-link RSS deltas, one incremental
revision (apply + revise) must run at least five times faster than a
from-scratch recompute of the same state.  Measured as totals over a
30-event stream so one scheduler hiccup cannot decide the verdict;
every compared pair is also digest-checked, so the speedup is over
*provably identical* outputs, and the pairwise conflict tests each
revision runs are counted exactly beside the wall-time ratio.
"""

import gc
import time

import pytest

from repro.service import (IncrementalController, NetworkState,
                           ServiceConfig, link_rss_wobble)
from repro.topology.builder import random_t_topology

MIN_SPEEDUP = 5.0
UPDATES = 30


def quiet_client(engine, revision):
    """A client whose links sit outside the steady-state template.

    Single-link deltas on a *scheduled* link genuinely change the
    next batch (the cache rightly reconverts); the acceptance
    criterion is about the common case — drift on one of the many
    links the current schedule does not carry.
    """
    template = {e.link for slot in revision.batch.slots
                for e in slot.entries}
    for client in sorted(engine.state.clients):
        if not any(client in (l.src, l.dst) for l in template):
            return client
    raise AssertionError("every client scheduled; topology too small")


@pytest.fixture
def frozen_heap():
    """Keep objects left by earlier tests out of timed collections.

    In a full test run the process holds a large heap from earlier
    tests.  One full collection over it costs about as much as the
    whole incremental side, and lands on whichever side happens to
    cross the allocation threshold.  Frozen, that heap is never
    scanned; each side still pays for collecting its own garbage.
    """
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def test_single_link_delta_speedup_at_forty_nodes(frozen_heap):
    topology = random_t_topology(10, 3, seed=1)
    state = NetworkState.from_topology(topology)
    assert state.n_nodes == 40
    engine = IncrementalController(state, ServiceConfig())
    warmup = engine.revise(0.0, 0, engine.apply_events([]))
    client = quiet_client(engine, warmup)
    events = link_rss_wobble(NetworkState.from_topology(topology),
                             client=client, updates=UPDATES,
                             gap_us=5_000.0, jitter_db=0.75)

    incremental_s = full_s = 0.0
    for i, event in enumerate(events):
        t0 = time.perf_counter()
        applied = engine.apply_events([event])
        apply_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        _batch, expected = engine.full_recompute()
        full_s += time.perf_counter() - t0

        t0 = time.perf_counter()
        revision = engine.revise(event.t_us, i + 1, applied)
        incremental_s += apply_s + time.perf_counter() - t0

        assert revision.digest == expected, f"oracle mismatch at {i}"
        assert applied.n_dirty_links == 2  # exactly the client's pair
        # Deterministic cost of the incremental side: both dirty links
        # against every other link, their own pair once (117 at 60).
        assert applied.conflict.checked == 2 * len(engine.state.links) - 3

    speedup = full_s / incremental_s
    assert engine.cache.hits > engine.cache.misses, (
        "single-link deltas should mostly replay from cache",
        engine.cache.hits, engine.cache.misses)
    assert speedup >= MIN_SPEEDUP, (
        f"incremental {incremental_s * 1e3:.1f} ms vs "
        f"full {full_s * 1e3:.1f} ms = {speedup:.2f}x "
        f"(hits={engine.cache.hits} misses={engine.cache.misses})")
