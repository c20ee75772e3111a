"""Acceptance criterion: incremental >= 5x full recompute.

At 40 nodes (T(10, 3)) under single-link RSS deltas, one incremental
revision must do at most a fifth of the pairwise conflict tests a
from-scratch recompute of the same state does.  Both sides are exact
counts: the incremental side's ``applied.conflict.checked`` and the
calls a full recompute makes to ``InterferenceMap.conflicts`` (every
link pair once).  Every compared pair is also digest-checked, so the
saving is over *provably identical* outputs.  Counts, unlike wall
times, do not move with the load of the machine that runs them.
"""

from repro.service import (IncrementalController, NetworkState,
                           ServiceConfig, link_rss_wobble)
from repro.topology.builder import random_t_topology
from repro.topology.interference_map import InterferenceMap

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


def test_single_link_delta_speedup_at_forty_nodes(monkeypatch):
    topology = random_t_topology(10, 3, seed=1)
    state = NetworkState.from_topology(topology)
    assert state.n_nodes == 40
    engine = IncrementalController(state, ServiceConfig())
    warmup = engine.revise(0.0, 0, engine.apply_events([]))
    client = quiet_client(engine, warmup)
    events = link_rss_wobble(NetworkState.from_topology(topology),
                             client=client, updates=UPDATES,
                             gap_us=5_000.0, jitter_db=0.75)

    full_checks = 0
    conflicts = InterferenceMap.conflicts

    def counted(imap, l1, l2):
        nonlocal full_checks
        full_checks += 1
        return conflicts(imap, l1, l2)

    n_links = len(engine.state.links)
    assert n_links == 60
    incremental_checks = 0
    for i, event in enumerate(events):
        applied = engine.apply_events([event])

        before = full_checks
        with monkeypatch.context() as patch:
            patch.setattr(InterferenceMap, "conflicts", counted)
            _batch, expected = engine.full_recompute()
        # A from-scratch conflict graph tests every link pair once
        # (1770 at 60 links).
        assert full_checks - before == n_links * (n_links - 1) // 2

        revision = engine.revise(event.t_us, i + 1, applied)
        assert revision.digest == expected, f"oracle mismatch at {i}"
        assert applied.n_dirty_links == 2  # exactly the client's pair
        # Incremental side: both dirty links against every other link,
        # their own pair once (117 at 60).
        assert applied.conflict.checked == 2 * n_links - 3
        incremental_checks += applied.conflict.checked

    assert engine.cache.hits > engine.cache.misses, (
        "single-link deltas should mostly replay from cache",
        engine.cache.hits, engine.cache.misses)
    speedup = full_checks / incremental_checks
    assert speedup >= MIN_SPEEDUP, (
        f"incremental {incremental_checks} vs full {full_checks} "
        f"conflict tests = {speedup:.2f}x")
