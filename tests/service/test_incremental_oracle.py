"""The equality oracle: every incremental revision == from-scratch.

The churn harness drives the online controller through seeded event
streams with ``check_every=1``, so *every* epoch's incremental
revision digest is compared against a full recompute of the same
state.  A single mismatch raises :class:`OracleMismatch` and fails
the test — this is the subsystem's core acceptance criterion.
"""

import pytest

from repro.service import (Associate, ChurnConfig, ControllerService,
                           Disassociate, IncrementalController,
                           NetworkState, QueueUpdate, RssDelta,
                           ServiceConfig, churn_events)
from repro.topology.builder import fig7_topology, random_t_topology
from repro.topology.conflict_graph import build_conflict_graph


def run_checked(topology, updates, seed):
    state = NetworkState.from_topology(topology)
    events = churn_events(NetworkState.from_topology(topology),
                          ChurnConfig(updates=updates, seed=seed))
    engine = IncrementalController(state, ServiceConfig())
    service = ControllerService(engine, check_every=1)
    stats = service.run_events(events)
    assert stats.oracle_checks == stats.revisions > 0
    return engine, service, stats


def assert_graph_fresh(engine):
    """The incrementally maintained conflict graph must equal a
    from-scratch build over the final state."""
    fresh = build_conflict_graph(engine.plane.imap, engine.state.links)
    assert engine.plane.graph == fresh


class TestChurnOracle:
    def test_fig7_churn_every_epoch_checked(self):
        engine, service, stats = run_checked(fig7_topology(),
                                             updates=500, seed=3)
        assert stats.events == 500
        assert_graph_fresh(engine)
        versions = [r.version for r in service.revisions]
        assert versions == list(range(1, len(versions) + 1))

    def test_forty_node_churn_every_epoch_checked(self):
        engine, service, stats = run_checked(random_t_topology(10, 3, seed=2),
                                             updates=1500, seed=11)
        assert engine.state.n_nodes == 40
        assert stats.events == 1500
        assert_graph_fresh(engine)
        # Churn actually exercised every event kind.
        assert stats.ignored_events < stats.events

    def test_incremental_conflict_checks_stay_sublinear(self):
        """The whole point: per-epoch pair tests must be far below the
        full-rebuild count."""
        engine, service, stats = run_checked(random_t_topology(10, 3, seed=0),
                                             updates=800, seed=5)
        n_links = len(engine.state.links)
        full_per_epoch = n_links * (n_links - 1) // 2
        assert stats.revisions > 0
        # ~50 mixed events per epoch (incl. membership churn dirtying
        # whole clients) still re-tests well under half the pairs a
        # from-scratch rebuild would.
        assert (engine.conflict_checks
                < full_per_epoch * stats.revisions / 2)


class TestMembershipEdgeCases:
    @staticmethod
    def service_for(topology):
        engine = IncrementalController(NetworkState.from_topology(topology),
                                       ServiceConfig())
        return engine, ControllerService(engine, check_every=1)

    def test_leave_and_rejoin_in_one_epoch(self):
        engine, service = self.service_for(fig7_topology())
        service.run_events([
            Disassociate(t_us=0.0, client=1),
            Associate(t_us=10.0, client=1, ap=0,
                      rss_to={0: -40.0}, rss_from={0: -41.0}),
        ])
        assert 1 in engine.state.clients
        assert_graph_fresh(engine)

    def test_join_and_leave_in_one_epoch(self):
        """Net-removal within one debounce window: the links must not
        linger in the scheduler or the graph (regression: the removed
        list used to be replayed before the added list without
        reconciling)."""
        engine, service = self.service_for(fig7_topology())
        # Empty the cell first (separate epoch), then join+leave at once.
        service.run_events([Disassociate(t_us=0.0, client=1)])
        service.run_events([
            Associate(t_us=10_000.0, client=1, ap=0,
                      rss_to={0: -40.0}, rss_from={0: -41.0}),
            Disassociate(t_us=10_010.0, client=1),
        ])
        assert 1 not in engine.state.clients
        assert all(1 not in (l.src, l.dst) for l in engine.state.links)
        assert all(1 not in (l.src, l.dst) for l in engine.plane.scheduler.queue)
        assert all(1 not in (l.src, l.dst) for l in engine.plane.graph)
        assert_graph_fresh(engine)
        # And the network keeps scheduling correctly afterwards.
        service.run_events([QueueUpdate(t_us=20_000.0, src=2, dst=3,
                                        backlog=4.0)])

    def test_cross_cell_flip_after_idle_client_leaves(self):
        """Cache entries whose per-AP table still names a departed
        client's links survive the Disassociate (none of them was
        scheduled); a later RSS change that flips an edge between the
        two polled cells re-evaluates the ROP sharing verdict over
        that table and must treat the departed links as edgeless
        (regression: the lookup raised KeyError out of the service)."""
        # AP 0 serves clients 1-3, AP 4 serves clients 5-7.
        engine, service = self.service_for(random_t_topology(2, 3, seed=4))
        service.run_events([QueueUpdate(t_us=0.0, src=3, dst=0,
                                        backlog=2.0)])
        service.run_events([Disassociate(t_us=10_000.0, client=6)])
        before = {link: set(nbrs) for link, nbrs in engine.plane.graph.items()}
        stats = service.run_events([RssDelta(t_us=20_000.0, node=7,
                                             rss_to={0: -50.0},
                                             rss_from={0: -50.0})])
        after = engine.plane.graph
        assert any(before[a] != after[a] and 7 in (a.src, a.dst)
                   for a in after)  # a cell-4 link's edges changed
        assert stats.oracle_checks == stats.revisions == 3
        assert_graph_fresh(engine)

    def test_stale_queue_report_ignored(self):
        engine, service = self.service_for(fig7_topology())
        stats = service.run_events([
            Disassociate(t_us=0.0, client=1),
            QueueUpdate(t_us=5_000.0, src=0, dst=1, backlog=4.0),
        ])
        assert stats.ignored_events == 1

    def test_associate_to_unknown_ap_ignored(self):
        engine, service = self.service_for(fig7_topology())
        stats = service.run_events([
            Associate(t_us=0.0, client=1, ap=99, rss_to={}, rss_from={}),
        ])
        assert stats.ignored_events == 1
        assert engine.state.clients[1] == 0  # untouched

    def test_rss_delta_for_unknown_node_ignored(self):
        """A node outside ``[0, n_nodes)`` names no row: -1 must not
        reach the last node's row through negative indexing, and 99
        must not raise out of the service."""
        engine, service = self.service_for(fig7_topology())
        before = engine.state.rss.copy()
        stats = service.run_events([
            RssDelta(t_us=0.0, node=-1, rss_to={0: -30.0},
                     rss_from={0: -30.0}),
            RssDelta(t_us=10.0, node=99, rss_to={0: -30.0},
                     rss_from={0: -30.0}),
        ])
        assert stats.ignored_events == 2
        assert (engine.state.rss == before).all()
        assert_graph_fresh(engine)


class TestRevisionBookkeeping:
    def test_queue_backlog_drains_across_revisions(self):
        """Optimistic decrement: scheduling a backlogged link reduces
        its queue picture, so the strict schedule eventually empties."""
        topology = fig7_topology()
        engine = IncrementalController(NetworkState.from_topology(topology),
                                       ServiceConfig())
        service = ControllerService(engine, check_every=1)
        link = engine.state.links[0]
        service.run_events([QueueUpdate(t_us=0.0, src=link.src,
                                        dst=link.dst, backlog=2.0)])
        assert engine.state.queues[link] < 2.0
        for step in range(1, 5):
            service.run_events([QueueUpdate(
                t_us=step * 10_000.0, src=engine.state.links[1].src,
                dst=engine.state.links[1].dst, backlog=0.0)])
        assert engine.state.queues[link] == 0.0

    def test_oracle_mismatch_raises(self):
        """Corrupting live state between apply and revise must trip
        the oracle (proves the check has teeth)."""
        from repro.service.service import OracleMismatch

        topology = fig7_topology()
        engine = IncrementalController(NetworkState.from_topology(topology),
                                       ServiceConfig())
        service = ControllerService(engine, check_every=1)
        service.run_events([QueueUpdate(t_us=0.0, src=0, dst=1,
                                        backlog=3.0)])

        original = engine.preview_digest

        def corrupted():
            digest = original()
            # Sabotage: inject demand the preview never saw.
            engine.state.queues[engine.state.links[2]] = 6.0
            return digest

        engine.preview_digest = corrupted
        with pytest.raises(OracleMismatch):
            service.run_events([QueueUpdate(t_us=10_000.0, src=2, dst=3,
                                            backlog=5.0)])
