"""Mobility end to end: drifting node -> conflict delta -> revision.

A node walking across a T(10, 3) deployment perturbs its RSS row and
column step by step; each step must surface as a conflict-graph delta
confined to the node's links and a fresh ``sched_revision`` trace
event, with the incrementally maintained graph staying equal to a
from-scratch rebuild (and every revision digest oracle-checked).
"""

from repro import telemetry
from repro.service import (ControllerService, IncrementalController,
                           NetworkState, ServiceConfig, mobility_events)
from repro.topology.builder import random_t_topology
from repro.topology.conflict_graph import build_conflict_graph
from repro.topology.mobility import linear_drift


class TestLinearDrift:
    def test_drift_moves_node_and_refreshes_matrix(self):
        topology = random_t_topology(4, 2, seed=0)
        trace = topology.trace
        before = trace.rss_dbm.copy()
        start = trace.positions[1]
        steps = list(linear_drift(trace, 1, (start[0] + 100.0, start[1]),
                                  steps=4))
        assert [s for s, _ in steps] == [1, 2, 3, 4]
        assert trace.positions[1][0] != start[0]
        assert (trace.rss_dbm[1, :] != before[1, :]).any()
        assert (trace.rss_dbm[:, 1] != before[:, 1]).any()
        # Rows of nodes that did not move only change toward node 1.
        untouched = [i for i in range(trace.n_nodes) if i != 1]
        for i in untouched:
            for j in untouched:
                assert trace.rss_dbm[i, j] == before[i, j]


class TestMobilityPipeline:
    def test_drift_to_revision_with_trace_events(self):
        topology = random_t_topology(10, 3, seed=2)
        events = mobility_events(topology.trace, node=1,
                                 to_pos=(400.0, 400.0), steps=10,
                                 interval_us=4_000.0)
        assert len(events) == 10

        recorder = telemetry.activate()
        try:
            engine = IncrementalController(
                NetworkState.from_topology(topology), ServiceConfig())
            service = ControllerService(engine, check_every=1)
            stats = service.run_events(events)
        finally:
            telemetry.deactivate()

        # One epoch per step (4 ms gaps > the 2 ms debounce window).
        assert stats.revisions == 10
        assert stats.oracle_checks == 10

        # Every epoch's dirty region is exactly the drifting node's
        # links, and the drift genuinely flipped conflict edges at
        # some point along the walk.
        assert all(r.dirty_links == 2 for r in service.revisions)
        fresh = build_conflict_graph(engine.plane.imap, engine.state.links)
        assert engine.plane.graph == fresh
        assert engine.conflict_checks > 0

        # sched_revision trace events came out with the right shape.
        records = [r for r in recorder.records()
                   if r["ev"] == "sched_revision"]
        assert len(records) == 10
        versions = [r["version"] for r in records]
        assert versions == sorted(versions)
        by_version = {r.version: r for r in service.revisions}
        for record in records:
            revision = by_version[record["version"]]
            assert record["digest"] == revision.trace_digest
            assert record["dirty"] == revision.dirty_links == 2
            assert record["events"] == 1
            assert record["full"] is False
            assert record["t"] == revision.t_us

    def test_mobility_does_not_perturb_caller_trace(self):
        topology = random_t_topology(4, 2, seed=0)
        before = topology.trace.rss_dbm.copy()
        mobility_events(topology.trace, node=1, to_pos=(0.0, 0.0),
                        steps=3, interval_us=1_000.0)
        assert (topology.trace.rss_dbm == before).all()
