"""End-to-end test of Sec. 5 dynamic conflict-graph maintenance.

A client walks from a clean spot into another cell's interference
range.  The controller's map is a snapshot, so it keeps scheduling the
two links together and the victim link collapses; a beacon measurement
campaign rediscover the conflict and the scheduler separates them.
"""


import numpy as np
import pytest

from repro.core import build_domino_network
from repro.metrics.stats import FlowRecorder
from repro.service.revision import batch_digest
from repro.sim.engine import Simulator
from repro.sim.node import Network
from repro.topology.builder import Topology
from repro.topology.conflict_graph import build_conflict_graph, two_hop_graph
from repro.topology.interference_map import InterferenceMap
from repro.topology.links import Link
from repro.topology.measurement import (ObservationStore, beacon_rounds,
                                        campaign_overhead_fraction,
                                        validate_rounds)
from repro.topology.mobility import move_node
from repro.topology.propagation import LogDistanceModel, matrix_rss_fn
from repro.topology.trace import SyntheticTrace
from repro.traffic.udp import SaturatedSource
from tests.graphs import path_graph, star_graph, undirected

MODEL = LogDistanceModel(exponent=3.0, shadowing_sigma_db=0.0,
                         wall_loss_db=0.0, asymmetry_sigma_db=0.0)


def make_mobile_topology():
    """Two AP-client pairs, initially interference-free.

    AP1 (0) at x=0 with C1 (1) at x=10; AP2 (2) at x=34 with C3-style
    client (3) at x=24 — ten metres from its AP, on the side facing
    AP1 but still clear of it.
    """
    positions = [(0.0, 0.0), (10.0, 0.0), (34.0, 0.0), (24.0, 0.0)]
    matrix = MODEL.rss_matrix(positions, tx_power_dbm=15.0, seed=0)
    trace = SyntheticTrace(rss_dbm=matrix, positions=list(positions),
                           comm_threshold_dbm=-70.0)
    network = Network()
    network.add_ap(0)
    network.add_client(1, 0)
    network.add_ap(2)
    network.add_client(3, 2)
    flows = [Link(0, 1), Link(2, 3)]
    return Topology(network=network, trace=trace, flows=flows,
                    name="mobile")


# ----------------------------------------------------------------------
# Beacon-round planning units
# ----------------------------------------------------------------------
class TestBeaconRounds:
    def test_rounds_cover_all_nodes_once(self):
        hearing = path_graph(7)
        rounds = beacon_rounds(hearing)
        validate_rounds(hearing, rounds)

    def test_two_hop_separation_enforced(self):
        # A star: every leaf is two hops from every other leaf through
        # the hub, so nobody can share a round.
        hearing = star_graph(5)
        rounds = beacon_rounds(hearing)
        validate_rounds(hearing, rounds)
        assert all(len(r) == 1 for r in rounds)

    def test_disconnected_nodes_share_one_round(self):
        hearing = undirected(range(6))
        rounds = beacon_rounds(hearing)
        assert len(rounds) == 1
        assert sorted(rounds[0]) == list(range(6))

    def test_validate_rejects_collision(self):
        hearing = star_graph(3)
        with pytest.raises(ValueError):
            validate_rounds(hearing, [[1, 2], [0], [3]])
        with pytest.raises(ValueError):
            validate_rounds(hearing, [[0], [1]])  # 2, 3 never beacon

    def test_validate_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="node 9"):
            validate_rounds(path_graph(3), [[0], [1], [2], [9]])

    def test_overhead_matches_paper_arithmetic(self):
        """Delta = 40 star: 41 rounds of 40 us over 125.1 ms ~ 1.3 %."""
        overhead = campaign_overhead_fraction(star_graph(40))
        assert overhead == pytest.approx(41 * 40 / 125_100, rel=1e-6)
        assert 0.012 < overhead < 0.014

    def test_two_hop_graph_shape(self):
        path = path_graph(4)  # 0-1-2-3
        expanded = two_hop_graph(path)
        assert 2 in expanded[0]
        assert 3 not in expanded[0]


def test_observation_store_updates_matrix():
    store = ObservationStore()
    store.record(observer=1, beaconer=0, rss_dbm=-55.0)
    store.record(observer=0, beaconer=1, rss_dbm=-58.0)
    matrix = np.full((2, 2), -120.0)
    assert store.apply_to_matrix(matrix) == 2
    assert matrix[0][1] == -55.0   # tx row, rx column
    assert matrix[1][0] == -58.0


def test_move_node_updates_both_directions():
    topology = make_mobile_topology()
    before = topology.trace.rss(0, 3)
    move_node(topology.trace, 3, (5.0, 0.0), model=MODEL)
    after = topology.trace.rss(0, 3)
    assert after > before + 10.0  # much closer to AP1 now
    assert topology.trace.rss(3, 0) == pytest.approx(after, abs=0.1)
    assert topology.trace.positions[3] == (5.0, 0.0)


# ----------------------------------------------------------------------
# The full story
# ----------------------------------------------------------------------
def test_campaign_restores_throughput_after_mobility():
    topology = make_mobile_topology()
    sim = Simulator(seed=3)
    net = build_domino_network(sim, topology)
    recorder = FlowRecorder(topology.flows)
    recorder.attach_all(net.macs.values())
    for flow in topology.flows:
        SaturatedSource(sim, net.macs[flow.src], flow.dst).start()
    net.controller.start()

    victim = Link(2, 3)

    def window_mbps(flow, run_until):
        before = recorder.records[tuple(flow)].payload_bytes
        start = sim.now
        sim.run(until=run_until)
        delta = recorder.records[tuple(flow)].payload_bytes - before
        return delta * 8.0 / (sim.now - start)

    # Phase 1: both cells independent, both links near full rate.
    clean = window_mbps(victim, 300_000.0)
    assert clean > 7.0
    assert not net.controller.plane.imap.conflicts(Link(0, 1), victim)

    # Phase 2: the client walks toward AP1; ground truth changes, the
    # controller's snapshot does not — the victim link collapses.
    move_node(topology.trace, 3, (16.0, 0.0), model=MODEL)
    net.medium.invalidate_topology()
    degraded = window_mbps(victim, 600_000.0)
    assert degraded < 0.5 * clean
    assert not net.controller.plane.imap.conflicts(Link(0, 1), victim)  # stale

    # Phase 3: measurement campaign -> conflict discovered -> links
    # alternate -> the victim recovers to about half rate.
    net.controller.run_measurement_campaign()
    sim.run(until=700_000.0)  # campaign + first refreshed batches
    assert net.controller.last_campaign_updates > 0
    assert net.controller.plane.imap.conflicts(Link(0, 1), victim)
    recovered = window_mbps(victim, 1_100_000.0)
    assert recovered > 2.5  # ~half of a ~9 Mbps slot stream
    assert recovered > 1.5 * degraded
    other = recorder.flow_throughput_mbps(Link(0, 1), sim.now)
    assert other > 2.0  # the aggressor still gets its share


def test_campaign_patches_the_plane_like_a_fresh_build():
    """The campaign patches the live plane around every observer and
    beaconer; the result must equal a from-scratch build (graph) and
    an uncached from-scratch conversion (next batch digest)."""
    topology = make_mobile_topology()
    sim = Simulator(seed=3)
    net = build_domino_network(sim, topology)
    for flow in topology.flows:
        SaturatedSource(sim, net.macs[flow.src], flow.dst).start()
    controller = net.controller
    controller.start()
    sim.run(until=50_000.0)
    move_node(topology.trace, 3, (16.0, 0.0), model=MODEL)
    net.medium.invalidate_topology()
    controller.run_measurement_campaign()
    sim.run(until=150_000.0)
    assert controller.last_campaign_updates > 0

    plane = controller.plane
    fresh = build_conflict_graph(
        InterferenceMap(matrix_rss_fn(plane.rss), topology.profile),
        plane.links)
    assert plane.graph == fresh
    assert Link(2, 3) in plane.graph[Link(0, 1)]

    aps = [ap.node_id for ap in topology.network.aps]
    ap_links = {ap: [l for l in plane.links
                     if topology.network.ap_of(l.src) == ap]
                for ap in aps}
    client_ap = {c.node_id: c.ap_id for c in topology.network.clients}
    queues = dict(controller.known_queues)
    expected = batch_digest(plane.fork().next_batch(
        dict(queues), aps, ap_links, client_ap))
    assert batch_digest(plane.next_batch(
        queues, aps, ap_links, client_ap)) == expected
