"""End-to-end integration tests for the DOMINO control plane."""

import pytest

from repro import telemetry
from repro.core import (ControllerConfig, PerfectTriggerModel,
                        build_domino_network)
from repro.experiments.common import slot_timeline
from repro.metrics.stats import FlowRecorder
from repro.sim.engine import Simulator
from repro.topology.builder import (fig1_topology, fig7_topology,
                                    fig13a_topology, fig13b_topology)
from repro.topology.links import Link
from repro.traffic.udp import CbrSource, SaturatedSource

HORIZON = 400_000.0


def run_domino(topology, rates=None, horizon=HORIZON, seed=1, config=None,
               trigger_model=None):
    sim = Simulator(seed=seed)
    net = build_domino_network(sim, topology, config=config,
                               trigger_model=trigger_model)
    recorder = FlowRecorder(topology.flows, warmup_us=horizon * 0.1)
    recorder.attach_all(net.macs.values())
    for flow in topology.flows:
        if rates is None:
            SaturatedSource(sim, net.macs[flow.src], flow.dst).start()
        else:
            CbrSource(sim, net.macs[flow.src], flow.dst,
                      rates.get(flow, 0.0)).start()
    net.controller.start()
    sim.run(until=horizon)
    return sim, net, recorder


def test_fig1_throughput_pattern():
    """The omniscient pattern: uplink every slot, downlinks alternate."""
    topology = fig1_topology()
    sim, net, recorder = run_domino(topology)
    uplink = recorder.flow_throughput_mbps(Link(3, 2), HORIZON)
    down1 = recorder.flow_throughput_mbps(Link(0, 1), HORIZON)
    down3 = recorder.flow_throughput_mbps(Link(4, 5), HORIZON)
    assert uplink > 7.0
    assert down1 == pytest.approx(down3, rel=0.25)
    assert 2.5 < down1 < 6.0
    assert uplink > 1.7 * down1


def test_fig13_topology_independence():
    """Table 3: DOMINO's throughput is identical across Fig. 13a/b."""
    a = run_domino(fig13a_topology())[2].aggregate_throughput_mbps(HORIZON)
    b = run_domino(fig13b_topology())[2].aggregate_throughput_mbps(HORIZON)
    assert a == pytest.approx(b, rel=0.03)
    assert a > 28.0  # four concurrent links


def test_polling_reports_reach_controller():
    topology = fig1_topology()
    sim, net, recorder = run_domino(topology)
    polls = sum(m.stats.polls_sent for m in net.macs.values())
    decoded = sum(m.stats.reports_decoded for m in net.macs.values())
    assert polls > 50           # every AP polls every batch
    assert decoded > 50
    # The controller learned about the uplink backlog through ROP.
    assert net.controller.known_queues[Link(3, 2)] >= 0.0
    batches = net.controller.batches
    assert len(batches) > 10    # batch pipeline kept flowing


def count_real_uplink_entries(net, topology):
    uplinks = set(topology.uplinks())
    return sum(
        1
        for batch in net.controller.batches
        for slot in batch.slots
        for entry in slot.entries
        if not entry.fake and entry.link in uplinks
    )


def test_rop_feeds_uplink_demand_to_scheduler():
    """The scheduler can only place *real* (demand-driven) uplink
    entries after ROP tells it about client backlogs; without polling
    every uplink packet rides opportunistically on fake slots."""
    topology = fig7_topology(uplinks=True)
    with_rop = run_domino(topology)
    without_rop = run_domino(
        topology, config=ControllerConfig(poll_every_batch=False))
    assert count_real_uplink_entries(with_rop[1], topology) > 0
    assert count_real_uplink_entries(without_rop[1], topology) == 0
    # Fake-slot opportunism still carries uplink data regardless —
    # that is Sec. 3.3's design working as intended.
    uplinks = topology.uplinks()
    carried = sum(without_rop[2].flow_throughput_mbps(f, HORIZON)
                  for f in uplinks)
    assert carried > 5.0


def test_fake_packets_keep_chains_alive():
    """Fig. 10 point 3: with only downlink traffic, the reverse fake
    links still transmit headers every slot."""
    topology = fig1_topology()
    sim, net, recorder = run_domino(topology)
    fakes = sum(m.stats.fake_tx for m in net.macs.values())
    assert fakes > 300  # C3->AP3 (and friends) fake every other slot


def test_perfect_trigger_model_upper_bounds_default():
    topology = fig7_topology()
    default = run_domino(topology)[2].aggregate_throughput_mbps(HORIZON)
    perfect = run_domino(
        topology, trigger_model=PerfectTriggerModel()
    )[2].aggregate_throughput_mbps(HORIZON)
    assert perfect >= default * 0.98


def test_batch_size_configurable():
    topology = fig1_topology()
    config = ControllerConfig(batch_slots=4, demand_cap=4)
    sim, net, recorder = run_domino(topology, config=config)
    assert all(len(b.slots) <= 4 for b in net.controller.batches)
    assert recorder.aggregate_throughput_mbps(HORIZON) > 10.0


def test_polling_can_be_disabled():
    topology = fig1_topology()
    config = ControllerConfig(poll_every_batch=False)
    sim, net, recorder = run_domino(topology, config=config)
    assert sum(m.stats.polls_sent for m in net.macs.values()) == 0
    # Downlinks still flow (queues known via the wire).
    assert recorder.flow_throughput_mbps(Link(0, 1), HORIZON) > 2.0


def test_light_traffic_low_rate_served():
    topology = fig1_topology()
    rates = {Link(0, 1): 0.2, Link(3, 2): 0.2, Link(4, 5): 0.2}
    sim, net, recorder = run_domino(topology, rates=rates)
    for flow in topology.flows:
        got = recorder.flow_throughput_mbps(flow, HORIZON)
        assert got == pytest.approx(0.2, rel=0.35)


def test_wire_jitter_misalignment_heals():
    """After the first batch's polls have re-anchored every chain,
    slot members stay aligned to within a few microseconds."""
    topology = fig7_topology(uplinks=True)
    trace = telemetry.activate()
    try:
        run_domino(topology, seed=5)
    finally:
        telemetry.deactivate()
    table = slot_timeline(trace).misalignment_by_slot()
    settled = [v for s, v in sorted(table.items())[20:60]]
    assert settled
    assert max(settled) < 5.0
