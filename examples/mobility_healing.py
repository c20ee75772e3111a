#!/usr/bin/env python3
"""Mobility and map refresh: DOMINO's Sec. 5 maintenance loop, live.

Two AP-client cells start interference-free.  Mid-run, one client
walks into the other cell's interference range: the controller's
snapshot map is now stale and it keeps scheduling the two links in the
same slots, so the victim link's frames die mid-air.  A beacon
measurement campaign (two-hop-coloured rounds, client reports relayed
through the APs) rediscovers the conflict; the controller patches its
conflict graph around the measured nodes, the next schedule separates
the links and throughput recovers.

Run:  python examples/mobility_healing.py
"""

from repro.core import build_domino_network
from repro.metrics.stats import FlowRecorder
from repro.sim.engine import Simulator
from repro.sim.node import Network
from repro.topology.builder import Topology
from repro.topology.links import Link
from repro.topology.mobility import move_node
from repro.topology.propagation import LogDistanceModel
from repro.topology.trace import SyntheticTrace
from repro.traffic.udp import SaturatedSource

MODEL = LogDistanceModel(exponent=3.0, shadowing_sigma_db=0.0,
                         wall_loss_db=0.0, asymmetry_sigma_db=0.0)
NAMES = {0: "AP1", 1: "C1", 2: "AP2", 3: "C2"}


def build():
    positions = [(0.0, 0.0), (10.0, 0.0), (34.0, 0.0), (24.0, 0.0)]
    matrix = MODEL.rss_matrix(positions, tx_power_dbm=15.0, seed=0)
    trace = SyntheticTrace(rss_dbm=matrix, positions=list(positions),
                           comm_threshold_dbm=-70.0)
    network = Network()
    network.add_ap(0)
    network.add_client(1, 0)
    network.add_ap(2)
    network.add_client(3, 2)
    return Topology(network=network, trace=trace,
                    flows=[Link(0, 1), Link(2, 3)], name="mobile")


def main():
    topology = build()
    sim = Simulator(seed=3)
    net = build_domino_network(sim, topology)
    recorder = FlowRecorder(topology.flows)
    recorder.attach_all(net.macs.values())
    for flow in topology.flows:
        SaturatedSource(sim, net.macs[flow.src], flow.dst).start()
    net.controller.start()

    def window(until):
        snapshot = {tuple(f): recorder.records[tuple(f)].payload_bytes
                    for f in topology.flows}
        start = sim.now
        sim.run(until=until)
        span = sim.now - start
        return {
            f: (recorder.records[tuple(f)].payload_bytes
                - snapshot[tuple(f)]) * 8.0 / span
            for f in topology.flows
        }

    def show(label, rates):
        cells = ", ".join(
            f"{NAMES[f.src]}->{NAMES[f.dst]} {rates[f]:5.2f} Mbps"
            for f in topology.flows
        )
        print(f"{label:<34} {cells}")

    show("phase 1: independent cells", window(300_000.0))

    move_node(topology.trace, 3, (16.0, 0.0), model=MODEL)
    net.medium.invalidate_topology()
    print("\n*** C2 walks to 16 m from AP1; the controller's map is "
          "now stale ***\n")
    show("phase 2: stale schedule", window(600_000.0))

    net.controller.run_measurement_campaign()
    sim.run(until=700_000.0)
    print(f"\n*** beacon campaign: "
          f"{net.controller.last_campaign_updates} RSS entries "
          "refreshed; conflict graph patched in place ***\n")
    show("phase 3: refreshed schedule", window(1_100_000.0))
    conflict = net.controller.plane.imap.conflicts(Link(0, 1), Link(2, 3))
    print(f"\ncontroller now knows the links conflict: {conflict} "
          "(they alternate slots)")


if __name__ == "__main__":
    main()
