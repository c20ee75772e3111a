#!/usr/bin/env python3
"""A tour of relative scheduling's machinery on the Fig. 7 network.

Walks through what the DOMINO controller does to a strict schedule:

1. build the link conflict graph from the interference map;
2. produce the Fig. 7(c) strict schedule with the RAND scheduler;
3. convert it: fake-link insertion, trigger assignment (inbound <= 2,
   outbound <= 4), ROP slot insertion;
4. execute the relative schedule over the simulated medium and render
   the Fig. 10-style timeline, including the misalignment healing;
5. optionally re-run on a 10-node T(5, 1) network with telemetry
   enabled and export the structured trace.

Run:  python examples/relative_scheduling_tour.py [--trace out.jsonl]

then inspect the trace with

    python -m repro.telemetry summarize out.jsonl
"""

import argparse
import itertools

from repro import telemetry
from repro.core import build_domino_network
from repro.core.converter import ScheduleConverter
from repro.experiments.common import slot_timeline
from repro.sched.rand_scheduler import RandScheduler
from repro.sim.engine import Simulator
from repro.topology.builder import build_t_topology, fig7_topology
from repro.topology.conflict_graph import build_conflict_graph
from repro.topology.trace import two_building_trace
from repro.traffic.udp import SaturatedSource

NAMES = {0: "AP1", 1: "C1", 2: "AP2", 3: "C2",
         4: "AP3", 5: "C3", 6: "AP4", 7: "C4"}


def name(node_id):
    return NAMES.get(node_id, str(node_id))


def show_conversion():
    topology = fig7_topology()
    imap = topology.interference_map()
    universe = list(topology.flows)
    for link in topology.all_association_links():
        if link not in universe:
            universe.append(link)
    graph = build_conflict_graph(imap, universe)

    print("conflict graph edges over the downlinks:")
    for a, b in itertools.combinations(topology.flows, 2):
        if b in graph[a]:
            print(f"  {name(a.src)}->{name(a.dst)}  x  "
                  f"{name(b.src)}->{name(b.dst)}")

    scheduler = RandScheduler(graph, universe, imap=imap)
    strict = scheduler.schedule_batch({l: 2 for l in topology.flows},
                                      max_slots=4)
    print("\nstrict schedule (RAND):")
    for i, slot in enumerate(strict):
        print(f"  slot {i}: "
              + ", ".join(f"{name(l.src)}->{name(l.dst)}" for l in slot))

    converter = ScheduleConverter(imap, graph, fake_candidates=universe)
    ap_links = {ap.node_id: [l for l in universe
                             if topology.network.ap_of(l.src) == ap.node_id]
                for ap in topology.network.aps}
    batch = converter.convert(strict,
                              rop_aps=[ap.node_id
                                       for ap in topology.network.aps],
                              ap_links=ap_links)
    print("\nrelative schedule after conversion:")
    for slot in batch.slots:
        entries = ", ".join(
            f"{name(e.link.src)}->{name(e.link.dst)}"
            + ("(fake)" if e.fake else "")
            for e in slot.entries
        )
        rop = (f"   [ROP after: "
               f"{', '.join(name(a) for a in slot.rop_after)}]"
               if slot.rop_after else "")
        print(f"  slot {slot.index}: {entries}{rop}")
    print("\ntrigger duties (who broadcasts whose signature):")
    for (node, slot_idx), duty in sorted(batch.duties.items(),
                                         key=lambda kv: (kv[0][1], kv[0][0])):
        targets = ", ".join(name(t) for t in sorted(duty.targets))
        extras = []
        if duty.rop_polls:
            extras.append("polls: "
                          + ", ".join(name(a)
                                      for a in sorted(duty.rop_polls)))
        if duty.rop_flag:
            extras.append("ROP signature")
        suffix = f"  ({'; '.join(extras)})" if extras else ""
        print(f"  slot {slot_idx}: {name(node)} -> [{targets}]{suffix}")


def show_execution():
    topology = fig7_topology(uplinks=True)
    # The slot timeline is read back from the run's trace: every
    # slot_exec / rop_poll record is one transmission start.
    trace = telemetry.activate()
    try:
        sim = Simulator(seed=5)
        net = build_domino_network(sim, topology)
        for flow in topology.flows:
            SaturatedSource(sim, net.macs[flow.src], flow.dst).start()
        net.controller.start()
        sim.run(until=60_000.0)
    finally:
        telemetry.deactivate()
    timeline = slot_timeline(trace)

    print("\nexecution timeline (D=data, f=fake, P=poll):\n")
    print(timeline.render(0, 12, names=NAMES))
    table = timeline.misalignment_by_slot()
    shown = [f"{table.get(i, 0.0):.1f}" for i in range(8)]
    print(f"\nmax misalignment per slot (us): {' '.join(shown)}")
    print("(wired jitter desynchronizes slot 0; triggers and the ROP "
          "reference broadcasts\nre-align everything within a few slots; "
          "clusters that barely interfere may keep\na constant offset "
          "until a poll gets through, which is harmless)")


def show_traced_run(trace_path):
    """Run a 10-node T(5, 1) network with telemetry on and export the
    structured trace for ``python -m repro.telemetry summarize``."""
    topology = build_t_topology(two_building_trace(), 5, 1, seed=3)
    recorder = telemetry.activate()
    try:
        sim = Simulator(seed=5)
        net = build_domino_network(sim, topology)
        for flow in topology.flows:
            SaturatedSource(sim, net.macs[flow.src], flow.dst).start()
        net.controller.start()
        sim.run(until=60_000.0)
    finally:
        telemetry.deactivate()
    recorder.export_jsonl(trace_path)
    print(f"\ntelemetry: {len(recorder)} events from a 10-node T(5,1) run "
          f"written to {trace_path}")
    print(f"  inspect with: python -m repro.telemetry summarize {trace_path}")
    print("\nmetrics registry for the traced run:")
    print(recorder.metrics.render())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="also run a 10-node network with telemetry "
                             "and write the JSONL trace here")
    args = parser.parse_args()
    show_conversion()
    show_execution()
    if args.trace:
        show_traced_run(args.trace)
