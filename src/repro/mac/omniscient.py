"""The omniscient centralized scheduler (Fig. 2's upper bound).

A genie with three superpowers no real system has: it reads every
queue directly (no polling), all nodes share a perfect clock (no
triggers, no synchronization error), and scheduling costs nothing.
Each slot it computes a greedy maximal set of backlogged,
non-conflicting links and fires all of them simultaneously; the slot
is exactly one data exchange long.

DOMINO's claim (Fig. 2) is that relative scheduling gets close to
this bound while being implementable; the gap between the two in our
benches is DOMINO's trigger/polling overhead.
"""

from __future__ import annotations

from typing import Dict, Tuple

import networkx as nx

from ..sched.rand_scheduler import RandScheduler
from ..sim.engine import Simulator
from ..sim.medium import Medium
from ..sim.node import Node
from ..sim.packet import Frame, FrameKind, ack_frame
from ..topology.builder import Topology
from ..topology.conflict_graph import build_conflict_graph
from .base import Mac


class OmniscientMac(Mac):
    """Passive station: transmits when the coordinator says so."""

    def __init__(self, sim: Simulator, node: Node, medium: Medium,
                 queue_capacity: int = 100):
        super().__init__(sim, node, medium, queue_capacity)
        self.successes = 0
        self.failures = 0

    def transmit_to(self, dst: int) -> bool:
        """Pop and transmit the head-of-queue packet for ``dst``."""
        queue = self.queues.queue_for(dst)
        if not queue or self.radio.transmitting:
            return False
        frame = queue.pop()
        self.radio.transmit(frame)
        return True

    def on_receive(self, frame: Frame, rss_dbm: float) -> None:
        if frame.kind is FrameKind.DATA and frame.dst == self.node.node_id:
            self._deliver_up(frame)
            self.sim.schedule(self.profile.sifs_us, self._send_ack, frame)

    def _send_ack(self, data: Frame) -> None:
        if self.radio.transmitting:
            return
        self.radio.transmit(
            ack_frame(self.node.node_id, data.src, data.seq, flow=data.flow)
        )


class OmniscientCoordinator:
    """Global slot clock driving all :class:`OmniscientMac` stations."""

    IDLE_POLL_US = 100.0  # re-check cadence when nothing is backlogged

    def __init__(self, sim: Simulator, topology: Topology,
                 macs: Dict[int, OmniscientMac],
                 guard_us: float = 2.0,
                 payload_bytes: int = 512):
        self.sim = sim
        self.topology = topology
        self.macs = macs
        imap = topology.interference_map()
        self.links = list(topology.flows)
        self.graph: nx.Graph = build_conflict_graph(imap, self.links)
        self.scheduler = RandScheduler(self.graph, self.links, imap=imap)
        profile = topology.profile
        from ..sim.packet import MAC_HEADER_BYTES
        data_airtime = profile.bytes_airtime_us(
            MAC_HEADER_BYTES + payload_bytes, profile.data_rate_mbps
        )
        self.slot_duration_us = (data_airtime + profile.sifs_us
                                 + profile.ack_airtime_us() + guard_us)
        self.slots_executed = 0

    def start(self) -> None:
        self.sim.schedule(0.0, self._tick)

    def _demands(self) -> Dict:
        """Direct queue inspection — the omniscient part."""
        demands = {}
        for link in self.links:
            backlog = self.macs[link.src].queues.backlog_for(link.dst)
            if backlog > 0:
                demands[link] = backlog
        return demands

    def _tick(self) -> None:
        demands = self._demands()
        if not demands:
            self.sim.schedule(self.IDLE_POLL_US, self._tick)
            return
        schedule = self.scheduler.schedule_batch(demands, max_slots=1)
        if not len(schedule):
            self.sim.schedule(self.IDLE_POLL_US, self._tick)
            return
        for link in schedule[0]:
            self.macs[link.src].transmit_to(link.dst)
        self.slots_executed += 1
        self.sim.schedule(self.slot_duration_us, self._tick)


def build_omniscient_network(sim: Simulator, topology: Topology,
                             queue_capacity: int = 100,
                             payload_bytes: int = 512,
                             ) -> Tuple[Medium, Dict[int, "OmniscientMac"],
                                        "OmniscientCoordinator"]:
    """Medium + MACs + coordinator in one call."""
    medium = topology.build_medium(sim)
    macs = {
        node.node_id: OmniscientMac(sim, node, medium,
                                    queue_capacity=queue_capacity)
        for node in topology.network
    }
    coordinator = OmniscientCoordinator(sim, topology, macs,
                                        payload_bytes=payload_bytes)
    return medium, macs, coordinator
