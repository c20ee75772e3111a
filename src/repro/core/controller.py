"""The DOMINO central server (controller).

Responsibilities (Sec. 3):

* maintain the interference map and link conflict graph;
* track queue state: downlink queues from AP reports over the wired
  backbone, uplink queues from ROP reports relayed by the APs;
* per batch: run the RAND-style scheduler over backlogged links, pad
  to the batch size (empty slots fill with fake links, keeping every
  node triggered even under light load), convert to a relative
  schedule, and distribute per-AP programs over the jittery wire;
* pipeline batches: batch ``k+1`` is computed as soon as batch ``k``
  begins executing (the "batch_started" notification), so the next
  program is at the APs long before the connector slot fires.

The module also provides :func:`build_domino_network`, the one-call
constructor used by examples, tests and benchmarks: topology in,
(controller, MACs, recorder hooks) out.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry
from ..sim.engine import Event, Simulator
from ..sim.medium import Medium
from ..sim.wire import WiredBackbone
from ..topology.builder import Topology
from ..topology.conflict_graph import hearing_graph
from ..topology.links import Link
from ..topology.measurement import ObservationStore, beacon_rounds
from .coexistence import CoexistenceConfig, CoexistencePlanner
from .control_plane import ControlPlane, link_universe
from .converter import ConverterConfig
from .relative_schedule import NodeProgram, RelativeBatch, build_programs
from .rop import RopDecoder, plan_subchannels
from .domino_mac import DominoMac
from .trigger_model import TriggerDetectionModel


@dataclass
class ControllerConfig:
    batch_slots: int = 12         # slots scheduled per batch (Sec. 5 sweep)
    demand_cap: int = 12          # max packets scheduled per link per batch
    poll_every_batch: bool = True
    converter: ConverterConfig = field(default_factory=ConverterConfig)
    #: Sec. 5 coexistence: interleave contention periods (CoP) between
    #: batches (the CFPs) so external networks get fair airtime.
    #: ``None`` disables coexistence (back-to-back batches).
    coexistence: Optional["CoexistenceConfig"] = None
    #: Sec. 5 energy saving: client ids allowed to sleep through the
    #: slots that do not involve them.
    energy_constrained: frozenset = frozenset()


class DominoController:
    """Central scheduling server, attached to the wired backbone."""

    def __init__(self, sim: Simulator, topology: Topology,
                 wire: WiredBackbone,
                 macs: Dict[int, DominoMac],
                 config: Optional[ControllerConfig] = None):
        self.sim = sim
        self.topology = topology
        self.wire = wire
        self.macs = macs
        self.config = config if config is not None else ControllerConfig()
        self._trace = telemetry.current()
        universe = link_universe(topology)
        converter = self.config.converter
        if self.config.energy_constrained:
            # Sleeping clients must not be woken by fake filler.
            converter = dataclasses.replace(
                converter,
                fake_exclude_nodes=frozenset(self.config.energy_constrained))
        # The controller schedules from its own *measured* RSS map — a
        # snapshot of the ground truth at association time (built with
        # the Sec. 5 beacon campaign in a real deployment).  Under
        # mobility it goes stale until the next campaign refreshes it.
        self.plane = ControlPlane(
            topology.trace.rss_dbm.copy(), topology.profile, universe,
            converter, batch_slots=self.config.batch_slots,
            demand_cap=self.config.demand_cap)
        network = topology.network
        self._aps = [ap.node_id for ap in network.aps]
        self._client_ap = {client.node_id: network.ap_of(client.node_id)
                           for client in network.clients}
        self.known_queues: Dict[Link, float] = {l: 0.0 for l in universe}
        self._ap_links = {
            ap: [l for l in universe if network.ap_of(l.src) == ap]
            for ap in self._aps}
        self._batches_dispatched = 0
        self._batches_started: set = set()
        self._watchdog: Optional[Event] = None
        self.batches: List[RelativeBatch] = []
        # Sec. 5 coexistence.
        self.planner: Optional[CoexistencePlanner] = (
            CoexistencePlanner(self.config.coexistence)
            if self.config.coexistence is not None else None
        )
        self._in_cop = False
        self.cop_windows: List[Tuple[float, float]] = []
        # Sec. 5 mobility: measurement campaigns.
        self._campaign_requested = False
        self._campaign_store: Optional[ObservationStore] = None
        self.last_campaign_updates = 0

        wire.register(WiredBackbone.SERVER_ID, self._on_wire_message)
        for ap in topology.network.aps:
            wire.register(
                ap.node_id,
                lambda src, msg, ap_id=ap.node_id:
                self._on_ap_wire_delivery(ap_id, msg),
            )
            macs[ap.node_id].send_to_controller = (
                lambda msg, ap_id=ap.node_id:
                self.wire.send(ap_id, WiredBackbone.SERVER_ID, msg)
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Compute and dispatch the first batch."""
        self._dispatch_next_batch()

    # ------------------------------------------------------------------
    # Batch computation
    # ------------------------------------------------------------------
    def _dispatch_next_batch(self) -> None:
        rop_aps = self._aps if self.config.poll_every_batch else []
        batch = self.plane.next_batch(self.known_queues, rop_aps,
                                      self._ap_links, self._client_ap)
        self.batches.append(batch)
        tel = self._trace
        if tel.enabled:
            tel.sched_dispatch(self.sim.now, batch.batch_id,
                               batch.first_slot_index, batch.last_slot_index,
                               len(batch.slots))
            tel.metrics.counter("controller.batches").inc()
            tel.metrics.gauge("controller.known_backlog").set(
                sum(self.known_queues.values()))
        self._distribute(batch)
        self._batches_dispatched += 1
        self._arm_watchdog(batch)

    # ------------------------------------------------------------------
    # Distribution
    # ------------------------------------------------------------------
    def _distribute(self, batch: RelativeBatch) -> None:
        """Ship per-node programs: one jittered wire message per AP,
        carrying the AP's program and its clients' programs (which the
        AP forwards as S1 samples in the real system)."""
        programs = build_programs(batch)
        if self.config.energy_constrained:
            from .energy import annotate_programs
            for client in self.config.energy_constrained:
                # A fully uninvolved client still needs a program to
                # carry its sleep grant.
                if client not in programs:
                    programs[client] = NodeProgram(
                        node=client, batch_id=batch.batch_id,
                        initial=batch.initial,
                        first_slot_index=batch.first_slot_index,
                        last_slot_index=batch.last_slot_index,
                    )
            annotate_programs(batch, programs,
                              self.config.energy_constrained,
                              self._client_ap)
        if self.planner is not None:
            # NAV horizon for external deferral: schedule arrival plus
            # the batch's nominal execution time.
            cfp_end = (self.sim.now + self.wire.mean_us
                       + self._batch_nominal_us(batch.batch_id))
            for program in programs.values():
                program.cfp_end_us = cfp_end
        bundles: Dict[int, List[NodeProgram]] = {}
        for node_id, program in programs.items():
            ap_id = self.topology.network.ap_of(node_id)
            bundles.setdefault(ap_id, []).append(program)
        for ap in self.topology.network.aps:
            bundle = bundles.get(ap.node_id, [])
            # Every AP always gets a (possibly empty) program so its
            # batch bookkeeping advances.
            if not any(p.node == ap.node_id for p in bundle):
                bundle.append(NodeProgram(
                    node=ap.node_id, batch_id=batch.batch_id,
                    initial=batch.initial,
                    first_slot_index=batch.first_slot_index,
                    last_slot_index=batch.last_slot_index,
                ))
            self.wire.send(WiredBackbone.SERVER_ID, ap.node_id,
                           {"type": "programs", "programs": bundle})

    def _on_ap_wire_delivery(self, ap_id: int, message: Any) -> None:
        """Wire handler standing in for each AP's wired NIC."""
        kind = message.get("type")
        if kind == "programs":
            for program in message["programs"]:
                mac = self.macs.get(program.node)
                if mac is not None:
                    mac.load_program(program)
        elif kind == "cop_open":
            self.macs[ap_id].begin_cop_measurement()
        elif kind == "cop_close":
            self.macs[ap_id].end_cop_measurement()
        elif kind == "measure":
            # The AP relays the campaign order to its clients over the
            # air in a real system; delivery here is immediate, the
            # rounds themselves carry all the timing.
            self.macs[ap_id].measure_order(message)
            for client in self.topology.network.clients_of(ap_id):
                self.macs[client.node_id].measure_order(message)

    # ------------------------------------------------------------------
    # Inbound reports
    # ------------------------------------------------------------------
    def _on_wire_message(self, src_id: int, message: Any) -> None:
        kind = message.get("type")
        if kind == "batch_started":
            batch_id = message["batch"]
            if batch_id not in self._batches_started:
                self._batches_started.add(batch_id)
                if self._trace.enabled:
                    # The AP's announcement carries the slot_exec id of
                    # the batch's first executed slot (v3 spans).
                    self._trace.batch_start(self.sim.now, batch_id, src_id,
                                            message.get("cause"))
                if self._watchdog is not None:
                    self._watchdog.cancel()
                    self._watchdog = None
                if self._campaign_requested:
                    # Mobility: quiesce after this batch and measure.
                    self._campaign_requested = False
                    remaining = self._batch_nominal_us(batch_id)
                    self.sim.schedule(remaining + 500.0,
                                      self._begin_campaign)
                elif self.planner is not None:
                    # Coexistence: the next CFP begins only after the
                    # current batch plus an interposed CoP.
                    remaining = self._batch_nominal_us(batch_id)
                    self.sim.schedule(remaining + 500.0, self._enter_cop)
                else:
                    self._dispatch_next_batch()
        elif kind == "cop_report":
            if self.planner is not None:
                self.planner.observe_cop_busy_fraction(message["busy"])
        elif kind == "measure_report":
            observer = message["observer"]
            for beaconer, rss in message["heard"].items():
                self.record_observation(observer, beaconer, rss)
        elif kind == "rop_report":
            ap = message["ap"]
            for client, value in message["queues"].items():
                link = Link(client, ap)
                if link in self.known_queues:
                    self.known_queues[link] = float(value)
        elif kind == "ap_queues":
            ap = message["ap"]
            for dst, backlog in message["queues"].items():
                link = Link(ap, dst)
                if link in self.known_queues:
                    self.known_queues[link] = float(backlog)

    # ------------------------------------------------------------------
    # Sec. 5 mobility: measurement campaigns and map refresh
    # ------------------------------------------------------------------
    MEASURE_ROUND_US = 60.0        # beacon airtime + turnaround guard
    MEASURE_REPORT_ROUND_US = 250.0
    #: Watchdog: if a dispatched batch never reports "started" within
    #: this many nominal batch durations, dispatch the next one anyway.
    WATCHDOG_BATCHES = 1.5

    def run_measurement_campaign(self, delay_us: float = 0.0) -> None:
        """Refresh the interference map with a beacon campaign.

        The campaign slots in at the next batch boundary: the network
        quiesces, every node beacons in its two-hop-colouring round,
        the RSS observations flow back (clients report through their
        APs), the controller writes them into its measured map and
        patches the control plane around every node that beaconed or
        heard a beacon (conflict edges re-tested, stale cache entries
        evicted; the fairness rotation and slot numbering carry on),
        then dispatches the next batch.
        """
        def request() -> None:
            self._campaign_requested = True

        self.sim.schedule(delay_us, request)

    def _begin_campaign(self) -> None:
        node_ids = sorted(n.node_id for n in self.topology.network)
        # Rounds are planned on the (possibly stale) current map; the
        # two-hop colouring keeps them collision-free as long as the
        # map is roughly right, which is the paper's working regime.
        hearing = hearing_graph(self.plane.imap, node_ids)
        rounds = beacon_rounds(hearing)
        self._campaign_store = ObservationStore()
        self.plane.converter.reset_connector()  # campaign silence breaks chains
        start = self.sim.now + self.wire.mean_us + 3.0 * self.wire.std_us
        report0 = start + len(rounds) * self.MEASURE_ROUND_US
        order = {
            "type": "measure",
            "rounds": rounds,
            "t0": start,
            "round_us": self.MEASURE_ROUND_US,
            "report0": report0,
            "report_round_us": self.MEASURE_REPORT_ROUND_US,
        }
        for ap in self.topology.network.aps:
            self.wire.send(WiredBackbone.SERVER_ID, ap.node_id, order)
        end = report0 + len(rounds) * self.MEASURE_REPORT_ROUND_US
        self.sim.schedule(end - self.sim.now + 1_000.0, self._end_campaign)

    def _end_campaign(self) -> None:
        updated = self.refresh_from_observations(self._campaign_store)
        self._campaign_store = None
        self._dispatch_next_batch()
        self.last_campaign_updates = updated

    def record_observation(self, observer: int, beaconer: int,
                           rss_dbm: float) -> None:
        if self._campaign_store is not None:
            self._campaign_store.record(observer, beaconer, rss_dbm)

    def refresh_from_observations(self, store: ObservationStore) -> int:
        """Fold campaign observations into the map and patch the plane."""
        updated = store.apply_to_matrix(self.plane.rss)
        observations = store.observations
        self.plane.update(self.plane.links, set(observations).union(
            *observations.values()))
        return updated

    # ------------------------------------------------------------------
    # Sec. 5 coexistence: CoP gaps between batches
    # ------------------------------------------------------------------
    def _batch_nominal_us(self, batch_id: int) -> float:
        """Nominal execution time of a dispatched batch."""
        some_mac = next(iter(self.macs.values()))
        for batch in self.batches:
            if batch.batch_id == batch_id:
                n_rop = sum(len(aps) for aps in batch.rop_polls.values())
                return (len(batch.slots) * some_mac.timing.slot_duration_us
                        + n_rop * some_mac.timing.rop_slot_us)
        return self.config.batch_slots * some_mac.timing.slot_duration_us

    def _enter_cop(self) -> None:
        """Open a contention period: the schedule pauses, external
        (and any contention-mode) traffic owns the channel."""
        assert self.planner is not None
        self._in_cop = True
        self.plane.converter.reset_connector()  # triggers cannot cross a CoP
        for ap in self.topology.network.aps:
            self.wire.send(WiredBackbone.SERVER_ID, ap.node_id,
                           {"type": "cop_open"})
        cfp_nominal = self._batch_nominal_us(
            self.batches[-1].batch_id if self.batches else -1)
        cop_us = self.planner.next_cop_us(cfp_nominal)
        self.cop_windows.append((self.sim.now, self.sim.now + cop_us))
        self.sim.schedule(cop_us, self._exit_cop)

    def _exit_cop(self) -> None:
        self._in_cop = False
        for ap in self.topology.network.aps:
            self.wire.send(WiredBackbone.SERVER_ID, ap.node_id,
                           {"type": "cop_close"})
        demand = sum(self.plane.demands(self.known_queues).values())
        if not self.planner.cfp_enabled(demand):
            # Sec. 5 light traffic: CFP off; stay in contention mode
            # and re-check once demand news can have arrived.
            self._in_cop = True
            self.cop_windows.append(
                (self.sim.now,
                 self.sim.now + self.planner.config.max_cop_us))
            self.sim.schedule(self.planner.config.max_cop_us,
                              self._exit_cop)
            return
        self._dispatch_next_batch()

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _arm_watchdog(self, batch: RelativeBatch) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
        some_mac = next(iter(self.macs.values()))
        nominal = (len(batch.slots) or 1) * some_mac.timing.slot_duration_us
        delay = self.WATCHDOG_BATCHES * nominal + 2_000.0
        self._watchdog = self.sim.schedule(delay, self._watchdog_fire,
                                           batch.batch_id)

    def _watchdog_fire(self, batch_id: int) -> None:
        self._watchdog = None
        if batch_id not in self._batches_started:
            self._batches_started.add(batch_id)
            # The batch never started: its chains are dead air and its
            # last slot cannot trigger anything.  Forget the connector
            # so the next batch self-starts from the APs.
            self.plane.converter.reset_connector()
            self._dispatch_next_batch()


# ----------------------------------------------------------------------
# One-call network builder
# ----------------------------------------------------------------------
@dataclass
class DominoNetwork:
    """Everything a run needs, from :func:`build_domino_network`."""

    sim: Simulator
    medium: Medium
    macs: Dict[int, DominoMac]
    controller: DominoController
    wire: WiredBackbone


def build_domino_network(sim: Simulator, topology: Topology,
                         config: Optional[ControllerConfig] = None,
                         trigger_model: Optional[TriggerDetectionModel] = None,
                         wire_mean_us: float = 285.0,
                         wire_std_us: float = 22.0,
                         payload_bytes: int = 512,
                         queue_capacity: int = 100) -> DominoNetwork:
    """Assemble a complete DOMINO deployment over ``topology``.

    Creates the medium, one :class:`DominoMac` per node, the wired
    backbone, the controller and the ROP subchannel plans.  Call ``controller.start()`` (after attaching traffic)
    to begin.
    """
    medium = topology.build_medium(sim)
    model = trigger_model if trigger_model is not None \
        else TriggerDetectionModel()
    macs: Dict[int, DominoMac] = {}
    for node in topology.network:
        macs[node.node_id] = DominoMac(
            sim, node, medium, trigger_model=model,
            payload_bytes=payload_bytes, queue_capacity=queue_capacity,
        )
    wire = WiredBackbone(sim, mean_us=wire_mean_us, std_us=wire_std_us)
    controller = DominoController(sim, topology, wire, macs, config=config)
    # ROP plumbing: subchannel plans and decoders.
    rss = topology.trace.rss_fn()
    for ap in topology.network.aps:
        clients = [c.node_id for c in topology.network.clients_of(ap.node_id)]
        plan = plan_subchannels(clients, lambda c: rss(c, ap.node_id))
        ap_mac = macs[ap.node_id]
        ap_mac.rop_decoder = RopDecoder(
            noise_dbm=topology.profile.noise_dbm)
        ap_mac.n_poll_sets = max(plan.n_polls, 1)
        for set_index, poll_set in enumerate(plan.poll_sets):
            for client, subchannel in poll_set.items():
                ap_mac.subchannel_of_client[client] = subchannel
                macs[client].my_subchannel = subchannel
                macs[client].my_poll_set = set_index
    return DominoNetwork(sim=sim, medium=medium, macs=macs,
                         controller=controller, wire=wire)
