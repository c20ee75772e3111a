"""Topology construction: the paper's canonical figures and T(m, n).

``T(m, n)`` (Sec. 4.2.1): sort trace nodes by communication-range
degree decreasing; take the highest-degree unused node as an AP and
randomly pick ``n`` of its communication-range neighbours as clients;
repeat for ``m`` APs.

Canonical figures are encoded as explicit RSS maps whose *semantics*
the paper specifies (who hears whom, which links collide where):

* Fig. 1  — three AP-client pairs; AP1 hidden to AP3 (collides at C3),
  C2 and AP1 exposed to each other.
* Fig. 7  — four AP-client pairs; AP2 and AP3 collide at AP1; AP3 and
  AP4 hidden to each other; conflict graph pairs (1,2) and (3,4).
* Fig. 13a — four downlinks all mutually exposed.
* Fig. 13b — three senders out of range of each other sharing one
  common exposed link (AP4 hears all of AP1..AP3).

RSS levels used (dBm): association -50, carrier-sense-only hearing
-70, reception-breaking interference -55, out of range -120.  With
the 802.11g profile (CS -82 dBm, 12 Mbps threshold 8 dB) these encode
exactly the hearing/conflict relations above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.medium import Medium
from ..sim.node import Network
from ..sim.phy import DOT11G, PhyProfile
from .interference_map import InterferenceMap
from .links import Link
from .propagation import NS3_DEFAULT, LogDistanceModel
from .trace import SyntheticTrace, manual_trace

ASSOC_DBM = -50.0     # AP <-> its clients
HEAR_DBM = -70.0      # carrier-sense range, reception survives
BREAK_DBM = -55.0     # close enough to destroy a -50 dBm reception
FAR_DBM = -120.0


@dataclass
class Topology:
    """A runnable network: nodes, RSS ground truth and traffic flows.

    ``flows`` are transport-level (src, dst) pairs; the set of *links*
    the scheduler reasons about is both directions of every AP-client
    association that appears in some flow (plus fake-link candidates
    added by the converter).
    """

    network: Network
    trace: SyntheticTrace
    profile: PhyProfile = DOT11G
    flows: List[Link] = field(default_factory=list)
    name: str = "topology"

    def interference_map(self, margin_db: float = 3.0) -> InterferenceMap:
        return InterferenceMap(self.trace.rss_fn(), self.profile,
                               margin_db=margin_db)

    def build_medium(self, sim: Simulator) -> Medium:
        medium = Medium(sim, self.profile, self.trace.rss_fn())
        self.network.attach_all(medium)
        return medium

    def flow_links(self) -> List[Link]:
        return list(self.flows)

    def all_association_links(self) -> List[Link]:
        """Both directions of every AP-client association.

        This is the link universe for fake-link insertion: a node can
        be kept "triggered frequently" through either direction of its
        association (Sec. 3.3).
        """
        links: List[Link] = []
        for client in self.network.clients:
            links.append(Link(client.ap_id, client.node_id))
            links.append(Link(client.node_id, client.ap_id))
        return links

    def downlinks(self) -> List[Link]:
        return [f for f in self.flows
                if self.network.nodes[f.src].is_ap]

    def uplinks(self) -> List[Link]:
        return [f for f in self.flows
                if not self.network.nodes[f.src].is_ap]


# ----------------------------------------------------------------------
# Canonical paper figures
# ----------------------------------------------------------------------
def _pairs_topology(n_pairs: int, rss: Dict[Tuple[int, int], float],
                    flows: Sequence[Link], name: str) -> Topology:
    """AP_i = 2*(i-1), C_i = 2*(i-1)+1 for i in 1..n_pairs."""
    network = Network()
    for i in range(n_pairs):
        ap = network.add_ap(2 * i)
        network.add_client(2 * i + 1, ap.node_id)
    trace = manual_trace(2 * n_pairs, rss, default_dbm=FAR_DBM)
    return Topology(network=network, trace=trace, flows=list(flows), name=name)


def fig1_topology() -> Topology:
    """Fig. 1: AP1->C1 (downlink), C2->AP2 (uplink), AP3->C3 (downlink).

    AP1 (0), C1 (1), AP2 (2), C2 (3), AP3 (4), C3 (5).
    AP1 hidden to AP3: AP1's signal collides at C3 but AP1/AP3 cannot
    hear each other.  C2 and AP1 are exposed to each other.
    """
    rss = {
        (0, 1): ASSOC_DBM, (2, 3): ASSOC_DBM, (4, 5): ASSOC_DBM,
        (0, 3): HEAR_DBM,   # AP1 <-> C2 exposed pair
        (0, 5): BREAK_DBM,  # AP1 destroys C3's reception (hidden terminal)
    }
    flows = [Link(0, 1), Link(3, 2), Link(4, 5)]
    return _pairs_topology(3, rss, flows, name="fig1")


def fig7_topology(uplinks: bool = False) -> Topology:
    """Fig. 7: four AP-client pairs.

    AP1 (0), C1 (1), AP2 (2), C2 (3), AP3 (4), C3 (5), AP4 (6), C4 (7).
    Downlink conflict graph: AP1->C1 -- AP2->C2 and AP3->C3 -- AP4->C4.
    AP2's and AP3's signals both reach AP1 (they collide there); AP3
    and AP4 are hidden to each other; C4 can trigger AP3 (point 1 in
    Fig. 10).
    """
    rss = {
        (0, 1): ASSOC_DBM, (2, 3): ASSOC_DBM,
        (4, 5): ASSOC_DBM, (6, 7): ASSOC_DBM,
        # Pair 1/2 conflict: each AP breaks the other pair's client.
        (2, 1): BREAK_DBM, (0, 3): BREAK_DBM,
        # Pair 3/4 conflict.
        (6, 5): BREAK_DBM, (4, 7): BREAK_DBM,
        # AP2 and AP3 are audible at AP1 (collide at AP1, Sec. 3.2).
        (2, 0): HEAR_DBM, (4, 0): HEAR_DBM,
        # C4 is in range of AP3: receiver-triggers-hidden-sender path.
        (7, 4): HEAR_DBM,
        # C1 in range of AP2's client chain partner for cross triggers.
        (1, 2): HEAR_DBM,
    }
    flows = [Link(0, 1), Link(2, 3), Link(4, 5), Link(6, 7)]
    if uplinks:
        flows += [Link(1, 0), Link(3, 2), Link(5, 4), Link(7, 6)]
    return _pairs_topology(4, rss, flows, name="fig7")


def fig13a_topology() -> Topology:
    """Fig. 13a: four downlinks, all senders hear each other, no conflicts."""
    rss = {(2 * i, 2 * i + 1): ASSOC_DBM for i in range(4)}
    for i in range(4):
        for j in range(i + 1, 4):
            rss[(2 * i, 2 * j)] = HEAR_DBM  # AP_i <-> AP_j
    flows = [Link(2 * i, 2 * i + 1) for i in range(4)]
    return _pairs_topology(4, rss, flows, name="fig13a")


def fig13b_topology() -> Topology:
    """Fig. 13b: AP1..AP3 out of range of each other; AP4 hears all three."""
    rss = {(2 * i, 2 * i + 1): ASSOC_DBM for i in range(4)}
    for i in range(3):
        rss[(2 * i, 6)] = HEAR_DBM  # AP_i <-> AP4
    flows = [Link(2 * i, 2 * i + 1) for i in range(4)]
    return _pairs_topology(4, rss, flows, name="fig13b")


def usrp_pair_topology(scenario: str) -> Topology:
    """Table 2 USRP scenarios: two AP-client pairs.

    ``scenario`` is one of:

    * ``'SC'`` — same contention domain, neither hidden nor exposed:
      everyone hears everyone, and concurrent transmissions collide.
    * ``'HT'`` — hidden terminals: senders cannot hear each other,
      each sender's signal breaks the other pair's reception.
    * ``'ET'`` — exposed terminals: senders hear each other, but both
      receptions survive concurrent transmissions.

    AP1 (0), C1 (1), AP2 (2), C2 (3); flows are the two downlinks.
    """
    rss: Dict[Tuple[int, int], float] = {
        (0, 1): ASSOC_DBM, (2, 3): ASSOC_DBM,
    }
    if scenario == "SC":
        rss.update({(0, 2): HEAR_DBM, (0, 3): BREAK_DBM, (2, 1): BREAK_DBM,
                    (1, 3): HEAR_DBM})
    elif scenario == "HT":
        rss.update({(0, 3): BREAK_DBM, (2, 1): BREAK_DBM})
    elif scenario == "ET":
        rss.update({(0, 2): HEAR_DBM})
    else:
        raise ValueError(f"unknown USRP scenario {scenario!r}")
    flows = [Link(0, 1), Link(2, 3)]
    topo = _pairs_topology(2, rss, flows, name=f"usrp-{scenario.lower()}")
    from ..sim.phy import USRP
    topo.profile = USRP
    return topo


# ----------------------------------------------------------------------
# T(m, n) from a trace (Sec. 4.2.1)
# ----------------------------------------------------------------------
class TopologyError(RuntimeError):
    """Raised when a T(m, n) cannot be carved out of the trace."""


def build_t_topology(trace: SyntheticTrace, m: int, n: int,
                     seed: int = 0, name: Optional[str] = None) -> Topology:
    """Construct ``T(m, n)``: ``m`` APs with ``n`` clients each.

    Follows the paper's procedure: nodes sorted by communication-range
    degree decreasing; the first unused node becomes an AP and ``n``
    random communication-range neighbours (unused so far) become its
    clients; repeat.  Raises :class:`TopologyError` when the trace
    cannot support the requested shape.
    """
    rng = random.Random(seed)
    order = trace.degree_order()
    used: set = set()
    network = Network()
    assignments: List[Tuple[int, List[int]]] = []

    for candidate in order:
        if len(assignments) == m:
            break
        if candidate in used:
            continue
        neighbors = [x for x in trace.comm_neighbors(candidate) if x not in used]
        if len(neighbors) < n:
            continue
        clients = rng.sample(neighbors, n)
        used.add(candidate)
        used.update(clients)
        assignments.append((candidate, clients))

    if len(assignments) < m:
        raise TopologyError(
            f"trace supports only {len(assignments)} of the requested {m} APs"
        )

    flows: List[Link] = []
    for ap_id, clients in assignments:
        network.add_ap(ap_id, pos=trace.positions[ap_id] if trace.positions else None)
        for client_id in clients:
            network.add_client(
                client_id, ap_id,
                pos=trace.positions[client_id] if trace.positions else None,
            )
            flows.append(Link(ap_id, client_id))       # downlink
            flows.append(Link(client_id, ap_id))       # uplink
    return Topology(network=network, trace=trace, flows=flows,
                    name=name or f"T({m},{n})")


def random_t_topology(m: int, n: int, area_m: float = 800.0, seed: int = 0,
                      model: Optional[LogDistanceModel] = None,
                      tx_power_dbm: float = 20.0,
                      max_client_range_m: float = 40.0) -> Topology:
    """Fig. 14 style topology: T(m, n) placed randomly in a square.

    The paper "randomly placed nodes in an 800 x 800 m area and
    create[d] a topology T(20, 3), which consists of 80 nodes".  A
    uniform draw of exactly ``m * (n + 1)`` nodes almost never packs
    into the shape (isolated nodes are inevitable at this density), so
    we realise the natural deployment reading: AP positions are drawn
    uniformly over the area, and each AP's ``n`` clients are dropped
    uniformly within association range of it.  The RSS matrix between
    *all* pairs then comes from the ns-3-default log-distance model,
    so inter-cell interference varies exactly as with a free draw.
    """
    prop = model if model is not None else NS3_DEFAULT
    rng = random.Random(seed)
    positions: List[Tuple[float, float]] = []
    network = Network()
    flows: List[Link] = []
    node_id = 0
    for _ in range(m):
        ap_pos = (rng.uniform(0.0, area_m), rng.uniform(0.0, area_m))
        ap_id = node_id
        positions.append(ap_pos)
        network.add_ap(ap_id, pos=ap_pos)
        node_id += 1
        for _ in range(n):
            # Uniform over the disc around the AP (clamped to the area).
            import math as _math
            radius = max_client_range_m * _math.sqrt(rng.random())
            angle = rng.uniform(0.0, 2.0 * _math.pi)
            pos = (min(max(ap_pos[0] + radius * _math.cos(angle), 0.0), area_m),
                   min(max(ap_pos[1] + radius * _math.sin(angle), 0.0), area_m))
            positions.append(pos)
            network.add_client(node_id, ap_id, pos=pos)
            flows.append(Link(ap_id, node_id))
            flows.append(Link(node_id, ap_id))
            node_id += 1
    matrix = prop.rss_matrix(positions, tx_power_dbm=tx_power_dbm, seed=seed)
    trace = SyntheticTrace(rss_dbm=matrix, positions=positions,
                           comm_threshold_dbm=-90.0)
    from ..sim.phy import DOT11G_NS3
    return Topology(network=network, trace=trace, flows=flows,
                    profile=DOT11G_NS3, name=f"random-T({m},{n})#{seed}")
