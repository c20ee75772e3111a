"""Synthetic load for the online controller.

Three deterministic event sources, all seeded:

* :func:`churn_events` — the load harness's mixed stream: mostly
  queue reports, a trickle of RSS drift, occasional client
  leave/rejoin churn.  Scales to the ≥10⁵-update runs the revision
  latency benchmark drives.
* :func:`link_rss_wobble` — the narrowest possible dirty region: one
  client's association pair re-measured over and over (the
  "single-link RSS delta" of the ≥5x incremental-speedup criterion).
* :func:`mobility_events` — a :func:`repro.topology.mobility.linear_drift`
  walk replayed as ``RssDelta`` events, making mobility traces a
  first-class event source without the topology layer importing the
  service.

Generators read the seed state's RSS table and work on private
*copies* (rows, membership), so building a scenario never perturbs
the state the engine will actually run on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..topology.links import Link
from ..topology.mobility import linear_drift
from ..topology.propagation import LogDistanceModel, Position
from ..topology.trace import SyntheticTrace
from .events import (Associate, ControllerEvent, Disassociate, QueueUpdate,
                     RssDelta)
from .state import NetworkState


@dataclass
class ChurnConfig:
    """Mix and pacing of the synthetic event stream."""

    updates: int = 10_000
    seed: int = 7
    start_us: float = 0.0
    mean_gap_us: float = 40.0
    p_queue: float = 0.90
    p_rss: float = 0.07
    #: Remaining probability mass is membership churn (leave/rejoin).
    max_backlog: int = 8
    rss_jitter_db: float = 2.0


def churn_events(state: NetworkState,
                 config: Optional[ChurnConfig] = None
                 ) -> List[ControllerEvent]:
    """A seeded mixed stream of controller events.

    Tracks its own ground truth (RSS rows copy, membership copy) so the
    stream is self-consistent: queue reports only for links that
    exist at that point, RSS jitter accumulates on the copy, departed
    clients rejoin their original AP with their current (jittered)
    RSS rows.
    """
    cfg = config if config is not None else ChurnConfig()
    rng = random.Random(cfg.seed)
    rss = [list(row) for row in state.table.dbm]
    n = len(rss)
    clients: Dict[int, int] = dict(state.clients)
    parked: Dict[int, int] = {}      # departed client -> home AP
    links: List[Link] = list(state.links)
    out: List[ControllerEvent] = []
    t = cfg.start_us

    def emit_queue() -> None:
        link = links[rng.randrange(len(links))]
        out.append(QueueUpdate(t_us=t, src=link.src, dst=link.dst,
                               backlog=float(rng.randint(0,
                                                         cfg.max_backlog))))

    def emit_rss() -> None:
        node = sorted(clients)[rng.randrange(len(clients))]
        rss_to: Dict[int, float] = {}
        rss_from: Dict[int, float] = {}
        for other in range(n):
            if other == node:
                continue
            rss[node][other] += rng.gauss(0.0, cfg.rss_jitter_db)
            rss_to[other] = rss[node][other]
            rss[other][node] += rng.gauss(0.0, cfg.rss_jitter_db)
            rss_from[other] = rss[other][node]
        out.append(RssDelta(t_us=t, node=node, rss_to=rss_to,
                            rss_from=rss_from))

    def emit_membership() -> None:
        rejoin = parked and (len(clients) <= 1 or rng.random() < 0.5)
        if rejoin:
            client = sorted(parked)[rng.randrange(len(parked))]
            ap = parked.pop(client)
            clients[client] = ap
            links.append(Link(ap, client))
            links.append(Link(client, ap))
            out.append(Associate(
                t_us=t, client=client, ap=ap,
                rss_to={o: rss[client][o] for o in range(n) if o != client},
                rss_from={o: rss[o][client]
                          for o in range(n) if o != client}))
        elif len(clients) > 1:
            client = sorted(clients)[rng.randrange(len(clients))]
            parked[client] = clients.pop(client)
            gone = {l for l in links if client in (l.src, l.dst)}
            links[:] = [l for l in links if l not in gone]
            out.append(Disassociate(t_us=t, client=client))
        else:
            emit_queue()

    for _ in range(cfg.updates):
        t += rng.expovariate(1.0 / cfg.mean_gap_us)
        draw = rng.random()
        if draw < cfg.p_queue or not clients:
            emit_queue()
        elif draw < cfg.p_queue + cfg.p_rss:
            emit_rss()
        else:
            emit_membership()
    return out


def link_rss_wobble(state: NetworkState, client: int, updates: int,
                    seed: int = 0, start_us: float = 0.0,
                    gap_us: float = 500.0,
                    jitter_db: float = 1.5) -> List[RssDelta]:
    """Single-link deltas: re-measure one association pair repeatedly.

    Each event touches only the ``(client, ap)`` table entries, so
    the dirty region per epoch is exactly the client's two links —
    the workload the ≥5x incremental-vs-full criterion is stated
    over.
    """
    ap = state.clients[client]
    rng = random.Random(seed ^ (client * 2_654_435_761))
    to_ap = state.table.dbm[client][ap]
    from_ap = state.table.dbm[ap][client]
    out: List[RssDelta] = []
    t = start_us
    for _ in range(updates):
        t += gap_us
        to_ap += rng.gauss(0.0, jitter_db)
        from_ap += rng.gauss(0.0, jitter_db)
        out.append(RssDelta(t_us=t, node=client,
                            rss_to={ap: to_ap}, rss_from={ap: from_ap}))
    return out


def mobility_events(trace: SyntheticTrace, node: int, to_pos: Position,
                    steps: int, interval_us: float,
                    start_us: float = 0.0,
                    model: Optional[LogDistanceModel] = None,
                    tx_power_dbm: float = 15.0,
                    seed: int = 0) -> List[RssDelta]:
    """A linear drift of ``node``, snapshotted into ``RssDelta`` events.

    Walks a *copy* of the trace (the caller's ground truth is not
    perturbed) and emits the node's full refreshed row/column after
    every hop.
    """
    work = SyntheticTrace(rss_dbm=trace.rss_dbm.copy(),
                          positions=list(trace.positions),
                          comm_threshold_dbm=trace.comm_threshold_dbm)
    n = work.n_nodes
    out: List[RssDelta] = []
    t = start_us
    for _step, _pos in linear_drift(work, node, to_pos, steps,
                                    model=model,
                                    tx_power_dbm=tx_power_dbm, seed=seed):
        t += interval_us
        out.append(RssDelta(
            t_us=t, node=node,
            rss_to={o: float(work.rss_dbm[node, o])
                    for o in range(n) if o != node},
            rss_from={o: float(work.rss_dbm[o, node])
                      for o in range(n) if o != node}))
    return out
