"""Node mobility: move a node and update the ground-truth RSS matrix.

The paper's evaluation assumes a static conflict graph and discusses
(Sec. 5) how a real deployment would refresh it under mobility.  This
module provides the ground-truth side of that story: move a node,
recompute its row/column of the RSS matrix with the propagation
model, and invalidate the medium's reachability cache.  The
*controller* does not see any of this until a measurement campaign
(:mod:`repro.topology.measurement`) tells it.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional, Tuple

from .propagation import LogDistanceModel, Position, WallCounter
from .trace import SyntheticTrace


def move_node(trace: SyntheticTrace, node_id: int, new_pos: Position,
              model: Optional[LogDistanceModel] = None,
              tx_power_dbm: float = 15.0,
              wall_counter: Optional[WallCounter] = None,
              seed: int = 0) -> None:
    """Teleport ``node_id`` to ``new_pos`` and refresh its RSS in place.

    The matrix object is mutated (no replacement), so media built from
    ``trace.rss_fn()`` see the change immediately — modulo their
    reachability caches, which the caller must invalidate
    (``medium.invalidate_topology()``).
    """
    if not trace.positions:
        raise ValueError("trace has no positions; cannot move nodes")
    prop = model if model is not None else LogDistanceModel()
    rng = random.Random(seed ^ (node_id * 2_654_435_761))
    trace.positions[node_id] = new_pos
    for other in range(trace.n_nodes):
        if other == node_id:
            continue
        ox, oy = trace.positions[other]
        distance = math.hypot(new_pos[0] - ox, new_pos[1] - oy)
        walls = wall_counter(new_pos, (ox, oy)) if wall_counter else 0
        loss = prop.path_loss_db(distance, walls)
        shadow = rng.gauss(0.0, prop.shadowing_sigma_db)
        base = tx_power_dbm - loss - shadow
        asym = rng.gauss(0.0, prop.asymmetry_sigma_db)
        trace.rss_dbm[node_id][other] = base + asym / 2.0
        trace.rss_dbm[other][node_id] = base - asym / 2.0


def linear_drift(trace: SyntheticTrace, node_id: int, to_pos: Position,
                 steps: int,
                 model: Optional[LogDistanceModel] = None,
                 tx_power_dbm: float = 15.0,
                 wall_counter: Optional[WallCounter] = None,
                 seed: int = 0) -> Iterator[Tuple[int, Position]]:
    """Walk ``node_id`` toward ``to_pos`` in ``steps`` equal hops.

    A generator: each iteration applies one :func:`move_node` hop in
    place and yields ``(step, position)`` *after* the matrix refresh,
    so a consumer can snapshot the node's RSS row/column between hops
    — the online controller turns exactly these snapshots into
    ``RssDelta`` events, making mobility a first-class event source
    without the topology layer knowing about the service.  Each hop
    re-rolls shadowing/asymmetry with a per-step seed, so the drift is
    a fresh fading realization per position, deterministically.
    """
    if steps <= 0:
        raise ValueError("drift needs at least one step")
    if not trace.positions:
        raise ValueError("trace has no positions; cannot move nodes")
    x0, y0 = trace.positions[node_id]
    dx = (to_pos[0] - x0) / steps
    dy = (to_pos[1] - y0) / steps
    for step in range(1, steps + 1):
        pos = (x0 + dx * step, y0 + dy * step)
        move_node(trace, node_id, pos, model=model,
                  tx_power_dbm=tx_power_dbm, wall_counter=wall_counter,
                  seed=seed ^ step)
        yield step, pos
