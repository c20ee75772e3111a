"""Wired backbone between the central server and the APs.

The paper models backbone latency as normally distributed with mean
285 us and "variance" 22 us (Sec. 4.2.1, following CENTAUR's
measurements); like the original CENTAUR paper we interpret the second
number as the standard deviation of the per-message latency.  This
jitter is precisely what breaks strict scheduling (Sec. 2) and what
relative scheduling is designed to absorb, so it is modelled
explicitly rather than folded into a constant.

Messages are opaque Python objects delivered by callback; ordering
between a given (src, dst) pair is *not* enforced — jitter can reorder
messages, as on a real switched LAN.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .engine import Simulator

DEFAULT_MEAN_US = 285.0
DEFAULT_STD_US = 22.0


@dataclass
class WireStats:
    messages: int = 0


class WiredBackbone:
    """Star-topology wired network: server <-> APs.

    Parameters
    ----------
    sim:
        Simulation engine.
    mean_us, std_us:
        Per-message latency distribution (truncated at ``min_us`` so a
        deep negative draw cannot produce time travel).
    seed:
        Seed for this backbone's private RNG stream.
    """

    SERVER_ID = -1

    def __init__(self, sim: Simulator, mean_us: float = DEFAULT_MEAN_US,
                 std_us: float = DEFAULT_STD_US, min_us: float = 1.0,
                 seed: Optional[int] = None):
        self.sim = sim
        self.mean_us = mean_us
        self.std_us = std_us
        self.min_us = min_us
        self._rng = random.Random(
            seed if seed is not None else sim.rng.getrandbits(64)
        )
        self._ports: Dict[int, Callable[[int, Any], None]] = {}
        self.stats = WireStats()

    def register(self, endpoint_id: int,
                 handler: Callable[[int, Any], None]) -> None:
        """Attach ``handler(src_id, message)`` as ``endpoint_id``'s inbox."""
        if endpoint_id in self._ports:
            raise ValueError(f"duplicate wired endpoint {endpoint_id}")
        self._ports[endpoint_id] = handler

    def latency_sample_us(self) -> float:
        return max(self.min_us, self._rng.gauss(self.mean_us, self.std_us))

    def send(self, src_id: int, dst_id: int, message: Any) -> float:
        """Send ``message`` from ``src_id`` to ``dst_id``.

        Returns the sampled latency (useful for tests).  Raises
        ``KeyError`` if the destination was never registered.
        """
        if dst_id not in self._ports:
            raise KeyError(f"no wired endpoint {dst_id}")
        latency = self.latency_sample_us()
        self.stats.messages += 1
        self.sim.schedule(latency, self._ports[dst_id], src_id, message)
        return latency
