"""The shared wireless medium.

The medium knows the RSS between every pair of nodes (from a measured
or synthetic trace, Sec. 4.2.1 of the paper) and fans transmissions
out to every radio that can hear them.  Radios then track per-frame
SINR and decide reception; the medium itself is purely a broadcast
fabric.

Energy below ``energy_floor_dbm`` (well under the noise floor) is
dropped at the medium to keep the event count proportional to the
number of *audible* neighbours rather than the network size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

from .. import telemetry
from .engine import Simulator
from .packet import Frame
from .phy import PhyProfile, dbm_to_mw

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .radio import Radio

RssFn = Callable[[int, int], float]

_tx_ids = itertools.count(1)


@dataclass
class Transmission:
    """One frame in flight."""

    frame: Frame
    src: int
    start: float
    end: float
    tx_power_dbm: float
    uid: int = field(default_factory=lambda: next(_tx_ids))
    # Signature count of a TRIGGER (targets + ROP polls), counted by the
    # first receiving radio and shared by the rest; -1 = not yet counted.
    n_signatures: int = -1

    @property
    def airtime_us(self) -> float:
        return self.end - self.start

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transmission) and other.uid == self.uid


class Medium:
    """Broadcast fabric connecting all radios through an RSS matrix.

    Parameters
    ----------
    sim:
        The simulation engine.
    profile:
        PHY profile shared by every node on this channel.
    rss_dbm:
        ``rss_dbm(tx_id, rx_id)`` returns the received signal strength
        in dBm at ``rx_id`` when ``tx_id`` transmits at the profile's
        nominal power.  Return ``-inf`` (or anything below the energy
        floor) for unreachable pairs.
    """

    def __init__(self, sim: Simulator, profile: PhyProfile, rss_dbm: RssFn,
                 energy_floor_dbm: float = -105.0):
        self.sim = sim
        self.profile = profile
        self._rss_dbm = rss_dbm
        self.energy_floor_dbm = energy_floor_dbm
        self._radios: Dict[int, "Radio"] = {}
        self._reach_cache: Dict[int, List[Tuple["Radio", float, float]]] = {}
        self.active: Dict[int, Transmission] = {}
        self._trace = telemetry.current()

    # ------------------------------------------------------------------
    # Registration / topology
    # ------------------------------------------------------------------
    def register(self, radio: "Radio") -> None:
        if radio.node_id in self._radios:
            raise ValueError(f"duplicate radio for node {radio.node_id}")
        self._radios[radio.node_id] = radio
        self._reach_cache.clear()

    def rss_dbm(self, tx_id: int, rx_id: int) -> float:
        """RSS at ``rx_id`` for a transmission from ``tx_id``."""
        return self._rss_dbm(tx_id, rx_id)

    def invalidate_topology(self) -> None:
        """Drop cached reachability after the RSS ground truth changed
        (node mobility)."""
        self._reach_cache.clear()

    def audible(self, tx_id: int) -> List[Tuple["Radio", float, float]]:
        """Radios that hear ``tx_id`` above the energy floor.

        Returns ``(radio, rss_dbm, rss_mw)`` triples; cached because
        the RSS matrix is static between mobility events (call
        :meth:`invalidate_topology` after one).
        """
        cached = self._reach_cache.get(tx_id)
        if cached is not None:
            return cached
        reach = []
        for node_id, radio in self._radios.items():
            if node_id == tx_id:
                continue
            rss = self._rss_dbm(tx_id, node_id)
            if rss >= self.energy_floor_dbm:
                reach.append((radio, rss, dbm_to_mw(rss)))
        self._reach_cache[tx_id] = reach
        return reach

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, src_id: int, frame: Frame) -> Transmission:
        """Put ``frame`` on the air from node ``src_id``.

        Every audible radio sees the energy immediately; the end of the
        transmission is scheduled after the frame's airtime.  Returns
        the :class:`Transmission` so the caller (the source radio) can
        observe its own airtime.
        """
        airtime = self.profile.frame_airtime_us(frame)
        tx = Transmission(
            frame=frame,
            src=src_id,
            start=self.sim.now,
            end=self.sim.now + airtime,
            tx_power_dbm=self.profile.tx_power_dbm,
        )
        self.active[tx.uid] = tx
        tel = self._trace
        if tel.enabled:
            # The frame_tx event reads the frame's causal origin from
            # meta; its own id rides back on the frame so receivers
            # (frame_rx/drop, detections, ACKs) can point at it.
            frame.meta[telemetry.TX_META_KEY] = tel.frame_tx(
                self.sim.now, src_id, frame, airtime)
            metrics = tel.metrics
            metrics.counter("medium.tx_frames").inc()
            metrics.counter("medium.airtime_us").inc(airtime)
        reach = self.audible(src_id)
        for radio, rss_dbm, rss_mw in reach:
            radio.on_energy_start(tx, rss_dbm, rss_mw)
        # The reach list captured at transmit time rides along with the
        # end-of-frame event: a mid-flight invalidate_topology() must
        # not make the end fan-out disagree with the start fan-out.
        self.sim.schedule(airtime, self._finish, tx, reach)
        return tx

    def _finish(self, tx: Transmission,
                reach: List[Tuple["Radio", float, float]]) -> None:
        del self.active[tx.uid]
        for radio, rss_dbm, rss_mw in reach:
            radio.on_energy_end(tx, rss_dbm, rss_mw)
        src_radio = self._radios.get(tx.src)
        if src_radio is not None:
            src_radio.on_own_tx_end(tx)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def radios(self) -> Dict[int, "Radio"]:
        return dict(self._radios)

    def radio(self, node_id: int) -> "Radio":
        return self._radios[node_id]
