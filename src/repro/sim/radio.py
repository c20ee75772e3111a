"""Per-node radio: carrier sensing, frame locking, SINR tracking.

The radio is the boundary between the analogue world (energy arriving
from the medium) and the MAC.  It implements:

* **Carrier sense** — the channel is busy when the summed incoming
  power crosses the profile's CS threshold, or while transmitting.
  MACs get edge-triggered ``on_channel_busy`` / ``on_channel_idle``
  callbacks (DCF freezes its backoff on these).

* **Frame locking** — an idle radio locks onto the first frame whose
  RSS clears the sensitivity floor.  While locked, the minimum SINR
  over the frame's airtime is tracked; at the end the frame is
  delivered iff that minimum stays above the rate's threshold.  A much
  stronger frame arriving during the locked frame's preamble steals
  the lock (preamble capture), which is how real 802.11 radios behave
  and matters for DCF collision outcomes.

* **Signature correlation path** — TRIGGER and QUEUE_REPORT frames
  bypass locking entirely.  Real DOMINO nodes run a continuous
  correlator bank for their own Gold-code signature (Sec. 3.2), which
  detects signatures through collisions that destroy packets, and the
  ROP queue reports are *designed* to overlap at the AP (Fig. 4).  The
  radio therefore tracks these frames' SINR separately and hands them
  to the MAC with their interference context; detection is decided by
  the MAC's calibrated models.

Half duplex: a transmitting or sleeping radio hears nothing, including
triggers.

Every frame in the air is a term of the incoming power sum, but the
radio keeps a :class:`Reception` only for what the MAC can read: the
locked frame and the correlation-path frames.  A data frame that does
not lock is only a power term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from .. import telemetry
from .medium import Medium, Transmission
from .packet import Frame, FrameKind
from .phy import PhyProfile, dbm_to_mw, mw_to_dbm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mac.base import Mac


@dataclass(slots=True)
class Reception:
    """Book-keeping for the locked frame or a correlation-path frame."""

    tx: Transmission
    rss_dbm: float
    rss_mw: float
    # Noise floor of the receiving radio (for ``min_sinr_db``).
    noise_mw: float
    # Signature count of a TRIGGER frame (targets + ROP polls; 0 for
    # every other kind), so overlap accounting does not re-walk frame
    # metadata per edge.
    n_signatures: int = 0
    # Largest number of signature waveforms overlapping this frame at
    # any point in its airtime (TRIGGER frames only).  The trigger
    # detection model degrades with this count (Fig. 9).
    max_overlapping_signatures: int = 0
    # A correlation-path frame that the radio's own transmission or
    # sleep cut (wholly or partly) is never handed to the MAC.
    interrupted: bool = False
    # Running maximum of the interference power (total incoming minus
    # this frame, noise excluded) seen over the airtime.  Negative
    # means "never refreshed" and leaves ``min_sinr_db`` at +inf.
    max_interference_mw: float = -1.0

    @property
    def min_sinr_db(self) -> float:
        """Minimum SINR over the airtime so far.

        Derived from the worst-case interference on read: log10 is
        monotone, so the worst step in mW is the worst step in dB.
        """
        if self.max_interference_mw < 0.0:
            return float("inf")
        return mw_to_dbm(self.rss_mw) - mw_to_dbm(
            self.max_interference_mw + self.noise_mw)


class Radio:
    """Half-duplex radio attached to one node."""

    def __init__(self, node_id: int, medium: Medium):
        self.node_id = node_id
        self.medium = medium
        self.profile: PhyProfile = medium.profile
        self.mac: Optional["Mac"] = None
        # RSS in mW of all energy currently arriving, keyed by
        # transmission uid in arrival order: every power total is
        # ``sum()`` over its values.
        self._incoming_mw: Dict[int, float] = {}
        self._lock: Optional[Reception] = None
        # TRIGGER and QUEUE_REPORT frames in the air, interrupted or
        # not, and the uninterrupted TRIGGERs: with the lock, the only
        # frames whose interference is tracked.
        self._correlated: Dict[int, Reception] = {}
        self._live_triggers: Dict[int, Reception] = {}
        self._own_tx: Optional[Transmission] = None
        self._cs_busy = False
        self._sim = medium.sim
        self._noise_mw = self.profile.noise_mw()
        self._cs_mw = dbm_to_mw(self.profile.cs_threshold_dbm)
        self._sensitivity_dbm = self.profile.sensitivity_dbm
        self._preamble_us = self.profile.preamble_us
        self._capture_factor = dbm_to_mw(self.profile.capture_margin_db)
        # Power save (Sec. 5 energy saving): while asleep the radio
        # hears nothing; the MAC schedules sleep windows it knows are
        # free of involvement.
        self._sleep_until = 0.0
        self.total_sleep_us = 0.0
        self._trace = telemetry.current()
        medium.register(self)

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def transmitting(self) -> bool:
        return self._own_tx is not None

    @property
    def asleep(self) -> bool:
        return self._sim.now < self._sleep_until

    def sleep_until(self, wake_time: float) -> float:
        """Power the receiver down until ``wake_time``.

        Returns the additional sleep time granted.  Sleeping while
        transmitting is refused (zero granted).  Like a transmission,
        a granted sleep abandons every reception in progress.
        """
        if self._own_tx is not None:
            return 0.0
        previous = max(self._sleep_until, self._sim.now)
        if wake_time <= previous:
            return 0.0
        granted = wake_time - previous
        self._sleep_until = wake_time
        self.total_sleep_us += granted
        self._interrupt()
        return granted

    @property
    def receiving(self) -> bool:
        return self._lock is not None

    def total_incoming_mw(self) -> float:
        return sum(self._incoming_mw.values())

    def channel_busy(self) -> bool:
        """Carrier-sense verdict right now."""
        if self._own_tx is not None:
            return True
        return self.total_incoming_mw() >= self._cs_mw

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> Transmission:
        """Start transmitting ``frame``.  Aborts any ongoing reception."""
        if self._own_tx is not None:
            raise RuntimeError(f"node {self.node_id} is already transmitting")
        self._interrupt()
        tx = self.medium.transmit(self.node_id, frame)
        self._own_tx = tx
        self._update_cs()
        return tx

    def on_own_tx_end(self, tx: Transmission) -> None:
        self._own_tx = None
        self._update_cs()
        if self.mac is not None:
            self.mac.on_tx_end(tx.frame)

    def _interrupt(self) -> None:
        """Abandon every reception in progress (switching to TX or
        sleep): the lock is dropped and no correlation-path frame in
        the air reaches the MAC."""
        self._lock = None
        for rec in self._correlated.values():
            rec.interrupted = True
        self._live_triggers.clear()

    # ------------------------------------------------------------------
    # Energy events from the medium
    # ------------------------------------------------------------------
    def on_energy_start(self, tx: Transmission, rss_dbm: float, rss_mw: float) -> None:
        """Add the frame to the power sum; give it a :class:`Reception`
        only if it locks or is on the correlation path.  Refresh the
        interference of the lock and the live TRIGGERs; with neither and
        carrier sense busy (busy stays busy when a term is added), skip
        the sum."""
        uid = tx.uid
        incoming = self._incoming_mw
        incoming[uid] = rss_mw
        frame = tx.frame
        kind = frame.kind
        deaf = self._own_tx is not None or self._sim.now < self._sleep_until
        trigger_started = kind is FrameKind.TRIGGER
        if trigger_started or kind is FrameKind.QUEUE_REPORT:
            n_signatures = 0
            if trigger_started:
                n_signatures = tx.n_signatures
                if n_signatures < 0:
                    n_signatures = tx.n_signatures = max(
                        1, len(frame.trigger_targets())
                        + len(frame.meta.get("rop_polls", ())))
            rec = Reception(tx, rss_dbm, rss_mw, self._noise_mw,
                            n_signatures, interrupted=deaf)
            self._correlated[uid] = rec
            if trigger_started and not deaf:
                self._live_triggers[uid] = rec
        elif not deaf and rss_dbm >= self._sensitivity_dbm:
            lock = self._lock
            # Preamble capture: a much stronger frame arriving while the
            # current lock is still in its preamble steals the receiver
            # (the old frame is lost).
            if lock is None or (
                    self._sim.now - lock.tx.start <= self._preamble_us
                    and rss_mw >= lock.rss_mw * self._capture_factor):
                self._lock = Reception(tx, rss_dbm, rss_mw, self._noise_mw)
        lock = self._lock
        live = self._live_triggers
        if lock is None and not live and self._cs_busy:
            return
        total = sum(incoming.values())
        if lock is not None:
            interference = total - lock.rss_mw
            if interference > lock.max_interference_mw:
                lock.max_interference_mw = interference
        for rec in live.values():
            interference = total - rec.rss_mw
            if interference > rec.max_interference_mw:
                rec.max_interference_mw = interference
        if trigger_started and live:
            # Only a starting TRIGGER adds signatures to the air.  Those
            # that matter to the correlator are of comparable power:
            # bursts more than 10 dB below this one are negligible
            # interference (Fig. 9's combining limit is about same-order
            # waveforms).  Interrupted TRIGGERs are still on the air, so
            # they count.
            correlated = self._correlated.values()
            for rec in live.values():
                floor_mw = rec.rss_mw / 10.0
                signatures = 0
                for other in correlated:
                    if other.rss_mw >= floor_mw:
                        signatures += other.n_signatures
                if signatures > rec.max_overlapping_signatures:
                    rec.max_overlapping_signatures = signatures
        if not self._cs_busy:
            self._update_cs(total)

    def on_energy_end(self, tx: Transmission, rss_dbm: float, rss_mw: float) -> None:
        """Drop the frame from the power sum and deliver it if it is the
        lock or an uninterrupted correlation-path frame.  Dropping a
        non-negative term cannot raise a float sum, so no interference
        maximum grows here and nothing is refreshed."""
        uid = tx.uid
        if self._incoming_mw.pop(uid, None) is None:
            return
        # Carrier sense re-sums only when busy from energy: idle stays
        # idle when a term is dropped, and transmitting stays busy.
        if self._cs_busy and self._own_tx is None:
            self._update_cs()
        mac = self.mac
        lock = self._lock
        if lock is not None and lock.tx is tx:
            # A held lock is never interrupted: transmit, sleep and
            # preamble capture all release or replace it.
            self._lock = None
            if mac is None:
                return
            frame = tx.frame
            ok = lock.min_sinr_db >= self.profile.frame_sinr_threshold_db(frame)
            tel = self._trace
            if tel.enabled:
                if ok:
                    tel.frame_rx(self._sim.now, self.node_id, frame)
                else:
                    tel.frame_drop(self._sim.now, self.node_id, frame, "sinr")
                    # A locked frame whose SINR dipped below threshold
                    # is the simulator's collision.
                    tel.metrics.counter("radio.collisions").inc()
            if ok:
                mac.on_receive(frame, lock.rss_dbm)
            else:
                mac.on_receive_failed(frame, lock.rss_dbm)
            return
        rec = self._correlated.pop(uid, None)
        if rec is None or rec.interrupted:
            return
        if rec.n_signatures:  # a TRIGGER (it has at least one)
            del self._live_triggers[uid]
            if mac is not None:
                mac.on_trigger(tx.frame, rec.min_sinr_db, rec.rss_dbm,
                               rec.max_overlapping_signatures)
        elif mac is not None:
            mac.on_queue_report(tx.frame, rec.rss_dbm)

    # ------------------------------------------------------------------
    # Carrier sense edge detection
    # ------------------------------------------------------------------
    def _update_cs(self, total: Optional[float] = None) -> None:
        """Re-evaluate carrier sense and signal an edge to the MAC.

        Energy edges call this only where the verdict can flip: adding
        a term to the incoming sum never lowers it, dropping one never
        raises it.
        """
        if self._own_tx is not None:
            busy = True
        else:
            if total is None:
                total = sum(self._incoming_mw.values())
            busy = total >= self._cs_mw
        if busy == self._cs_busy:
            return
        self._cs_busy = busy
        if self.mac is None:
            return
        if busy:
            self.mac.on_channel_busy()
        else:
            self.mac.on_channel_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "tx" if self.transmitting else ("rx" if self.receiving else "idle")
        return f"Radio(node={self.node_id}, {state}, incoming={len(self._incoming_mw)})"
