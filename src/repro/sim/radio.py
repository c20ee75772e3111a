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

Half duplex: a transmitting radio hears nothing, including triggers.
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


@dataclass
class Reception:
    """Book-keeping for one frame being tracked at this radio."""

    tx: Transmission
    rss_dbm: float
    rss_mw: float
    min_sinr_db: float = float("inf")
    # Largest number of signature waveforms overlapping this frame at
    # any point in its airtime (TRIGGER frames only).  The trigger
    # detection model degrades with this count (Fig. 9).
    max_overlapping_signatures: int = 0
    interrupted_by_tx: bool = False
    # Running maximum of the interference power (total incoming minus
    # this frame, noise excluded) seen over the airtime.  min SINR is
    # derived from it once at delivery — log10 is monotone, so the
    # worst step in mW is the worst step in dB — instead of paying two
    # log10 calls per tracked frame on every energy edge.  Negative
    # means "never refreshed" and leaves ``min_sinr_db`` at +inf.
    max_interference_mw: float = -1.0
    # Cached signature count of a TRIGGER frame (targets + ROP polls),
    # so overlap accounting does not re-walk frame metadata per edge.
    n_signatures: int = 0


class Radio:
    """Half-duplex radio attached to one node."""

    def __init__(self, node_id: int, medium: Medium):
        self.node_id = node_id
        self.medium = medium
        self.profile: PhyProfile = medium.profile
        self.mac: Optional["Mac"] = None
        # All energy currently arriving, keyed by transmission uid.
        self._incoming: Dict[int, Reception] = {}
        self._lock: Optional[Reception] = None
        self._own_tx: Optional[Transmission] = None
        self._cs_busy = False
        self._noise_mw = self.profile.noise_mw()
        self._cs_mw = dbm_to_mw(self.profile.cs_threshold_dbm)
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
        return self.medium.sim.now < self._sleep_until

    def sleep_until(self, wake_time: float) -> float:
        """Power the receiver down until ``wake_time``.

        Returns the additional sleep time granted.  Sleeping while
        transmitting is refused (zero granted).
        """
        if self._own_tx is not None:
            return 0.0
        now = self.medium.sim.now
        previous = max(self._sleep_until, now)
        if wake_time <= previous:
            return 0.0
        granted = wake_time - previous
        self._sleep_until = wake_time
        self.total_sleep_us += granted
        if self._lock is not None:
            self._lock.interrupted_by_tx = True  # reception abandoned
            self._lock = None
        return granted

    @property
    def receiving(self) -> bool:
        return self._lock is not None

    def total_incoming_mw(self) -> float:
        return sum(r.rss_mw for r in self._incoming.values())

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
        if self._lock is not None:
            # Switching to TX mid-reception destroys the reception.
            self._lock.interrupted_by_tx = True
            self._lock = None
        for rec in self._incoming.values():
            # Anything arriving while we transmit is unhearable.
            rec.interrupted_by_tx = True
        tx = self.medium.transmit(self.node_id, frame)
        self._own_tx = tx
        self._update_cs()
        return tx

    def on_own_tx_end(self, tx: Transmission) -> None:
        self._own_tx = None
        self._update_cs()
        if self.mac is not None:
            self.mac.on_tx_end(tx.frame)

    # ------------------------------------------------------------------
    # Energy events from the medium
    # ------------------------------------------------------------------
    def on_energy_start(self, tx: Transmission, rss_dbm: float, rss_mw: float) -> None:
        rec = Reception(tx=tx, rss_dbm=rss_dbm, rss_mw=rss_mw)
        if self._own_tx is not None or self.asleep:
            rec.interrupted_by_tx = True
        frame = tx.frame
        if frame.kind is FrameKind.TRIGGER:
            rec.n_signatures = max(
                1, len(frame.trigger_targets())
                + len(frame.meta.get("rop_polls", ())))
        self._incoming[tx.uid] = rec
        self._maybe_lock(rec)
        total = sum(r.rss_mw for r in self._incoming.values())
        self._refresh_sinrs(total, rec.n_signatures > 0)
        self._update_cs(total)

    def on_energy_end(self, tx: Transmission, rss_dbm: float, rss_mw: float) -> None:
        rec = self._incoming.pop(tx.uid, None)
        if rec is None:  # registered after our TX started; still tracked
            return
        # No SINR refresh here: it would be a no-op (see _refresh_sinrs).
        self._update_cs()
        self._deliver(rec)

    # ------------------------------------------------------------------
    # Locking and SINR
    # ------------------------------------------------------------------
    def _maybe_lock(self, rec: Reception) -> None:
        frame = rec.tx.frame
        if frame.kind in (FrameKind.TRIGGER, FrameKind.QUEUE_REPORT):
            return  # correlation path, never locked
        if rec.interrupted_by_tx or rec.rss_dbm < self.profile.sensitivity_dbm:
            return
        if self._lock is None:
            self._lock = rec
            return
        # Preamble capture: a much stronger frame arriving while the
        # current lock is still in its preamble steals the receiver.
        in_preamble = (
            self.medium.sim.now - self._lock.tx.start <= self.profile.preamble_us
        )
        margin_mw = self._lock.rss_mw * dbm_to_mw(self.profile.capture_margin_db) / 1.0
        if in_preamble and rec.rss_mw >= margin_mw:
            self._lock.interrupted_by_tx = True  # old frame is lost
            self._lock = rec

    def _refresh_sinrs(self, total: float, trigger_started: bool) -> None:
        """Update the running worst-case interference of every tracked
        frame at a start edge (``total`` is the summed incoming power).

        Only the interference *power* is tracked per edge; the dB-space
        minimum SINR is finalised once at delivery.  log10 is strictly
        monotone, so the step with the largest interference is exactly
        the step with the smallest SINR — same result, two log10 calls
        per frame instead of two per frame per energy edge.

        End edges never refresh: dropping one non-negative term from a
        left-to-right float sum cannot raise it (rounding is monotone),
        so no interference total grows there.  Likewise the set of
        overlapping signatures only grows when a TRIGGER starts, so
        overlap counts are recounted only at those edges.
        """
        recs = self._incoming.values()
        for rec in recs:
            interference = total - rec.rss_mw
            if interference > rec.max_interference_mw:
                rec.max_interference_mw = interference
        if not trigger_started:
            return
        trigger_recs = [r for r in recs if r.n_signatures]
        for rec in trigger_recs:
            # Signatures that matter to the correlator are those of
            # comparable power: bursts more than 10 dB below this one
            # are negligible interference (Fig. 9's combining limit is
            # about same-order waveforms).
            floor_mw = rec.rss_mw / 10.0
            signatures = 0
            for other in trigger_recs:
                if other.rss_mw >= floor_mw:
                    signatures += other.n_signatures
            if signatures > rec.max_overlapping_signatures:
                rec.max_overlapping_signatures = signatures

    def _deliver(self, rec: Reception) -> None:
        if self.mac is None:
            return
        if rec.max_interference_mw >= 0.0:
            # Finalise the minimum SINR from the tracked worst-case
            # interference (see _refresh_sinrs).
            rec.min_sinr_db = mw_to_dbm(rec.rss_mw) - mw_to_dbm(
                rec.max_interference_mw + self._noise_mw)
        frame = rec.tx.frame
        if frame.kind is FrameKind.TRIGGER:
            if not rec.interrupted_by_tx:
                self.mac.on_trigger(frame, rec.min_sinr_db, rec.rss_dbm,
                                    rec.max_overlapping_signatures)
            return
        if frame.kind is FrameKind.QUEUE_REPORT:
            if not rec.interrupted_by_tx:
                self.mac.on_queue_report(frame, rec.rss_dbm)
            return
        if self._lock is not None and self._lock.tx.uid == rec.tx.uid:
            self._lock = None
            threshold = self.profile.frame_sinr_threshold_db(frame)
            ok = (not rec.interrupted_by_tx) and rec.min_sinr_db >= threshold
            tel = self._trace
            if tel.enabled:
                now = self.medium.sim.now
                if ok:
                    tel.frame_rx(now, self.node_id, frame)
                else:
                    reason = ("tx_busy" if rec.interrupted_by_tx else "sinr")
                    tel.frame_drop(now, self.node_id, frame, reason)
                    if reason == "sinr":
                        # A locked frame whose SINR dipped below
                        # threshold is the simulator's collision.
                        tel.metrics.counter("radio.collisions").inc()
            if ok:
                self.mac.on_receive(frame, rec.rss_dbm)
            else:
                self.mac.on_receive_failed(frame, rec.rss_dbm)

    # ------------------------------------------------------------------
    # Carrier sense edge detection
    # ------------------------------------------------------------------
    def _update_cs(self, total: Optional[float] = None) -> None:
        if self._own_tx is not None:
            busy = True
        else:
            if total is None:
                total = sum(r.rss_mw for r in self._incoming.values())
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
        return f"Radio(node={self.node_id}, {state}, incoming={len(self._incoming)})"
