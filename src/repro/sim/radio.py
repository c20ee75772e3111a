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


@dataclass(slots=True)
class Reception:
    """Book-keeping for one frame being tracked at this radio."""

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
    interrupted_by_tx: bool = False
    # Running maximum of the interference power (total incoming minus
    # this frame, noise excluded) seen over the airtime.  Negative
    # means "never refreshed" and leaves ``min_sinr_db`` at +inf.
    max_interference_mw: float = -1.0

    @property
    def min_sinr_db(self) -> float:
        """Minimum SINR over the airtime so far.

        Derived from the worst-case interference on read: log10 is
        monotone, so the worst step in mW is the worst step in dB.  Only
        the readers (an uninterrupted TRIGGER and the locked frame) pay
        the two log10 calls, not every tracked frame.
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
        # All energy currently arriving, keyed by transmission uid, and
        # its RSS in mW under the same keys in the same order: every
        # power total is ``sum()`` over ``_incoming_mw``'s values.
        self._incoming: Dict[int, Reception] = {}
        self._incoming_mw: Dict[int, float] = {}
        self._lock: Optional[Reception] = None
        self._own_tx: Optional[Transmission] = None
        self._cs_busy = False
        self._noise_mw = self.profile.noise_mw()
        self._cs_mw = dbm_to_mw(self.profile.cs_threshold_dbm)
        self._sensitivity_dbm = self.profile.sensitivity_dbm
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
        frame = tx.frame
        kind = frame.kind
        n_signatures = 0
        if kind is FrameKind.TRIGGER:
            n_signatures = tx.n_signatures
            if n_signatures < 0:
                n_signatures = tx.n_signatures = max(
                    1, len(frame.trigger_targets())
                    + len(frame.meta.get("rop_polls", ())))
        rec = Reception(tx, rss_dbm, rss_mw, self._noise_mw, n_signatures)
        uid = tx.uid
        self._incoming[uid] = rec
        self._incoming_mw[uid] = rss_mw
        if self._own_tx is not None or self.medium.sim.now < self._sleep_until:
            rec.interrupted_by_tx = True
        elif (not n_signatures and kind is not FrameKind.QUEUE_REPORT
              and rss_dbm >= self._sensitivity_dbm):
            self._maybe_lock(rec)
        total = sum(self._incoming_mw.values())
        self._refresh_sinrs(total, n_signatures > 0)
        if not self._cs_busy:
            # Busy stays busy when a term is added (see _update_cs).
            self._update_cs(total)

    def on_energy_end(self, tx: Transmission, rss_dbm: float, rss_mw: float) -> None:
        uid = tx.uid
        rec = self._incoming.pop(uid, None)
        if rec is None:  # registered after our TX started; still tracked
            return
        del self._incoming_mw[uid]
        # No SINR refresh here: it would be a no-op (see _refresh_sinrs).
        # Carrier sense re-sums only when busy from energy: idle stays
        # idle when a term is dropped, and transmitting stays busy.
        if self._cs_busy and self._own_tx is None:
            self._update_cs()
        self._deliver(rec)

    # ------------------------------------------------------------------
    # Locking and SINR
    # ------------------------------------------------------------------
    def _maybe_lock(self, rec: Reception) -> None:
        """Lock onto ``rec`` unless a lock is held past its preamble.

        The caller has already rejected what can never lock: the
        correlation path (TRIGGER, QUEUE_REPORT), frames arriving while
        transmitting or asleep, and frames below sensitivity.
        """
        lock = self._lock
        if lock is None:
            self._lock = rec
            return
        # Preamble capture: a much stronger frame arriving while the
        # current lock is still in its preamble steals the receiver.
        if (self.medium.sim.now - lock.tx.start <= self.profile.preamble_us
                and rec.rss_mw >= lock.rss_mw * self._capture_factor):
            lock.interrupted_by_tx = True  # old frame is lost
            self._lock = rec

    def _refresh_sinrs(self, total: float, trigger_started: bool) -> None:
        """Update the running worst-case interference of every tracked
        frame at a start edge (``total`` is the summed incoming power).

        Only the interference *power* is tracked per edge; the dB-space
        minimum SINR is derived from it when read
        (:attr:`Reception.min_sinr_db`).

        End edges never refresh: dropping one non-negative term from a
        left-to-right float sum cannot raise it (rounding is monotone;
        for the compensated ``sum()`` of Python 3.12+ this is checked by
        the oracle tests, not proved), so no interference total grows
        there.  Likewise the set of overlapping signatures only grows
        when a TRIGGER starts, so overlap counts are recounted only at
        those edges.
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
        """Re-evaluate carrier sense and signal an edge to the MAC.

        Energy edges call this only where the verdict can flip: adding
        a term to the incoming sum never lowers it, dropping one never
        raises it (the same monotonicity as in :meth:`_refresh_sinrs`).
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
        return f"Radio(node={self.node_id}, {state}, incoming={len(self._incoming)})"
