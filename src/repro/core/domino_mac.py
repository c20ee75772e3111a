"""The DOMINO MAC: trigger-driven slot execution at each node.

This is the runtime of relative scheduling (Sec. 3.2/3.4):

* a node transmits in slot ``s`` when it detects its own signature
  followed by START (modelled by the calibrated
  :class:`~repro.core.trigger_model.TriggerDetectionModel`), one WiFi
  slot after the trigger burst — or one ROP-slot later when the burst
  ended with the ROP signature;
* "the transmitter uses the last correctly received trigger as time
  reference": every detection *replaces* the planned start, which is
  how chains re-align and wired-backbone jitter heals (Fig. 11);
* at the end of its slot (fixed offset: data airtime + SIFS + ACK +
  one slot, Fig. 8) a node broadcasts its trigger duty — the combined
  signatures of the next-slot senders it is responsible for;
* an entry with an empty queue sends a header-only fake packet; fake
  or real, the slot's timing is identical so alignment is preserved;
* a missed ACK re-queues the packet at the head: the next trigger for
  the same destination retransmits it (Sec. 3.5 "Missed ACKs");
* polling APs run ROP in interposed polling slots and forward decoded
  queue reports to the controller over the wire.

Implementation notes (honesty of the model):

* Real signatures carry no slot number; nodes infer slot position
  from fixed-duration slot timing.  Frames here carry ``meta['slot']``
  so the simulation binds a detection to the right schedule entry,
  while *whether* the detection happens comes from the calibrated
  model — the same division of labour as the paper's ns-3 setup.
* Client programs ride on AP frames (S1 samples, Fig. 8) in the real
  system; the simulation delivers them at schedule-distribution time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..mac.base import Mac
from ..telemetry import ORIGIN_META_KEY, TX_META_KEY
from ..sim.engine import Event, Simulator
from ..sim.medium import Medium
from ..sim.node import Node
from ..sim.packet import (MAC_HEADER_BYTES, Frame, FrameKind, ack_frame,
                          fake_frame)
from ..sim.phy import PhyProfile
from .coexistence import CopOccupancyMeter
from .relative_schedule import NodeProgram, SlotEntry, TriggerDuty
from .rop import ReportObservation, RopDecoder, rop_slot_duration_us
from .trigger_model import TriggerDetectionModel

#: ``frame.meta`` key on queue reports: the ``rop_poll`` event id of
#: the round being answered, so the AP's joint decode can point its
#: ``rop_decode.cause`` at the poll (telemetry-private, v3 spans).
_POLL_META_KEY = "_tel_poll"


@dataclass
class SlotTiming:
    """Fixed intra-slot layout shared by every node (Sec. 3.5 assumes
    equal-airtime packets; the converter's virtual packets make it so)."""

    data_airtime_us: float
    ack_airtime_us: float
    sifs_us: float
    slot_us: float
    trigger_burst_us: float
    rop_slot_us: float

    @property
    def trigger_offset_us(self) -> float:
        """Slot start -> trigger burst start (Fig. 8 layout)."""
        return (self.data_airtime_us + self.sifs_us + self.ack_airtime_us
                + self.slot_us)

    @property
    def slot_duration_us(self) -> float:
        """Slot start -> next slot's nominal start."""
        return self.trigger_offset_us + self.trigger_burst_us + self.slot_us

    @classmethod
    def from_profile(cls, profile: PhyProfile,
                     payload_bytes: int) -> "SlotTiming":
        data_bytes = MAC_HEADER_BYTES + payload_bytes
        return cls(
            data_airtime_us=profile.bytes_airtime_us(
                data_bytes, profile.data_rate_mbps),
            ack_airtime_us=profile.ack_airtime_us(),
            sifs_us=profile.sifs_us,
            slot_us=profile.slot_us,
            trigger_burst_us=2.0 * profile.signature_us,
            rop_slot_us=rop_slot_duration_us(profile),
        )


@dataclass
class DominoStats:
    data_tx: int = 0
    fake_tx: int = 0
    triggers_sent: int = 0
    triggers_detected: int = 0
    triggers_missed: int = 0        # targeted, detection draw failed
    self_starts: int = 0
    acks_sent: int = 0
    ack_timeouts: int = 0
    successes: int = 0
    polls_sent: int = 0
    reports_sent: int = 0
    reports_decoded: int = 0
    reports_failed: int = 0
    skipped_busy: int = 0           # planned send aborted: radio busy
    sleep_us: float = 0.0           # Sec. 5 energy saving


class DominoMac(Mac):
    """One DOMINO node (AP or client)."""

    START_DELAY_US = 100.0          # self-start offset after batch arrival

    def __init__(self, sim: Simulator, node: Node, medium: Medium,
                 trigger_model: Optional[TriggerDetectionModel] = None,
                 payload_bytes: int = 512,
                 queue_capacity: int = 100,
                 seed: Optional[int] = None):
        super().__init__(sim, node, medium, queue_capacity)
        self.trigger_model = (trigger_model if trigger_model is not None
                              else TriggerDetectionModel())
        self.timing = SlotTiming.from_profile(self.profile, payload_bytes)
        self.stats = DominoStats()
        self._rng = random.Random(
            seed if seed is not None else sim.rng.getrandbits(64)
        )
        # Merged program state across batches.
        self._send_entries: Dict[int, SlotEntry] = {}
        self._recv_entries: Dict[int, SlotEntry] = {}
        self._duties: Dict[int, TriggerDuty] = {}
        self._rop_slots: Set[int] = set()
        self._rop_wait: Set[int] = set()
        self._self_trigger: Set[int] = set()
        self._planned: Dict[int, Event] = {}
        self._planned_polls: Dict[int, Event] = {}
        self._executed: Set[int] = set()
        self._polls_done: Set[int] = set()
        self._duty_fired: Set[int] = set()
        self._max_slot_seen = -1
        self._awaiting_ack: Optional[Tuple[Frame, int]] = None
        self._ack_timer: Optional[Event] = None
        self._batches_started: Set[int] = set()
        self._current_batch_first_slot: Optional[int] = None
        self._current_batch_id: Optional[int] = None
        # ROP machinery (APs only).
        self.rop_decoder: Optional[RopDecoder] = None
        self.subchannel_of_client: Dict[int, int] = {}
        self.my_subchannel: Optional[int] = None
        # Poll sets (Sec. 3.5): with more than 24 clients the AP polls
        # one set per polling action, round-robin.
        self.n_poll_sets: int = 1
        self.my_poll_set: int = 0
        self._next_poll_set: int = 0
        # Wiring to the controller (set by the controller at build time).
        self.send_to_controller: Optional[Callable[[Any], None]] = None
        self._report_pending = False
        self._rop_buffer: List[ReportObservation] = []
        self._rop_decode_event: Optional[Event] = None
        # Sec. 5 coexistence: NAV horizon for the current CFP and the
        # contention-period occupancy meter.
        self._cfp_end: Optional[float] = None
        self._cop_meter = CopOccupancyMeter()
        # Sec. 5 energy saving: controller-granted sleep windows,
        # keyed by their first slot.
        self._sleep_windows: Dict[int, int] = {}
        # Sec. 5 mobility: beacon-campaign observations (None outside
        # a campaign).
        self._observations: Optional[Dict[int, float]] = None

    # ==================================================================
    # Program loading
    # ==================================================================
    def load_program(self, program: NodeProgram) -> None:
        """Merge a batch program (wire arrival or S1 hand-off)."""
        self._send_entries.update(program.send_slots)
        self._recv_entries.update(program.recv_slots)
        self._duties.update(program.duties)
        self._rop_slots.update(program.rop_slots)
        self._rop_wait.update(program.rop_wait_slots)
        self._self_trigger.update(program.self_trigger_slots)
        self._current_batch_first_slot = program.first_slot_index
        self._current_batch_id = program.batch_id
        if program.cfp_end_us is not None:
            self._cfp_end = program.cfp_end_us
        for first, last in program.sleep_windows:
            self._sleep_windows[first] = last
        self._prune(program.last_slot_index)
        if program.initial:
            self._self_start(program)
        elif self.node.is_ap:
            self._arm_entry_watchdogs(program)

    # Slot clock: (slot index, start time) of the most recent slot this
    # node anchored; used to estimate when future slots are due.
    _last_anchor: float = float("-inf")
    _slot_clock: Optional[Tuple[int, float]] = None

    def _note_slot(self, slot: int, slot_start: float) -> None:
        if self._slot_clock is None or slot >= self._slot_clock[0]:
            self._slot_clock = (slot, slot_start)
        self._maybe_sleep(slot, slot_start)

    def _maybe_sleep(self, slot: int, slot_start: float) -> None:
        """Sec. 5 energy saving: if a granted sleep window covers the
        next slot, power down through its remainder (waking a guard
        slot early — slot estimates drift slightly and missing one's
        own trigger costs more than a slot of idle listening)."""
        last = None
        for first, window_last in self._sleep_windows.items():
            if first <= slot + 1 <= window_last:
                last = window_last
                del self._sleep_windows[first]
                break
        if last is None:
            return
        per_slot = self.timing.slot_duration_us
        sleep_from = slot_start + per_slot
        wake_at = slot_start + (last + 1 - slot) * per_slot - per_slot * 0.5
        if wake_at <= max(sleep_from, self.sim.now):
            return
        self.sim.schedule_at(max(sleep_from, self.sim.now),
                             self._enter_sleep, wake_at)

    def _enter_sleep(self, wake_at: float) -> None:
        granted = self.radio.sleep_until(wake_at)
        self.stats.sleep_us += granted

    def _expected_slot_time(self, slot: int) -> float:
        """Upper-bound estimate of when ``slot`` should start.

        Uses the node's slot clock and charges every intervening slot a
        full ROP-slot allowance — deliberately generous so the
        watchdog only fires when the chain is truly dead, never racing
        a live chain (a premature self-start collides with it).
        """
        per_slot = self.timing.slot_duration_us + self.timing.rop_slot_us
        if self._slot_clock is None:
            return self.sim.now + (self.START_DELAY_US
                                   + 2.0 * per_slot)
        last_slot, last_start = self._slot_clock
        gap = max(1, slot - last_slot)
        return last_start + gap * per_slot

    def _arm_entry_watchdogs(self, program: NodeProgram) -> None:
        """Self-start insurance for this AP's entries in a new batch."""
        for slot in sorted(program.send_slots):
            deadline = self._expected_slot_time(slot) \
                + 2.0 * self.timing.slot_duration_us
            self.sim.schedule_at(max(deadline, self.sim.now),
                                 self._entry_watchdog, slot)
            break  # one watchdog per batch: restarting its first entry
                   # re-seeds the chain; later entries follow triggers

    def _entry_watchdog(self, slot: int) -> None:
        if slot in self._executed or slot in self._planned:
            return
        if self._slot_clock is not None and self._slot_clock[0] >= slot:
            return  # chain moved past it; the entry was simply lost
        if self.sim.now - self._last_anchor < 3.0 * self.timing.slot_duration_us:
            # The network around us is alive — our entry was simply
            # dropped (missed trigger).  Executing it now, out of its
            # slot, would collide with whatever is currently on air;
            # containment is the designed behaviour (Fig. 10, point 2).
            return
        self.stats.self_starts += 1
        tel = self._trace
        cause = None
        if tel.enabled:
            cause = tel.backup_trigger(self.sim.now, self.node.node_id,
                                       slot, "watchdog")
            tel.metrics.counter("domino.backup_triggers").inc()
        self._plan_send(slot, self.sim.now, cause, "backup")

    def _self_start(self, program: NodeProgram) -> None:
        """Sec. 3.3 first batch: APs start individually.

        Downlink entry in the first slot: send at a fixed offset.
        Uplink entry whose sender is one of this AP's clients: the AP
        broadcasts the client's signature first (the duty the
        controller synthesized at ``first_slot - 1``).
        """
        first = program.first_slot_index
        base = self.sim.now + self.START_DELAY_US
        duty = self._duties.get(first - 1)
        if duty is not None and not self._duty_within(first - 1):
            self.sim.schedule(base - self.sim.now, self._fire_duty, first - 1)
        entry = self._send_entries.get(first)
        if entry is not None and first not in self._executed:
            start = base + self.timing.trigger_burst_us + self.timing.slot_us
            cause = None
            if self._trace.enabled:
                cause = self._trace.backup_trigger(
                    self.sim.now, self.node.node_id, first, "initial")
            self._plan_send(first, start, cause, "initial")

    def _duty_within(self, slot: int) -> bool:
        return slot in self._duty_fired

    def _prune(self, current_last_slot: int) -> None:
        """Drop state for slots far in the past (bounded memory)."""
        horizon = current_last_slot - 200
        for table in (self._send_entries, self._recv_entries, self._duties,
                      self._sleep_windows):
            stale = [s for s in table if s < horizon]
            for s in stale:
                del table[s]
        for collection in (self._rop_slots, self._rop_wait,
                           self._self_trigger, self._executed,
                           self._polls_done, self._duty_fired):
            stale = [s for s in collection if s < horizon]
            for s in stale:
                collection.discard(s)

    # ==================================================================
    # Trigger reception
    # ==================================================================
    def on_trigger(self, frame: Frame, sinr_db: float, rss_dbm: float,
                   overlapping_signatures: int) -> None:
        slot = frame.meta.get("slot")
        if slot is None:
            return
        if self.trigger_model.sinr_factor(sinr_db) >= 1.0:
            # Every burst ends with the common START signature, so any
            # node that hears it cleanly can pin its slot clock to it —
            # even when none of the combined signatures are its own.
            self._note_slot(slot, self.sim.now
                            - self.timing.trigger_offset_us
                            - self.timing.trigger_burst_us)
        next_slot = slot + 1
        combined = max(overlapping_signatures,
                       len(frame.trigger_targets())
                       + len(frame.meta.get("rop_polls", frozenset())))
        if (self.node.node_id in frame.trigger_targets()
                and next_slot in self._send_entries
                and next_slot not in self._executed):
            tel = self._trace
            # Explicit draw (same RNG stream as sample_detect) so the
            # model probability can ride on the sig_detect event.
            p_detect = self.trigger_model.p_detect(sinr_db, combined)
            if self._rng.random() < p_detect:
                self.stats.triggers_detected += 1
                self._last_anchor = self.sim.now
                # The burst ends a fixed offset into the triggering
                # slot, which pins our slot clock too.
                self._note_slot(slot, self.sim.now
                                - self.timing.trigger_offset_us
                                - self.timing.trigger_burst_us)
                wait = self.timing.slot_us
                if frame.meta.get("rop") or next_slot in self._rop_wait:
                    wait += self.timing.rop_slot_us
                jitter = self.trigger_model.sample_jitter_us(self._rng)
                sig_id = None
                if tel.enabled:
                    sig_id = tel.sig_detect(
                        self.sim.now, self.node.node_id, frame.src, slot,
                        sinr_db, combined, True, p_detect,
                        frame.meta.get(TX_META_KEY))
                    # Chain latency: burst end to the planned TX start.
                    tel.metrics.histogram(
                        "domino.trigger_latency_us").observe(jitter + wait)
                self._plan_send(next_slot, self.sim.now + jitter + wait,
                                sig_id, "primary")
            else:
                self.stats.triggers_missed += 1
                if tel.enabled:
                    tel.sig_detect(self.sim.now, self.node.node_id,
                                   frame.src, slot, sinr_db, combined, False,
                                   p_detect, frame.meta.get(TX_META_KEY))
                    tel.metrics.counter("domino.trigger_misses").inc()
        if (self.node.node_id in frame.meta.get("rop_polls", frozenset())
                and slot in self._rop_slots
                and slot not in self._polls_done
                and slot not in self._planned_polls):
            if self.trigger_model.sample_detect(self._rng, sinr_db, combined):
                jitter = self.trigger_model.sample_jitter_us(self._rng)
                event = self.sim.schedule(
                    jitter + self.timing.slot_us, self._execute_poll, slot,
                    frame.meta.get(TX_META_KEY)
                )
                self._planned_polls[slot] = event

    #: Two trigger time references within this window are estimates of
    #: the SAME chain timing and are averaged; beyond it they belong to
    #: different (drifted) chains and the later one wins — the paper's
    #: "last correctly received trigger as time reference" healing rule.
    MERGE_WINDOW_US = 5.0

    def _plan_send(self, slot: int, start_time: float,
                   cause: Optional[int] = None,
                   via: Optional[str] = None) -> None:
        """(Re)plan the transmission for ``slot`` at ``start_time``.

        Nearby references are *combined* (each detection is an
        unbiased timing estimate, so averaging refines it and keeps
        slot members from ratcheting apart); a reference far from the
        current plan replaces it outright, which is what re-aligns a
        node onto a chain running at a genuinely different time
        (Fig. 10's healing, Fig. 11's convergence).

        ``cause``/``via`` (v3 spans) name the reference event behind
        this plan; they ride on the scheduled callback, so a replan
        re-attributes the slot to the newest reference — the same
        "last trigger wins" rule the timing itself follows.
        """
        if slot in self._executed:
            return
        existing = self._planned.get(slot)
        planned_time = start_time
        if existing is not None:
            if abs(existing.time - start_time) <= self.MERGE_WINDOW_US:
                planned_time = (existing.time + start_time) / 2.0
            existing.cancel()
        self._planned[slot] = self.sim.schedule_at(
            max(planned_time, self.sim.now), self._execute_send, slot,
            cause, via
        )

    # ==================================================================
    # Slot execution: sender side
    # ==================================================================
    def _execute_send(self, slot: int, cause: Optional[int] = None,
                      via: Optional[str] = None) -> None:
        self._planned.pop(slot, None)
        if slot in self._executed:
            return
        entry = self._send_entries.get(slot)
        if entry is None:
            return
        if self.radio.transmitting:
            self.stats.skipped_busy += 1
            return
        self._executed.add(slot)
        self._last_anchor = self.sim.now
        self._note_slot(slot, self.sim.now)
        queue = self.queues.queue_for(entry.link.dst)
        frame: Frame
        if queue:
            frame = queue.pop()
            frame.meta["slot"] = slot
            self.stats.data_tx += 1
            fake = False
        else:
            frame = fake_frame(self.node.node_id, entry.link.dst, slot)
            self.stats.fake_tx += 1
            fake = True
        if self._cfp_end is not None and self._cfp_end > self.sim.now:
            # Coexistence: reserve the medium to the end of the CFP so
            # standard-compliant external nodes defer (Sec. 5, Fig. 15).
            frame.meta["nav_until"] = self._cfp_end
        exec_id = None
        if self._trace.enabled:
            exec_id = self._trace.slot_exec(self.sim.now, self.node.node_id,
                                            slot, entry.link.dst,
                                            fake, cause, via)
            frame.meta[ORIGIN_META_KEY] = exec_id
        self._announce_batch_start(slot, exec_id)
        self.radio.transmit(frame)
        # Duty and self-triggered continuation anchor to the slot start.
        self._schedule_slot_followups(slot, self.sim.now, exec_id)

    def _announce_batch_start(self, slot: int,
                              cause: Optional[int] = None) -> None:
        if (self.node.is_ap and self.send_to_controller is not None
                and slot == self._current_batch_first_slot
                and self._current_batch_id is not None
                and self._current_batch_id not in self._batches_started):
            self._batches_started.add(self._current_batch_id)
            self.send_to_controller({
                "type": "batch_started",
                "batch": self._current_batch_id,
                "cause": cause,
            })

    def _schedule_slot_followups(self, slot: int, slot_start: float,
                                 cause: Optional[int] = None) -> None:
        """Duty burst, self-timed poll and self-trigger continuation
        for a slot this node anchors (as sender or receiver).

        ``cause`` (v3 spans) is the anchoring event — our own
        ``slot_exec`` or the anchoring frame's ``frame_tx`` — and
        becomes the parent of everything timed off this slot.
        """
        if slot in self._duties and slot not in self._duty_fired:
            fire_at = slot_start + self.timing.trigger_offset_us
            if fire_at >= self.sim.now:
                self.sim.schedule_at(fire_at, self._fire_duty, slot, cause)
        if (slot in self._rop_slots and slot not in self._polls_done
                and slot not in self._planned_polls):
            # Self-timed poll: this AP was active in the slot, so it
            # needs no over-the-air ROP signature; the poll starts one
            # WiFi slot after the trigger burst.
            poll_at = slot_start + self.timing.slot_duration_us
            if poll_at >= self.sim.now:
                self._planned_polls[slot] = self.sim.schedule_at(
                    poll_at, self._execute_poll, slot, cause
                )
        nxt = slot + 1
        if (nxt in self._self_trigger and nxt in self._send_entries
                and nxt not in self._executed):
            wait = self.timing.slot_duration_us
            if nxt in self._rop_wait:
                wait += self.timing.rop_slot_us
            self._plan_send(nxt, slot_start + wait, cause, "self")

    def on_tx_end(self, frame: Frame) -> None:
        if frame.kind is FrameKind.DATA:
            self._awaiting_ack = (frame, frame.meta.get("slot", -1))
            self._ack_timer = self.sim.schedule(
                self.profile.ack_timeout_us(), self._ack_timeout
            )

    def _ack_timeout(self) -> None:
        self._ack_timer = None
        if self._awaiting_ack is None:
            return
        frame, _slot = self._awaiting_ack
        self._awaiting_ack = None
        self.stats.ack_timeouts += 1
        # Sec. 3.5: retransmit via the next trigger for this destination.
        retry = frame.clone_for_retry()
        self.queues.queue_for(frame.dst).requeue_front(retry)

    # ==================================================================
    # Slot execution: receiver side
    # ==================================================================
    def on_receive(self, frame: Frame, rss_dbm: float) -> None:
        if frame.kind is FrameKind.BEACON:
            if self._observations is not None:
                self._observations[frame.src] = rss_dbm
            return
        if (frame.kind is FrameKind.DATA
                and frame.dst == self.node.node_id
                and "measure_report" in frame.meta):
            # Client observation report: relay down the wire (APs).
            if self.node.is_ap and self.send_to_controller is not None:
                self.send_to_controller({
                    "type": "measure_report",
                    "observer": frame.meta["observer"],
                    "heard": frame.meta["measure_report"],
                })
            self.sim.schedule(self.profile.sifs_us, self._send_ack, frame)
            return
        if frame.kind is FrameKind.DATA and frame.dst == self.node.node_id:
            self._deliver_up(frame)
            self.sim.schedule(self.profile.sifs_us, self._send_ack, frame)
            self._anchor_receiver(frame)
            return
        if frame.kind is FrameKind.FAKE and frame.dst == self.node.node_id:
            self._anchor_receiver(frame)
            return
        if (frame.kind is FrameKind.ACK and frame.dst == self.node.node_id
                and self._awaiting_ack is not None
                and frame.seq == self._awaiting_ack[0].seq):
            if self._ack_timer is not None:
                self._ack_timer.cancel()
                self._ack_timer = None
            self._awaiting_ack = None
            self.stats.successes += 1
            return
        if frame.kind is FrameKind.POLL:
            self._resync_on_poll(frame)
            self._maybe_send_report(frame)

    def on_receive_failed(self, frame: Frame, rss_dbm: float) -> None:
        # A garbled data frame still anchors the receiver's duty timing
        # (the node knows the slot layout and saw the energy).
        if frame.kind in (FrameKind.DATA, FrameKind.FAKE) \
                and frame.dst == self.node.node_id:
            self._anchor_receiver(frame)

    def _anchor_receiver(self, frame: Frame) -> None:
        """Fire duties / self-triggers using the frame's slot timing."""
        slot = frame.meta.get("slot")
        if slot is None:
            return
        self._last_anchor = self.sim.now
        airtime = self.profile.frame_airtime_us(frame)
        slot_start = self.sim.now - airtime
        self._note_slot(slot, slot_start)
        self._schedule_slot_followups(slot, slot_start,
                                      frame.meta.get(TX_META_KEY))

    def _send_ack(self, data: Frame) -> None:
        if self.radio.transmitting:
            return
        ack = ack_frame(self.node.node_id, data.src, data.seq, flow=data.flow)
        if self._trace.enabled:
            ack.meta[ORIGIN_META_KEY] = data.meta.get(TX_META_KEY)
        self.stats.acks_sent += 1
        self.radio.transmit(ack)

    # ==================================================================
    # Trigger duty
    # ==================================================================
    def _fire_duty(self, slot: int, cause: Optional[int] = None) -> None:
        duty = self._duties.get(slot)
        if duty is None or duty.empty or slot in self._duty_fired:
            return
        if self.radio.transmitting:
            return
        self._duty_fired.add(slot)
        burst = Frame(
            kind=FrameKind.TRIGGER,
            src=self.node.node_id,
            dst=None,
            meta={
                "slot": slot,
                "targets": duty.targets,
                "rop": duty.rop_flag,
                "rop_polls": duty.rop_polls,
            },
        )
        self.stats.triggers_sent += 1
        if self._trace.enabled:
            burst.meta[ORIGIN_META_KEY] = self._trace.trigger_fire(
                self.sim.now, self.node.node_id, slot, duty.targets,
                duty.rop_flag, duty.rop_polls, cause)
        self.radio.transmit(burst)

    # ==================================================================
    # ROP execution
    # ==================================================================
    def _execute_poll(self, slot: int, cause: Optional[int] = None) -> None:
        self._planned_polls.pop(slot, None)
        if slot in self._polls_done:
            return
        if self.radio.transmitting:
            return
        self._polls_done.add(slot)
        self.stats.polls_sent += 1
        self._last_anchor = self.sim.now
        poll_set = self._next_poll_set
        self._next_poll_set = (self._next_poll_set + 1) % max(
            self.n_poll_sets, 1)
        poll = Frame(kind=FrameKind.POLL, src=self.node.node_id, dst=None,
                     meta={"ap": self.node.node_id, "slot": slot,
                           "poll_set": poll_set})
        if self._trace.enabled:
            poll.meta[ORIGIN_META_KEY] = self._trace.rop_poll(
                self.sim.now, self.node.node_id, slot, poll_set, cause)
        self.radio.transmit(poll)

    def _resync_on_poll(self, poll: Frame) -> None:
        """Adopt the polling AP's timing (reference broadcast).

        Sec. 3.1: the polling packet "behaves as a reference broadcast
        to synchronize the clients".  Because every non-polling node is
        silent during an ROP slot, the poll is the one transmission
        everyone in range can hear — the listening window that lets
        chains frozen at different offsets finally converge (the
        paper's Fig. 10 heal likewise happens while a node "is waiting
        for a polling slot").  A decoded packet timestamp is far
        sharper than a correlation peak, so no jitter is added.
        """
        slot = poll.meta.get("slot")
        if slot is None:
            return
        self._last_anchor = self.sim.now
        # Poll end -> one WiFi slot -> queue-report symbol -> one slot
        # of turnaround, then slot+1 begins (rop_slot_duration_us).
        next_start = (self.sim.now + self.profile.slot_us
                      + self.profile.rop_symbol_us + self.profile.slot_us)
        poll_airtime = self.profile.frame_airtime_us(poll)
        rop_start = self.sim.now - poll_airtime
        slot_start = (rop_start - self.timing.slot_us
                      - self.timing.trigger_burst_us
                      - self.timing.trigger_offset_us)
        self._note_slot(slot, slot_start)
        nxt = slot + 1
        if nxt in self._send_entries and nxt not in self._executed:
            self._plan_send(nxt, next_start, poll.meta.get(TX_META_KEY),
                            "poll")

    def _maybe_send_report(self, poll: Frame) -> None:
        """Client side: answer my AP's poll one slot later (Fig. 4).

        With more than 24 clients the AP polls in sets (Sec. 3.5); a
        client only answers polls addressed to its set.
        """
        if self.node.is_ap or poll.meta.get("ap") != self.node.ap_id:
            return
        if self.my_subchannel is None:
            return
        if poll.meta.get("poll_set", 0) != self.my_poll_set:
            return
        self.sim.schedule(self.profile.slot_us, self._send_report, poll)

    def _send_report(self, poll: Frame) -> None:
        if self.radio.transmitting:
            return
        backlog = self.queues.queue_for(self.node.ap_id)
        report = Frame(
            kind=FrameKind.QUEUE_REPORT,
            src=self.node.node_id,
            dst=self.node.ap_id,
            meta={
                "queue_len": backlog.rop_report(512),
                "true_backlog": len(backlog),
                "subchannel": self.my_subchannel,
                "slot": poll.meta.get("slot"),
            },
        )
        if self._trace.enabled:
            # Report tx is caused by the poll's transmission; the
            # poll's own rop_poll id rides along for the decode event.
            report.meta[ORIGIN_META_KEY] = poll.meta.get(TX_META_KEY)
            report.meta[_POLL_META_KEY] = poll.meta.get(ORIGIN_META_KEY)
        self.stats.reports_sent += 1
        self.radio.transmit(report)

    def on_queue_report(self, frame: Frame, rss_dbm: float) -> None:
        """AP side: buffer simultaneous reports, decode them jointly."""
        if not self.node.is_ap or frame.dst != self.node.node_id:
            return
        if self.rop_decoder is None:
            return
        self._rop_buffer.append(ReportObservation(
            client=frame.src,
            subchannel=frame.meta["subchannel"],
            rss_dbm=rss_dbm,
            queue_len=frame.meta["queue_len"],
        ))
        if self._rop_decode_event is None:
            self._rop_decode_event = self.sim.schedule(
                1.0, self._decode_reports, frame.meta.get("slot"),
                frame.meta.get(_POLL_META_KEY))

    def _decode_reports(self, slot: Optional[int] = None,
                        cause: Optional[int] = None) -> None:
        self._rop_decode_event = None
        observations = self._rop_buffer
        self._rop_buffer = []
        results = self.rop_decoder.decode(observations)
        decoded = {client: value for client, value in results.items()
                   if value is not None}
        self.stats.reports_decoded += len(decoded)
        self.stats.reports_failed += len(results) - len(decoded)
        if self._trace.enabled:
            self._trace.rop_decode(self.sim.now, self.node.node_id,
                                   len(decoded), len(results) - len(decoded),
                                   slot, self.rop_decoder.last_low_snr,
                                   self.rop_decoder.last_blocked, cause)
        if self.send_to_controller is not None and decoded:
            self.send_to_controller({
                "type": "rop_report",
                "ap": self.node.node_id,
                "queues": decoded,
            })

    # ==================================================================
    # Sec. 5 mobility: beacon campaign execution
    # ==================================================================
    def measure_order(self, order: Dict[str, Any]) -> None:
        """Join a measurement campaign (Sec. 5 dynamic conflict graph).

        Beacon in my assigned round, record every beacon I hear, then
        report the observations in my round of the report phase —
        clients over the air to their AP, APs straight down the wire.
        """
        my_round = None
        for index, round_nodes in enumerate(order["rounds"]):
            if self.node.node_id in round_nodes:
                my_round = index
                break
        if my_round is None:
            return
        self._observations = {}
        beacon_at = order["t0"] + my_round * order["round_us"]
        self.sim.schedule_at(max(beacon_at, self.sim.now),
                             self._send_beacon)
        report_at = (order["report0"]
                     + my_round * order["report_round_us"])
        self.sim.schedule_at(max(report_at, self.sim.now),
                             self._send_measure_report)

    def _send_beacon(self) -> None:
        if self.radio.transmitting:
            return
        self.radio.transmit(Frame(kind=FrameKind.BEACON,
                                  src=self.node.node_id, dst=None))

    def _send_measure_report(self) -> None:
        heard = self._observations if self._observations is not None else {}
        self._observations = None
        if self.node.is_ap:
            if self.send_to_controller is not None:
                self.send_to_controller({
                    "type": "measure_report",
                    "observer": self.node.node_id,
                    "heard": dict(heard),
                })
            return
        if self.radio.transmitting:
            return
        report = Frame(kind=FrameKind.DATA, src=self.node.node_id,
                       dst=self.node.ap_id,
                       payload_bytes=8 * max(len(heard), 1))
        report.meta["measure_report"] = dict(heard)
        report.meta["observer"] = self.node.node_id
        report.meta["mac_seq"] = -report.uid  # unique, bypasses enqueue
        self.radio.transmit(report)

    # ==================================================================
    # Sec. 5 coexistence: CoP occupancy measurement (APs)
    # ==================================================================
    def begin_cop_measurement(self) -> None:
        self._cop_meter.open(self.sim.now, self.radio.channel_busy())

    def end_cop_measurement(self) -> None:
        if not self._cop_meter.measuring:
            return
        busy = self._cop_meter.close(self.sim.now)
        if self.send_to_controller is not None:
            self.send_to_controller({"type": "cop_report", "busy": busy})

    def on_channel_busy(self) -> None:
        self._cop_meter.on_busy(self.sim.now)

    def on_channel_idle(self) -> None:
        self._cop_meter.on_idle(self.sim.now)

    # ==================================================================
    # Downlink queue reporting to the controller (wired)
    # ==================================================================
    REPORT_INTERVAL_US = 500.0

    def _on_enqueue(self, frame: Frame) -> None:
        if not self.node.is_ap or self.send_to_controller is None:
            return
        if not self._report_pending:
            self._report_pending = True
            self.sim.schedule(1.0, self._send_queue_report)

    def _send_queue_report(self) -> None:
        self._report_pending = False
        if self.send_to_controller is None:
            return
        backlogs = {dst: len(queue) for dst, queue in self.queues.items()}
        self.send_to_controller({
            "type": "ap_queues",
            "ap": self.node.node_id,
            "queues": backlogs,
        })
        if any(backlogs.values()):
            self._report_pending = True
            self.sim.schedule(self.REPORT_INTERVAL_US, self._send_queue_report)
