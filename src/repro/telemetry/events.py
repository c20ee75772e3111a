"""Typed trace events and the on-disk record schema.

Every trace record is one flat JSON object::

    {"ev": "<kind>", "t": <sim time, us>, ...kind-specific fields}

The hot path (the recorder's typed ``frame_tx`` / ``sig_detect`` /
... helpers) emits plain dicts for speed; the dataclasses here are the
schema's source of truth and what the trace *tooling* parses records
back into (:func:`from_record`).

Determinism contract: every field is derived from simulation state
only — sim time, node ids, slot indices, seeded-RNG outcomes.  No
wall-clock timestamps, no process-global counters (frame ``uid``s are
process-global and deliberately excluded), no unsorted set iteration.
Two runs with the same seed and topology therefore export
byte-identical JSONL, which ``tests/telemetry/test_determinism.py``
enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Type

#: Bumped whenever a field is added/renamed; written into JSONL
#: headers so tooling can refuse traces it does not understand.
#:
#: v2 (diagnosis fields): ``sig_detect`` gained ``p`` (the detection
#: probability behind the draw) and ``rop_decode`` gained ``slot`` /
#: ``low_snr`` / ``blocked``.
#:
#: v3 (causal spans): every event gained ``id`` — the recorder's
#: per-run emission index, deterministic because emission order is —
#: and the chain-carrying events gained ``cause``, the ``id`` of the
#: event that triggered this one (``None`` for roots: dispatches,
#: watchdog restarts, the initial self-start).  ``slot_exec``
#: additionally records ``via``, the kind of reference that timed the
#: slot ("primary" detection, "backup"/"initial" restart, "self"
#: continuation, "poll" resync).  The pointers turn a flat trace into
#: per-batch trigger trees that :mod:`~repro.telemetry.analysis.causality`
#: walks for critical-path latency attribution.
#:
#: v4 (online controller): new ``sched_revision`` event — the online
#: controller service (:mod:`repro.service`) emits one per revision
#: epoch, carrying the revision version, the epoch's event count, the
#: dirty-link census, whether the revision came from the incremental
#: path or a from-scratch recompute, and the canonical batch digest
#: the incremental-vs-full equality oracle compares.  ``t`` is the
#: epoch's *virtual* event-stream time — wall-clock latency lives in
#: the metrics registry, never the trace, so replayed scenarios stay
#: byte-identical.
#:
#: v5 (live ops plane): new ``revision_phases`` event — emitted right
#: after ``sched_revision`` when the online controller runs with phase
#: timing enabled (``ServiceConfig.phase_timing`` / ``--phase-timing``),
#: breaking one revision's latency into the five controller phases
#: (membership reconciliation, conflict re-test, cache revalidation,
#: conversion incl. connector splice, digest).  The per-phase fields
#: are **wall-clock microseconds** — the one deliberate exception to
#: the no-wall-clock rule, which is why the event exists only behind
#: an explicit opt-in: traces recorded with phase timing on are for
#: live operations and latency attribution, not for byte-identical
#: replay comparison (``t`` and every other event stay virtual, so
#: filtering ``revision_phases`` out restores comparability).
#:
#: All v2/v3/v4 additions carry defaults, so older traces still parse;
#: files declaring a *newer* version are refused up front (see
#: :mod:`~repro.telemetry.jsonl`).
SCHEMA_VERSION = 5


@dataclass(frozen=True)
class TraceEvent:
    """Base: every event has a simulation timestamp in microseconds."""

    t: float

    KIND = ""


# ----------------------------------------------------------------------
# Frame lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrameTx(TraceEvent):
    """A frame was put on the air (recorded at the medium)."""

    node: int                      # transmitting node
    frame: str                     # FrameKind value ("data", "trigger", ...)
    dst: Optional[int]             # None for broadcasts
    seq: int
    slot: Optional[int]            # global slot index, if slotted
    airtime_us: float
    id: Optional[int] = None       # emission index (v3)
    #: Event that put this frame on the air (v3): the ``slot_exec`` /
    #: ``trigger_fire`` / ``rop_poll`` that decided to transmit, or the
    #: causing frame's ``frame_tx`` for reactive frames (ACKs, reports).
    cause: Optional[int] = None

    KIND = "frame_tx"


@dataclass(frozen=True)
class FrameRx(TraceEvent):
    """A locked frame decoded successfully (recorded at the radio)."""

    node: int                      # receiving node
    src: int
    frame: str
    seq: int
    slot: Optional[int]
    id: Optional[int] = None       # emission index (v3)
    cause: Optional[int] = None    # the frame's ``frame_tx`` event (v3)

    KIND = "frame_rx"


@dataclass(frozen=True)
class FrameDrop(TraceEvent):
    """A tracked frame was lost at a receiver.

    ``reason`` is one of ``sinr`` (collision / low SINR), ``tx_busy``
    (the receiver was transmitting or asleep — half duplex), matching
    the radio's two failure modes.
    """

    node: int
    src: int
    frame: str
    seq: int
    slot: Optional[int]
    reason: str
    id: Optional[int] = None       # emission index (v3)
    cause: Optional[int] = None    # the frame's ``frame_tx`` event (v3)

    KIND = "frame_drop"


# ----------------------------------------------------------------------
# Trigger chain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SignatureDetect(TraceEvent):
    """Outcome of a targeted signature-detection draw at a node.

    Emitted whether the draw succeeds (``detected=True``) or fails —
    the misses are exactly what one greps for when a chain dies.
    """

    node: int                      # listening node (slot s+1 sender)
    src: int                       # duty node that sent the burst
    slot: int                      # slot the burst belongs to
    sinr_db: float
    combined: int                  # signatures overlapping the burst
    detected: bool
    #: Model probability behind the draw (v2); lets the doctor compare
    #: the observed miss rate against the calibrated expectation.
    p: Optional[float] = None
    id: Optional[int] = None       # emission index (v3)
    #: ``frame_tx`` of the trigger burst the draw listened to (v3).
    cause: Optional[int] = None

    KIND = "sig_detect"


@dataclass(frozen=True)
class TriggerFire(TraceEvent):
    """A node broadcast its trigger duty (combined signatures)."""

    node: int
    slot: int
    targets: List[int]             # sorted next-slot senders
    rop: bool                      # burst ends with the ROP signature
    polls: List[int]               # sorted APs polled after this slot
    id: Optional[int] = None       # emission index (v3)
    #: Event that anchored the duty's timing (v3): the ``slot_exec``
    #: of the slot it follows, or the anchoring frame's ``frame_tx``.
    cause: Optional[int] = None

    KIND = "trigger_fire"


@dataclass(frozen=True)
class BackupTrigger(TraceEvent):
    """A chain was restarted outside the normal trigger path.

    ``reason``: ``watchdog`` (AP entry watchdog re-seeded a dead
    chain) or ``initial`` (first-batch self-start, Sec. 3.3).
    """

    node: int
    slot: int
    reason: str
    id: Optional[int] = None       # emission index (v3); always a root

    KIND = "backup_trigger"


@dataclass(frozen=True)
class SlotExec(TraceEvent):
    """A node executed its slot entry (data or fake transmission)."""

    node: int
    slot: int
    dst: int
    fake: bool
    id: Optional[int] = None       # emission index (v3)
    #: Event whose timing reference planned this slot (v3): the
    #: ``sig_detect`` hit, ``backup_trigger``, preceding ``slot_exec``
    #: (self-trigger) or the resyncing poll's ``frame_tx``.
    cause: Optional[int] = None
    #: How the slot was reached (v3): "primary" (signature detection),
    #: "backup" (watchdog), "initial" (first-batch self-start), "self"
    #: (self-triggered continuation) or "poll" (ROP resync).
    via: Optional[str] = None

    KIND = "slot_exec"


# ----------------------------------------------------------------------
# ROP
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RopPoll(TraceEvent):
    """An AP opened an ROP polling round."""

    node: int
    slot: int
    poll_set: int
    id: Optional[int] = None       # emission index (v3)
    #: Event that timed the round (v3): the ROP signature's burst
    #: ``frame_tx``, or the anchoring slot's reference (self-timed).
    cause: Optional[int] = None

    KIND = "rop_poll"


@dataclass(frozen=True)
class RopDecode(TraceEvent):
    """An AP jointly decoded the buffered queue reports."""

    node: int
    decoded: int
    failed: int
    #: Polling slot the round belongs to (v2); aligns decode rounds
    #: with the schedule for per-round error / staleness accounting.
    slot: Optional[int] = None
    #: Failure attribution (v2): reports lost to wideband SNR vs.
    #: blocked by a louder adjacent subchannel (guard tolerance).
    low_snr: int = 0
    blocked: int = 0
    id: Optional[int] = None       # emission index (v3)
    #: The ``rop_poll`` that opened the round (v3).
    cause: Optional[int] = None

    KIND = "rop_decode"


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleDispatch(TraceEvent):
    """The controller shipped a batch's programs down the wire."""

    batch: int
    first_slot: int
    last_slot: int
    slots: int
    id: Optional[int] = None       # emission index (v3); always a root

    KIND = "sched_dispatch"


@dataclass(frozen=True)
class BatchStart(TraceEvent):
    """An AP reported a batch's first slot as executed."""

    batch: int
    node: int                      # reporting AP
    id: Optional[int] = None       # emission index (v3)
    #: The ``slot_exec`` that executed the batch's first slot (v3).
    cause: Optional[int] = None

    KIND = "batch_start"


@dataclass(frozen=True)
class ScheduleRevision(TraceEvent):
    """The online controller emitted a revised schedule (v4).

    One record per revision epoch of :mod:`repro.service`.  ``t`` is
    the virtual timestamp of the epoch's last folded event, so
    replayed scenarios trace identically run to run; revision latency
    is wall-clock and lives in the metrics registry instead.
    """

    version: int                   # monotonically increasing revision
    epoch: int                     # debounce epoch the revision closed
    events: int                    # controller events folded in
    dirty: int                     # dirty links when the epoch closed
    full: bool                     # from-scratch recompute (vs. incremental)
    digest: str                    # canonical batch digest (prefix)
    batch: int                     # batch_id of the emitted RelativeBatch
    id: Optional[int] = None       # emission index (v3)
    #: The previous revision's event, ``None`` for the first.
    cause: Optional[int] = None

    KIND = "sched_revision"


@dataclass(frozen=True)
class RevisionPhases(TraceEvent):
    """Per-phase latency breakdown of one controller revision (v5).

    Emitted only when phase timing is explicitly enabled.  ``t`` is
    the same virtual epoch time as the matching ``sched_revision``
    (its ``id`` is this event's ``cause``); the ``*_us`` fields are
    wall-clock microseconds and therefore vary run to run — see the
    v5 schema note for why that trade is opt-in.
    """

    version: int                   # revision the breakdown belongs to
    epoch: int                     # debounce epoch the revision closed
    membership_us: float           # trigger purge + link splice in/out
    conflict_us: float             # dirty-region conflict edge re-test
    cache_us: float                # conversion-cache revalidation
    convert_us: float              # schedule + connector splice + convert
    digest_us: float               # canonical batch digest
    total_us: float                # apply+revise wall time, end to end
    id: Optional[int] = None       # emission index (v3)
    #: The ``sched_revision`` event this breakdown annotates.
    cause: Optional[int] = None

    KIND = "revision_phases"


#: kind string -> event dataclass.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.KIND: cls
    for cls in (FrameTx, FrameRx, FrameDrop, SignatureDetect, TriggerFire,
                BackupTrigger, SlotExec, RopPoll, RopDecode,
                ScheduleDispatch, BatchStart, ScheduleRevision,
                RevisionPhases)
}


def from_record(record: dict) -> TraceEvent:
    """Parse one JSONL record back into its typed event.

    Unknown kinds raise ``KeyError``; unknown fields raise
    ``TypeError`` — a trace that does not match the schema should fail
    loudly, not half-parse.
    """
    record = dict(record)
    kind = record.pop("ev")
    cls = EVENT_TYPES[kind]
    return cls(**record)


def required_fields(kind: str) -> List[str]:
    """Field names (beyond ``ev``) a record of ``kind`` must carry."""
    return [f.name for f in fields(EVENT_TYPES[kind])]
