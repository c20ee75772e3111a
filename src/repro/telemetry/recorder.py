"""Trace recorders: the bounded-ring-buffer event sink and its no-op twin.

Instrumented components capture the *current* recorder once, at
construction time (``self._trace = telemetry.current()``), and guard
every hot-path emission with::

    tel = self._trace
    if tel.enabled:
        tel.frame_tx(...)

When telemetry is disabled — the default — ``current()`` returns the
module-level :data:`NULL` recorder whose ``enabled`` is ``False``, so
the instrumentation costs one attribute load and one branch per site
and nothing else.  ``benchmarks/test_telemetry_overhead.py`` keeps
that honest (<5 % on a reference fig12 run).

The *enabled* path is kept cheap by deferring work off the simulation
hot path: the typed helpers (``frame_tx`` .. ``batch_start``) append
one flat tuple of raw field values to the ring buffer — no dict is
built, nothing is sorted or rounded, the constant parts of a record
(the ``ev`` strings, the field names) exist exactly once as interned
module-level constants.  Records are materialized into the canonical
dict schema of :mod:`~repro.telemetry.events` only when read back
(``records()`` / export), which is never inside the event loop.  The
generic ``emit(dict)`` sink validates its record on write, by the
rules every trace reader applies, and buffers the same kind of tuple,
so every buffered entry has one form.  The enabled-path budget is
asserted by the same overhead benchmark (<20 %).
"""

from __future__ import annotations

from collections import deque
from dataclasses import MISSING, fields
from typing import (IO, TYPE_CHECKING, Any, Deque, Iterable, Iterator, List,
                    Optional, Type)

from . import jsonl
from .events import EVENT_TYPES, required_fields
from .log import get_logger
from .metrics import Metric, MetricsRegistry
from .trace_view import _validate

if TYPE_CHECKING:  # pragma: no cover - the recorder only duck-types
    from ..sim.packet import Frame  # Frame; no runtime sim dependency


#: Process-wide latch for the "metrics are being discarded" warning.
#: Lives at module level, not on the registry class, so *every* null
#: registry in the process shares it — a sweep of repeated
#: ``run_scheme(trace=None)`` calls warns exactly once, not once per
#: freshly constructed ``NullRecorder``.
_NULL_METRICS_WARNED = False


class _NullMetricsRegistry(MetricsRegistry):
    """The registry behind :class:`NullRecorder`: records into the void.

    Code that reaches ``recorder.metrics`` without a ``trace=`` opt-in
    (or outside an ``activate()`` session) silently loses its numbers,
    which is a classic source of "why is my counter zero" confusion —
    so the first write logs one warning naming the metric, then stays
    quiet.
    """

    def _get(self, name: str, cls: Type[Metric], **kwargs: Any) -> Metric:
        global _NULL_METRICS_WARNED
        if not _NULL_METRICS_WARNED:
            _NULL_METRICS_WARNED = True
            get_logger("telemetry").warning(
                "telemetry is disabled: metric %r (and anything else "
                "written to the null recorder) is discarded — activate "
                "telemetry first, e.g. run_scheme(..., trace=True) or "
                "telemetry.activate()", name)
        return super()._get(name, cls, **kwargs)


class NullRecorder:
    """Disabled telemetry: every operation is a no-op.

    Carries a throwaway metrics registry so code that reaches
    ``recorder.metrics`` without checking ``enabled`` still works (it
    records into the void, and warns once when it does); hot paths
    must check ``enabled`` first.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics: MetricsRegistry = _NullMetricsRegistry()

    # -- generic sink ---------------------------------------------------
    def emit(self, record: dict) -> None:
        pass

    # -- typed helpers (all no-ops, same signatures as TraceRecorder;
    # every helper returns the new event's id, which here is None) ----
    def frame_tx(self, t: float, node: int, frame: "Frame",
                 airtime_us: float) -> None:
        return None

    def frame_rx(self, t: float, node: int, frame: "Frame") -> None:
        return None

    def frame_drop(self, t: float, node: int, frame: "Frame",
                   reason: str) -> None:
        return None

    def sig_detect(self, t: float, node: int, src: int, slot: int,
                   sinr_db: float, combined: int, detected: bool,
                   p: Optional[float] = None,
                   cause: Optional[int] = None) -> None:
        return None

    def trigger_fire(self, t: float, node: int, slot: int,
                     targets: Iterable[int], rop: bool,
                     polls: Iterable[int],
                     cause: Optional[int] = None) -> None:
        return None

    def backup_trigger(self, t: float, node: int, slot: int,
                       reason: str) -> None:
        return None

    def slot_exec(self, t: float, node: int, slot: int, dst: int,
                  fake: bool, cause: Optional[int] = None,
                  via: Optional[str] = None) -> None:
        return None

    def rop_poll(self, t: float, node: int, slot: int, poll_set: int,
                 cause: Optional[int] = None) -> None:
        return None

    def rop_decode(self, t: float, node: int, decoded: int, failed: int,
                   slot: Optional[int] = None, low_snr: int = 0,
                   blocked: int = 0, cause: Optional[int] = None) -> None:
        return None

    def sched_dispatch(self, t: float, batch: int, first_slot: int,
                       last_slot: int, slots: int) -> None:
        return None

    def batch_start(self, t: float, batch: int, node: int,
                    cause: Optional[int] = None) -> None:
        return None

    def sched_revision(self, t: float, version: int, epoch: int,
                       events: int, dirty: int, full: bool, digest: str,
                       batch: int, cause: Optional[int] = None) -> None:
        return None

    def revision_phases(self, t: float, version: int, epoch: int,
                        membership_us: float, conflict_us: float,
                        cache_us: float, convert_us: float,
                        digest_us: float, total_us: float,
                        cause: Optional[int] = None) -> None:
        return None


#: The one shared disabled recorder (what ``telemetry.current()``
#: returns outside an activated session).
NULL = NullRecorder()


# ----------------------------------------------------------------------
# Causal-span plumbing (schema v3).  Event ids travel between
# instrumentation sites on ``Frame.meta`` under these keys; they are
# telemetry-private (only written when a recorder is enabled, stripped
# from nothing — frames are never serialized) and carry sim-derived
# values only, so determinism is untouched.
# ----------------------------------------------------------------------
#: ``frame.meta`` key: id of the decision event (``slot_exec`` /
#: ``trigger_fire`` / ``rop_poll`` / causing ``frame_tx``) that put
#: the frame on the air.  Read by :meth:`TraceRecorder.frame_tx` as
#: the transmission's ``cause``.
ORIGIN_META_KEY = "_tel_origin"

#: ``frame.meta`` key: id of the frame's own ``frame_tx`` event,
#: written by the medium at transmit time.  Read by ``frame_rx`` /
#: ``frame_drop`` as their ``cause``, and by receivers that react to
#: the frame (ACKs, queue reports, trigger detections).
TX_META_KEY = "_tel_tx"


# ----------------------------------------------------------------------
# Raw-tuple layout: (kind, *values) in schema field order.  Field-name
# tuples are derived from the event dataclasses so the two can never
# drift apart (test_every_helper_matches_its_schema pins this).
# ----------------------------------------------------------------------
_FIELDS = {kind: tuple(required_fields(kind)) for kind in EVENT_TYPES}
#: Per kind, ``(field, default)`` in raw-tuple order: what
#: :meth:`TraceRecorder.emit` stores for a field its record leaves out.
_DEFAULTS = {kind: tuple((f.name, None if f.default is MISSING else f.default)
                         for f in fields(cls))
             for kind, cls in EVENT_TYPES.items()}


def _materialize(raw: tuple) -> dict:
    """One buffered entry as its canonical record dict.

    Normalization deferred off the hot path happens here: set-valued
    fields are sorted (exports must be deterministic), floats captured
    at full precision are rounded to their schema width.
    """
    kind = raw[0]
    record = {"ev": kind}
    record.update(zip(_FIELDS[kind], raw[1:]))
    if kind == "sig_detect":
        record["sinr_db"] = round(record["sinr_db"], 3)
        if record["p"] is not None:
            record["p"] = round(record["p"], 4)
    elif kind == "trigger_fire":
        record["targets"] = sorted(record["targets"])
        record["polls"] = sorted(record["polls"])
        record["rop"] = bool(record["rop"])
    elif kind == "revision_phases":
        for field in ("membership_us", "conflict_us", "cache_us",
                      "convert_us", "digest_us", "total_us"):
            record[field] = round(record[field], 1)
    return record


class TraceRecorder(NullRecorder):
    """Structured trace sink with a bounded ring buffer.

    Parameters
    ----------
    capacity:
        Maximum events held; once full, the *oldest* events are
        evicted (``evicted`` counts them).  A bounded buffer keeps
        long runs at O(capacity) memory — the tail of a trace is
        almost always the interesting part.
    metrics:
        Optional shared :class:`MetricsRegistry`; a fresh one is
        created by default.
    """

    enabled = True

    def __init__(self, capacity: int = 65536,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._events: Deque[tuple] = deque(maxlen=capacity)
        # Bound method cached: the hot helpers call it directly, so an
        # emission is one append + one counter bump.  The maxlen deque
        # evicts for us; ``evicted`` is derived, not counted inline.
        self._append = self._events.append
        self.emitted = 0

    # ------------------------------------------------------------------
    # Sink
    # ------------------------------------------------------------------
    def emit(self, record: dict) -> None:
        """Generic sink for pre-built record dicts (cold path).

        The record is checked against the schema by the rules every
        trace reader applies (a bad one raises
        :class:`~repro.telemetry.jsonl.TraceFormatError`, one line)
        and buffered as the raw tuple the typed helpers append;
        fields it leaves out take their schema defaults.
        """
        kind = _validate(self.emitted, record)
        self._append((kind, *[record.get(name, default)
                              for name, default in _DEFAULTS[kind]]))
        self.emitted += 1

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        # An empty recorder must not read as "no recorder" to code
        # doing `if trace:` — emptiness is `len(recorder) == 0`.
        return True

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    # ------------------------------------------------------------------
    # Typed helpers (hot path: append one raw tuple, nothing else).
    #
    # v3 causal spans: every helper stamps the event with its emission
    # index (``self.emitted`` *before* the bump) and returns it, so
    # instrumentation sites can thread the id into whatever the event
    # causes next.  Emission order is a pure function of the seeded
    # simulation, so the ids — and with them the byte-identical-digest
    # guarantee — stay deterministic; the id survives ring eviction
    # because it is assigned at emit time, not derived from position.
    # ------------------------------------------------------------------
    def frame_tx(self, t: float, node: int, frame: "Frame",
                 airtime_us: float) -> int:
        eid = self.emitted
        meta = frame.meta
        self._append(("frame_tx", t, node, frame.kind.value, frame.dst,
                      frame.seq, meta.get("slot"), airtime_us, eid,
                      meta.get(ORIGIN_META_KEY)))
        self.emitted = eid + 1
        return eid

    def frame_rx(self, t: float, node: int, frame: "Frame") -> int:
        eid = self.emitted
        meta = frame.meta
        self._append(("frame_rx", t, node, frame.src, frame.kind.value,
                      frame.seq, meta.get("slot"), eid,
                      meta.get(TX_META_KEY)))
        self.emitted = eid + 1
        return eid

    def frame_drop(self, t: float, node: int, frame: "Frame",
                   reason: str) -> int:
        eid = self.emitted
        meta = frame.meta
        self._append(("frame_drop", t, node, frame.src, frame.kind.value,
                      frame.seq, meta.get("slot"), reason, eid,
                      meta.get(TX_META_KEY)))
        self.emitted = eid + 1
        return eid

    def sig_detect(self, t: float, node: int, src: int, slot: int,
                   sinr_db: float, combined: int, detected: bool,
                   p: Optional[float] = None,
                   cause: Optional[int] = None) -> int:
        eid = self.emitted
        self._append(("sig_detect", t, node, src, slot, sinr_db, combined,
                      detected, p, eid, cause))
        self.emitted = eid + 1
        return eid

    def trigger_fire(self, t: float, node: int, slot: int,
                     targets: Iterable[int], rop: bool,
                     polls: Iterable[int],
                     cause: Optional[int] = None) -> int:
        # Sets are captured as-is (immutable frozensets in practice)
        # and sorted at materialize time.
        eid = self.emitted
        self._append(("trigger_fire", t, node, slot, tuple(targets), rop,
                      tuple(polls), eid, cause))
        self.emitted = eid + 1
        return eid

    def backup_trigger(self, t: float, node: int, slot: int,
                       reason: str) -> int:
        eid = self.emitted
        self._append(("backup_trigger", t, node, slot, reason, eid))
        self.emitted = eid + 1
        return eid

    def slot_exec(self, t: float, node: int, slot: int, dst: int,
                  fake: bool, cause: Optional[int] = None,
                  via: Optional[str] = None) -> int:
        eid = self.emitted
        self._append(("slot_exec", t, node, slot, dst, fake, eid, cause,
                      via))
        self.emitted = eid + 1
        return eid

    def rop_poll(self, t: float, node: int, slot: int, poll_set: int,
                 cause: Optional[int] = None) -> int:
        eid = self.emitted
        self._append(("rop_poll", t, node, slot, poll_set, eid, cause))
        self.emitted = eid + 1
        return eid

    def rop_decode(self, t: float, node: int, decoded: int, failed: int,
                   slot: Optional[int] = None, low_snr: int = 0,
                   blocked: int = 0, cause: Optional[int] = None) -> int:
        eid = self.emitted
        self._append(("rop_decode", t, node, decoded, failed, slot,
                      low_snr, blocked, eid, cause))
        self.emitted = eid + 1
        return eid

    def sched_dispatch(self, t: float, batch: int, first_slot: int,
                       last_slot: int, slots: int) -> int:
        eid = self.emitted
        self._append(("sched_dispatch", t, batch, first_slot, last_slot,
                      slots, eid))
        self.emitted = eid + 1
        return eid

    def batch_start(self, t: float, batch: int, node: int,
                    cause: Optional[int] = None) -> int:
        eid = self.emitted
        self._append(("batch_start", t, batch, node, eid, cause))
        self.emitted = eid + 1
        return eid

    def sched_revision(self, t: float, version: int, epoch: int,
                       events: int, dirty: int, full: bool, digest: str,
                       batch: int, cause: Optional[int] = None) -> int:
        eid = self.emitted
        self._append(("sched_revision", t, version, epoch, events, dirty,
                      full, digest, batch, eid, cause))
        self.emitted = eid + 1
        return eid

    def revision_phases(self, t: float, version: int, epoch: int,
                        membership_us: float, conflict_us: float,
                        cache_us: float, convert_us: float,
                        digest_us: float, total_us: float,
                        cause: Optional[int] = None) -> int:
        # Wall-clock phase durations, rounded at materialize time; only
        # emitted behind the explicit phase-timing opt-in (v5 note).
        eid = self.emitted
        self._append(("revision_phases", t, version, epoch, membership_us,
                      conflict_us, cache_us, convert_us, digest_us,
                      total_us, eid, cause))
        self.emitted = eid + 1
        return eid

    # ------------------------------------------------------------------
    # Query / export
    # ------------------------------------------------------------------
    def _materialized(self) -> Iterator[dict]:
        for raw in self._events:
            yield _materialize(raw)

    def records(self) -> List[dict]:
        return list(self._materialized())

    def export_jsonl(self, path: str) -> int:
        """Write the buffered trace to ``path`` (canonical JSONL)."""
        return jsonl.dump_jsonl(path, self._materialized())

    def write_jsonl(self, stream: IO[str]) -> int:
        return jsonl.write_jsonl(stream, self._materialized())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecorder({len(self)}/{self.capacity} buffered, "
                f"{self.emitted} emitted, {self.evicted} evicted)")
