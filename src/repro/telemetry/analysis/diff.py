"""Trace diffing: align two runs slot-by-slot and find where they part.

The determinism contract (same seed + topology → byte-identical JSONL)
makes traces directly comparable: when two runs *should* match but
don't, the first divergent record is where the bug crept in; when they
differ by construction (e.g. two detection models), the first
divergent *slot* is where the protocol's behaviour forked.

:func:`diff_traces` reports both levels:

* a per-slot structural digest built from the reconstructed trigger
  chain (who sent, who triggered, draw outcomes, fallbacks, polls) —
  robust to cosmetic record reordering within a slot;
* the first differing raw record index, for byte-level forensics when
  the structural view says "identical".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..trace_tools import SlotChainEntry, trigger_chain_timeline
from ..trace_view import Trace, as_view


def _slot_digest(entry: SlotChainEntry) -> Tuple:
    """Hashable structural summary of one slot's chain activity."""
    return (tuple(entry.senders),
            entry.trigger_node,
            tuple(sorted(entry.detected.items())),
            tuple(sorted(entry.fallback.items())),
            tuple(sorted(entry.polls)))


def _describe(entry: Optional[SlotChainEntry]) -> str:
    if entry is None:
        return "(slot absent)"
    senders = ",".join(f"{n}{'(fake)' if fake else ''}"
                       for n, fake in entry.senders) or "-"
    detected = ",".join(f"{n}:{'y' if ok else 'MISS'}"
                        for n, ok in sorted(entry.detected.items())) or "-"
    fallback = ",".join(f"{n}:{reason}"
                        for n, reason in sorted(entry.fallback.items())) \
        or "none"
    return (f"senders={senders} trigger={entry.trigger_node} "
            f"sig={detected} fallback={fallback}")


@dataclass
class SlotDivergence:
    """The first slot where the two chains behave differently."""

    slot: int
    a: str                        # structural description in trace A
    b: str                        # structural description in trace B


@dataclass
class TraceDiff:
    """Result of comparing two traces (A vs. B)."""

    a_events: int = 0
    b_events: int = 0
    #: First slot whose chain digest differs (None = chains identical).
    first_divergence: Optional[SlotDivergence] = None
    #: First raw record index where the streams differ (None = equal
    #: record-for-record).  Meaningful even when the slot view matches.
    first_record_mismatch: Optional[int] = None
    #: Event-kind count deltas, B minus A (only non-zero kinds).
    kind_deltas: Dict[str, int] = field(default_factory=dict)
    #: Slots compared / slots with differing digests.
    slots_compared: int = 0
    slots_divergent: int = 0

    @property
    def identical(self) -> bool:
        return (self.first_divergence is None
                and self.first_record_mismatch is None)

    def to_json(self) -> dict:
        divergence = None
        if self.first_divergence is not None:
            divergence = {"slot": self.first_divergence.slot,
                          "a": self.first_divergence.a,
                          "b": self.first_divergence.b}
        return {
            "identical": self.identical,
            "a_events": self.a_events,
            "b_events": self.b_events,
            "first_divergence": divergence,
            "first_record_mismatch": self.first_record_mismatch,
            "kind_deltas": dict(sorted(self.kind_deltas.items())),
            "slots_compared": self.slots_compared,
            "slots_divergent": self.slots_divergent,
        }

    def render(self) -> str:
        if self.identical:
            return (f"traces identical: {self.a_events} events, "
                    f"{self.slots_compared} slots match record-for-record")
        lines = [f"traces diverge ({self.a_events} vs. {self.b_events} "
                 f"events; {self.slots_divergent}/{self.slots_compared} "
                 f"slots differ)"]
        if self.first_divergence is not None:
            lines.append(f"first divergent slot: "
                         f"{self.first_divergence.slot}")
            lines.append(f"  A: {self.first_divergence.a}")
            lines.append(f"  B: {self.first_divergence.b}")
        elif self.first_record_mismatch is not None:
            lines.append(
                f"chain timelines match; first differing record is "
                f"#{self.first_record_mismatch} (non-slotted event)")
        if self.kind_deltas:
            lines.append("event-count deltas (B - A):")
            lines.extend(f"  {kind:<16} {delta:+d}"
                         for kind, delta in sorted(self.kind_deltas.items()))
        return "\n".join(lines)


def diff_traces(a_trace: Trace, b_trace: Trace) -> TraceDiff:
    """Compare two traces of the same experiment.

    Same-seed runs must come back :attr:`TraceDiff.identical`; for
    runs that legitimately differ, :attr:`TraceDiff.first_divergence`
    names the first slot where the trigger chains forked.
    """
    a_view, b_view = as_view(a_trace), as_view(b_trace)
    a_records, b_records = a_view.records, b_view.records
    result = TraceDiff(a_events=len(a_records), b_events=len(b_records))

    for index, (left, right) in enumerate(zip(a_records, b_records)):
        if left != right:
            result.first_record_mismatch = index
            break
    else:
        if len(a_records) != len(b_records):
            result.first_record_mismatch = min(len(a_records),
                                               len(b_records))

    for kind in sorted(set(a_view.by_kind) | set(b_view.by_kind)):
        delta = len(b_view.of(kind)) - len(a_view.of(kind))
        if delta:
            result.kind_deltas[kind] = delta

    a_slots = {e.slot: e for e in trigger_chain_timeline(a_view)}
    b_slots = {e.slot: e for e in trigger_chain_timeline(b_view)}
    all_slots = sorted(set(a_slots) | set(b_slots))
    result.slots_compared = len(all_slots)
    for slot in all_slots:
        left, right = a_slots.get(slot), b_slots.get(slot)
        left_digest = _slot_digest(left) if left is not None else None
        right_digest = _slot_digest(right) if right is not None else None
        if left_digest != right_digest:
            result.slots_divergent += 1
            if result.first_divergence is None:
                result.first_divergence = SlotDivergence(
                    slot=slot, a=_describe(left), b=_describe(right))
    return result
