"""Trace analysis: summaries, filters and trigger-chain reconstruction.

Works on a :class:`~repro.telemetry.trace_view.TraceView`, or on the
live or loaded records to build one from — the CLI in
``python -m repro.telemetry`` is a thin wrapper over these functions.

The centrepiece is :func:`trigger_chain_timeline`: given a trace it
rebuilds, slot by slot, *who* transmitted, *which* duty burst
triggered them, whether the signature detection draw succeeded, and
whether a backup path (watchdog / initial self-start) had to restart
the chain — the paper's Sec. 3 debugging story as a table instead of
prints in the MAC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .trace_view import Trace, as_view


@dataclass
class SlotChainEntry:
    """One slot of the reconstructed trigger chain."""

    slot: int
    #: (node, fake) pairs that executed the slot, in execution order.
    senders: List[tuple] = field(default_factory=list)
    #: first execution time of the slot (us), if any.
    start_us: Optional[float] = None
    #: node whose duty burst covered this slot (fired at slot - 1).
    trigger_node: Optional[int] = None
    #: per executing node: did its signature-detection draw succeed?
    detected: Dict[int, bool] = field(default_factory=dict)
    #: nodes that reached this slot through a backup path, with reason.
    fallback: Dict[int, str] = field(default_factory=dict)
    #: APs that ran an ROP polling round in this slot.
    polls: List[int] = field(default_factory=list)

    @property
    def signature_detected(self) -> Optional[bool]:
        """Slot-level verdict: True if every executing sender that had
        a detection draw succeeded, False if any failed, None if the
        slot ran without any draw on record (self-timed)."""
        if not self.detected:
            return None
        return all(self.detected.values())

    @property
    def fallback_used(self) -> bool:
        return bool(self.fallback)


def trigger_chain_timeline(trace: Trace) -> List[SlotChainEntry]:
    """Rebuild the per-slot trigger-chain timeline from a trace."""
    view = as_view(trace)
    entries: Dict[int, SlotChainEntry] = {}

    def entry(slot: int) -> SlotChainEntry:
        item = entries.get(slot)
        if item is None:
            item = entries[slot] = SlotChainEntry(slot=slot)
        return item

    for record in view.of("slot_exec"):
        item = entry(record["slot"])
        item.senders.append((record["node"], record["fake"]))
        if item.start_us is None:
            item.start_us = record["t"]
    for record in view.of("sig_detect"):
        # A burst for slot s targets the senders of slot s + 1.
        item = entry(record["slot"] + 1)
        previous = item.detected.get(record["node"])
        # A node may get several draws (replanning); success wins.
        item.detected[record["node"]] = bool(previous) or record["detected"]
    for record in view.of("trigger_fire"):
        entry(record["slot"] + 1).trigger_node = record["node"]
    for record in view.of("backup_trigger"):
        entry(record["slot"]).fallback[record["node"]] = record["reason"]
    for record in view.of("rop_poll"):
        entry(record["slot"]).polls.append(record["node"])
    return [entries[slot] for slot in sorted(entries)]


def render_timeline(timeline: List[SlotChainEntry],
                    names: Optional[Dict[int, str]] = None) -> str:
    """The trigger-chain timeline as a fixed-width table."""
    if not timeline:
        return "(no slotted events in trace)"

    def name(node: int) -> str:
        return names[node] if names and node in names else str(node)

    headers = ("slot", "t_us", "senders", "trigger", "sig", "fallback",
               "polls")
    rows = []
    for item in timeline:
        senders = ",".join(f"{name(n)}{'(fake)' if fake else ''}"
                           for n, fake in item.senders) or "-"
        verdict = {True: "y", False: "MISS", None: "-"}[
            item.signature_detected]
        fallback = ",".join(f"{name(n)}:{reason}"
                            for n, reason in sorted(item.fallback.items())) \
            or "n"
        trigger = name(item.trigger_node) \
            if item.trigger_node is not None else "-"
        start = f"{item.start_us:.1f}" if item.start_us is not None else "-"
        polls = ",".join(name(n) for n in item.polls) or "-"
        rows.append((str(item.slot), start, senders, trigger, verdict,
                     fallback, polls))
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "-+-".join("-" * w for w in widths)]
    lines.extend(" | ".join(c.ljust(w) for c, w in zip(row, widths))
                 for row in rows)
    return "\n".join(lines)


def filter_records(trace: Trace,
                   kind: Optional[str] = None,
                   node: Optional[int] = None,
                   t0: Optional[float] = None,
                   t1: Optional[float] = None,
                   slot: Optional[int] = None) -> Iterator[dict]:
    """The records matching every given criterion, in trace order."""
    view = as_view(trace)
    for record in view.of(kind) if kind is not None else view.records:
        if node is not None and record.get("node") != node:
            continue
        if slot is not None and record.get("slot") != slot:
            continue
        t = record["t"]
        if t0 is not None and t < t0:
            continue
        if t1 is not None and t > t1:
            continue
        yield record


def summarize(trace: Trace,
              names: Optional[Dict[int, str]] = None) -> str:
    """Headline statistics plus the reconstructed chain timeline."""
    view = as_view(trace)
    if not view.records:
        return "(empty trace)"
    t_lo = min(r["t"] for r in view.records)
    t_hi = max(r["t"] for r in view.records)
    detects = view.of("sig_detect")
    hits = sum(1 for r in detects if r["detected"])
    fallbacks = len(view.of("backup_trigger"))
    airtime = sum(r["airtime_us"] for r in view.of("frame_tx"))
    lines = [
        f"{len(view.records)} events over "
        f"{(t_hi - t_lo) / 1000.0:.3f} ms "
        f"(t = {t_lo:.1f} .. {t_hi:.1f} us)",
        "",
        "events by kind:",
    ]
    lines.extend(f"  {kind:<16} {len(records)}"
                 for kind, records in sorted(view.by_kind.items()))
    lines.append("")
    if detects:
        lines.append(
            f"signature detections: {hits}/{len(detects)} "
            f"({100.0 * hits / len(detects):.1f} % of draws)")
    if fallbacks:
        lines.append(f"backup-trigger fallbacks: {fallbacks}")
    if airtime:
        lines.append(f"airtime on the medium: {airtime / 1000.0:.3f} ms")
    lines.append("")
    lines.append("trigger-chain timeline "
                 "(sig: y = detected, MISS = draw failed, - = self-timed):")
    lines.append(render_timeline(trigger_chain_timeline(view), names=names))
    return "\n".join(lines)
