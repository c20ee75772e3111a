"""Slot-level transmission timeline (Fig. 10 / Fig. 11 analysis).

The timeline is rebuilt from a canonical trace
(:meth:`TimelineRecorder.from_trace`): every DOMINO transmission start
with its global slot index, so the two timing results can be derived:

* **misalignment per slot** (Fig. 11): the spread of start times of
  the transmissions sharing a slot — the paper shows initial wired-
  jitter misalignment of 10-20 us shrinking to 1-2 us within 4 slots;
* **the microscope view** (Fig. 10): an ASCII rendering of which link
  was active in which slot, which transmissions were fake, and where
  the polls fell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from ..topology.links import Link

#: Optional carrier-sense test restricting misalignment to node pairs
#: that actually share a collision domain.
AudibleFn = Callable[[int, int], bool]


@dataclass
class SlotEvent:
    slot: int
    link: Link
    start_us: float
    fake: bool = False
    kind: str = "data"          # data | fake | poll


class TimelineRecorder:
    """Collects slot events; derives misalignment and renders timelines."""

    def __init__(self) -> None:
        self.events: List[SlotEvent] = []

    @classmethod
    def from_trace(
            cls, records: Iterable[Mapping[str, Any]]) -> "TimelineRecorder":
        """The slot timeline of a traced DOMINO run.

        Each ``slot_exec`` record is a data or fake transmission on
        ``node -> dst``; each ``rop_poll`` record is a poll, kept on
        the AP's self-link.  Both are emitted at the instant the frame
        goes on the air, so ``t`` is the transmission start.
        """
        timeline = cls()
        for record in records:
            kind = record["ev"]
            if kind == "slot_exec":
                fake = record["fake"]
                timeline.record(record["slot"],
                                Link(record["node"], record["dst"]),
                                record["t"], fake, "fake" if fake else "data")
            elif kind == "rop_poll":
                node = record["node"]
                timeline.record(record["slot"], Link(node, node),
                                record["t"], kind="poll")
        return timeline

    def record(self, slot: int, link: Link, start_us: float,
               fake: bool = False, kind: str = "data") -> None:
        self.events.append(SlotEvent(slot, link, start_us, fake, kind))

    # ------------------------------------------------------------------
    # Fig. 11: misalignment
    # ------------------------------------------------------------------
    def misalignment_by_slot(
            self, audible: Optional[AudibleFn] = None) -> Dict[int, float]:
        """Max spread (us) of transmission starts within each slot.

        Fake transmissions count: they occupy airtime and pass timing
        along the chain just like real ones.

        ``audible(src_a, src_b) -> bool`` optionally restricts the
        spread to pairs of senders that can carrier-sense each other.
        Chains in disjoint collision domains (e.g. different building
        wings) can hold a constant offset without ever interacting;
        misalignment is only physically meaningful where transmissions
        share a medium, and that is also what the paper's converged
        1-2 us refers to.
        """
        by_slot: Dict[int, List[Tuple[int, float]]] = {}
        for event in self.events:
            if event.kind in ("data", "fake"):
                by_slot.setdefault(event.slot, []).append(
                    (event.link.src, event.start_us))
        out: Dict[int, float] = {}
        for slot, members in by_slot.items():
            if len(members) < 2:
                out[slot] = 0.0
                continue
            if audible is None:
                starts = [t for _, t in members]
                out[slot] = max(starts) - min(starts)
                continue
            worst = 0.0
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    (src_a, ta), (src_b, tb) = members[i], members[j]
                    if audible(src_a, src_b):
                        worst = max(worst, abs(ta - tb))
            out[slot] = worst
        return out

    def misalignment_series(self, n_slots: int,
                            audible: Optional[AudibleFn] = None) -> List[float]:
        """Misalignment for slots 0..n_slots-1 (0 where undefined)."""
        table = self.misalignment_by_slot(audible=audible)
        return [table.get(i, 0.0) for i in range(n_slots)]

    # ------------------------------------------------------------------
    # Fig. 10: microscope rendering
    # ------------------------------------------------------------------
    def render(self, first_slot: int = 0, last_slot: Optional[int] = None,
               names: Optional[Dict[int, str]] = None) -> str:
        """ASCII timeline: one row per link, one column per slot."""
        events = [e for e in self.events if e.slot >= first_slot
                  and (last_slot is None or e.slot <= last_slot)]
        if not events:
            return "(empty timeline)"
        links = sorted({e.link for e in events})
        slot_range = range(first_slot,
                           (last_slot if last_slot is not None
                            else max(e.slot for e in events)) + 1)
        cell: Dict[Tuple[Link, int], str] = {}
        for event in events:
            mark = {"data": "D", "fake": "f", "poll": "P"}.get(event.kind, "?")
            cell[(event.link, event.slot)] = mark

        def name(node: int) -> str:
            return names[node] if names and node in names else str(node)

        header = "link \\ slot | " + " ".join(f"{s:>3}" for s in slot_range)
        rows = [header, "-" * len(header)]
        for link in links:
            label = f"{name(link.src)}->{name(link.dst)}"
            marks = " ".join(
                f"{cell.get((link, s), '.'):>3}" for s in slot_range
            )
            rows.append(f"{label:>11} | {marks}")
        return "\n".join(rows)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)
