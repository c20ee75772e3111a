"""Strict (slot-indexed) schedules: ``S = [s1, s2, ..., sk]``.

A strict schedule is what any conventional centralized scheduler
produces: per time slot, the set of links that transmit concurrently.
DOMINO's converter (:mod:`repro.core.converter`) turns these into
relative schedules; the omniscient baseline executes them directly
with perfect synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from ..topology.links import Link


@dataclass
class StrictSchedule:
    """An ordered list of slots, each a list of concurrently active links."""

    slots: List[List[Link]] = field(default_factory=list)

    def append(self, slot: Sequence[Link]) -> None:
        self.slots.append(list(slot))

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[List[Link]]:
        return iter(self.slots)

    def __getitem__(self, index: int) -> List[Link]:
        return self.slots[index]

    def links(self) -> List[Link]:
        """All distinct links appearing anywhere in the schedule."""
        seen: Dict[Link, None] = {}
        for slot in self.slots:
            for link in slot:
                seen.setdefault(link)
        return list(seen)

    def service_counts(self) -> Dict[Link, int]:
        """How many slots each link is scheduled in."""
        counts: Dict[Link, int] = {}
        for slot in self.slots:
            for link in slot:
                counts[link] = counts.get(link, 0) + 1
        return counts
