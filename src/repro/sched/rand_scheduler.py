"""RAND-style greedy scheduler (Sec. 4.2.1).

The paper schedules with "the scheduler modified based on RAND, a
greedy algorithm": maintain a queue of links ``Q``; per slot, take the
first link with data, then keep adding further non-conflicting links
with data; scheduled links move to the tail of ``Q`` for fairness.

The scheduler is stateful: the fairness rotation of ``Q`` persists
across batches, which is what gives the alternating patterns in
Fig. 7(c) / Fig. 10.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..topology.conflict_graph import Adjacency, greedy_maximal_extension
from ..topology.interference_map import InterferenceMap
from ..topology.links import Link
from .strict_schedule import StrictSchedule


class RandScheduler:
    """Greedy maximal-set scheduler with fairness rotation.

    Parameters
    ----------
    conflict_graph:
        Link conflict graph (adjacency dict); an edge forbids sharing.
    links:
        The link universe in initial queue order (deterministic).
    imap:
        Optional interference map for the additive test over a whole
        slot; pairwise compatibility is necessary but not sufficient
        when several interferers add up at one receiver.
    """

    def __init__(self, conflict_graph: Adjacency[Link],
                 links: Sequence[Link],
                 imap: Optional[InterferenceMap] = None):
        self.graph = conflict_graph
        self._queue: List[Link] = list(links)
        self.imap = imap
        missing = [l for l in self._queue if l not in conflict_graph]
        if missing:
            raise ValueError(f"links missing from conflict graph: {missing}")

    @property
    def queue(self) -> List[Link]:
        """Current fairness order (read-only copy)."""
        return list(self._queue)

    def add_links(self, links: Sequence[Link]) -> None:
        """Admit newly associated links at the tail of the queue.

        Joining at the tail means a newcomer waits at most one full
        rotation before its first slot — the same position a freshly
        scheduled link lands in — so existing fairness state is
        undisturbed.  Links must already be vertices of the conflict
        graph (the caller updates the graph first).
        """
        present = set(self._queue)
        for link in links:
            if link in present:
                continue
            if link not in self.graph:
                raise ValueError(f"link missing from conflict graph: {link}")
            self._queue.append(link)
            present.add(link)

    def remove_links(self, links: Sequence[Link]) -> None:
        """Drop departed links, preserving the rest of the rotation."""
        gone = set(links)
        if gone:
            self._queue = [l for l in self._queue if l not in gone]

    def _build_slot(self, demands: Dict[Link, int]) -> List[Link]:
        """One greedy maximal set of backlogged links, in queue order."""
        backlogged = (link for link in self._queue
                      if demands.get(link, 0) > 0)
        return greedy_maximal_extension(self.graph, (), backlogged, self.imap)

    def _rotate(self, scheduled: Sequence[Link]) -> None:
        """Move just-scheduled links to the tail of the queue."""
        scheduled_set = set(scheduled)
        remaining = [l for l in self._queue if l not in scheduled_set]
        self._queue = remaining + [l for l in self._queue if l in scheduled_set]

    def schedule_batch(self, demands: Dict[Link, int],
                       max_slots: int) -> StrictSchedule:
        """Schedule up to ``max_slots`` slots serving ``demands``.

        ``demands`` maps each link to the number of packets it wants to
        send; each scheduled slot serves one packet of every link in
        it.  The input dict is not modified.  Scheduling stops early
        when every demand is satisfied.
        """
        remaining = {l: d for l, d in demands.items() if d > 0}
        schedule = StrictSchedule()
        for _ in range(max_slots):
            if not remaining:
                break
            slot = self._build_slot(remaining)
            if not slot:
                break
            schedule.append(slot)
            self._rotate(slot)
            for link in slot:
                remaining[link] -= 1
                if remaining[link] <= 0:
                    del remaining[link]
        return schedule
