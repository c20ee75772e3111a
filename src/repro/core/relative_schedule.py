"""Relative schedule data types (Sec. 3.2/3.3).

A *relative* schedule has no absolute times.  It is a sequence of
slots plus, for every node that is active in a slot, a **trigger
duty**: the set of signatures the node broadcasts at the end of that
slot to wake the next slot's senders (Fig. 8), possibly flagged with
the ROP signature when a polling slot is interposed.

Slot indices are *global* (monotone across batches) so a trigger can
unambiguously name "the next slot" across a batch boundary — the
"batch connection" of Sec. 3.3 reuses the last slot of batch ``k`` as
the first slot of batch ``k+1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..topology.links import Link


@dataclass(frozen=True)
class SlotEntry:
    """One link scheduled in one slot.

    ``fake`` marks entries inserted by the converter purely to keep
    trigger chains alive; at runtime any entry sends a real packet if
    one is queued and a header-only fake otherwise (Sec. 3.3).
    """

    link: Link
    fake: bool = False


@dataclass
class RelativeSlot:
    """A slot of the relative schedule."""

    index: int                       # global slot index
    entries: List[SlotEntry] = field(default_factory=list)
    #: AP ids that run ROP in a polling slot inserted AFTER this slot.
    rop_after: List[int] = field(default_factory=list)

    def links(self) -> List[Link]:
        return [e.link for e in self.entries]

    def senders(self) -> Set[int]:
        return {e.link.src for e in self.entries}

    def participants(self) -> Set[int]:
        nodes: Set[int] = set()
        for entry in self.entries:
            nodes.add(entry.link.src)
            nodes.add(entry.link.dst)
        return nodes


@dataclass(frozen=True)
class TriggerDuty:
    """What one node broadcasts at the end of one slot.

    ``targets`` are the node ids whose signatures are combined in the
    burst (next-slot senders this node is responsible for waking);
    ``rop_polls`` are AP ids being told to run ROP in the interposed
    polling slot; ``rop_flag`` tells the woken senders to wait one ROP
    slot before transmitting (the burst ends with the ROP signature
    instead of START, Sec. 3.3).
    """

    node: int
    slot: int
    targets: FrozenSet[int] = frozenset()
    rop_polls: FrozenSet[int] = frozenset()
    rop_flag: bool = False

    @property
    def outbound(self) -> int:
        """Signatures combined in this burst (the <= 4 constraint)."""
        return len(self.targets) + len(self.rop_polls)

    @property
    def empty(self) -> bool:
        return not self.targets and not self.rop_polls


@dataclass
class RelativeBatch:
    """One converted batch, ready for distribution to the APs.

    ``duties`` is keyed by ``(node_id, slot_index)``; duties for the
    *connector* slot (the previous batch's last slot) are included so
    the nodes already executing it learn how to trigger this batch.
    ``inbound`` records, per (slot, link), which nodes carry that
    link's trigger — diagnostics and the converter's own constraint
    bookkeeping.
    """

    batch_id: int
    slots: List[RelativeSlot] = field(default_factory=list)
    duties: Dict[Tuple[int, int], TriggerDuty] = field(default_factory=dict)
    inbound: Dict[Tuple[int, Link], List[int]] = field(default_factory=dict)
    #: ROP polls: slot index -> AP ids polling right after that slot.
    #: Kept on the batch (not only on the slot objects) because a poll
    #: may be inserted after the *connector* slot, which belongs to the
    #: previous batch.
    rop_polls: Dict[int, List[int]] = field(default_factory=dict)
    #: True for the very first batch: no preceding slot exists, so the
    #: APs self-start (Sec. 3.3, "the APs will individually start").
    initial: bool = False
    #: Links dropped because no trigger could reach them; the
    #: controller reschedules these (Sec. 3.3: "such links ... will be
    #: rescheduled").
    untriggerable: List[Tuple[int, Link]] = field(default_factory=list)

    @property
    def first_slot_index(self) -> int:
        return self.slots[0].index if self.slots else -1

    @property
    def last_slot_index(self) -> int:
        return self.slots[-1].index if self.slots else -1

    def slot_by_index(self, index: int) -> Optional[RelativeSlot]:
        for slot in self.slots:
            if slot.index == index:
                return slot
        return None

    def validate(self) -> None:
        """Internal consistency checks; raises ``ValueError``."""
        indices = [slot.index for slot in self.slots]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError(f"slot indices not strictly increasing: {indices}")
        for (node, slot_idx), duty in self.duties.items():
            if duty.node != node or duty.slot != slot_idx:
                raise ValueError(f"duty key mismatch: {(node, slot_idx)} vs {duty}")


@dataclass
class NodeProgram:
    """The per-node distillation of a batch the controller distributes.

    An AP receives its program over the wired backbone; a client's
    program rides on its AP's data/ACK frames as signature samples
    (Fig. 8) — in the simulation both are delivered at schedule-
    distribution time, with the wire's jitter applied per AP.
    """

    node: int
    batch_id: int
    initial: bool
    #: slots where this node transmits: slot -> entry
    send_slots: Dict[int, SlotEntry] = field(default_factory=dict)
    #: slots where this node receives: slot -> entry
    recv_slots: Dict[int, SlotEntry] = field(default_factory=dict)
    #: trigger duties keyed by slot
    duties: Dict[int, TriggerDuty] = field(default_factory=dict)
    #: slots where this node (an AP) must run ROP: slot after which
    #: the poll happens
    rop_slots: List[int] = field(default_factory=list)
    #: send slots that must wait one extra ROP-slot duration because a
    #: polling slot is interposed before them
    rop_wait_slots: Set[int] = field(default_factory=set)
    #: send slots this node triggers *itself* (it participated in the
    #: preceding slot, so no over-the-air signature is needed)
    self_trigger_slots: Set[int] = field(default_factory=set)
    first_slot_index: int = -1
    last_slot_index: int = -1
    #: Sec. 5 coexistence: absolute time the current contention-free
    #: period ends.  Data frames stamp this into their NAV field so
    #: external 802.11 nodes defer until the CFP is over.
    cfp_end_us: Optional[float] = None
    #: Sec. 5 energy saving: slot ranges (first, last) this
    #: energy-constrained client may spend asleep.
    sleep_windows: List[Tuple[int, int]] = field(default_factory=list)


def build_programs(batch: RelativeBatch) -> Dict[int, NodeProgram]:
    """Split a batch into per-node programs."""
    programs: Dict[int, NodeProgram] = {}

    def program(node: int) -> NodeProgram:
        if node not in programs:
            programs[node] = NodeProgram(
                node=node, batch_id=batch.batch_id, initial=batch.initial,
                first_slot_index=batch.first_slot_index,
                last_slot_index=batch.last_slot_index,
            )
        return programs[node]

    for slot in batch.slots:
        for entry in slot.entries:
            program(entry.link.src).send_slots[slot.index] = entry
            program(entry.link.dst).recv_slots[slot.index] = entry
    for slot_idx, aps in batch.rop_polls.items():
        for ap in aps:
            program(ap).rop_slots.append(slot_idx)
        # Senders of the following slot must absorb the polling slot.
        following = batch.slot_by_index(slot_idx + 1)
        if following is not None:
            for entry in following.entries:
                program(entry.link.src).rop_wait_slots.add(slot_idx + 1)
    for (node, slot_idx), duty in batch.duties.items():
        if not duty.empty:
            program(node).duties[slot_idx] = duty
    for (slot_idx, link), trigger_nodes in batch.inbound.items():
        if link.src in trigger_nodes:
            program(link.src).self_trigger_slots.add(slot_idx)
    return programs
