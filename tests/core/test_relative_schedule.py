"""Tests for relative schedule data types and program building."""

import pytest

from repro.core.relative_schedule import (RelativeBatch, RelativeSlot,
                                          SlotEntry, TriggerDuty,
                                          build_programs)
from repro.topology.links import Link


def make_batch():
    """Hand-built two-slot batch with an ROP poll in between."""
    slot0 = RelativeSlot(index=0, entries=[
        SlotEntry(link=Link(0, 1)),
        SlotEntry(link=Link(4, 5), fake=True),
    ])
    slot1 = RelativeSlot(index=1, entries=[
        SlotEntry(link=Link(2, 3)),
    ])
    batch = RelativeBatch(batch_id=0, slots=[slot0, slot1], initial=True)
    batch.duties[(1, 0)] = TriggerDuty(node=1, slot=0,
                                       targets=frozenset({2}),
                                       rop_flag=True)
    batch.duties[(0, 0)] = TriggerDuty(node=0, slot=0,
                                       rop_polls=frozenset({6}),
                                       rop_flag=True)
    batch.inbound[(1, Link(2, 3))] = [1, 5]
    batch.rop_polls[0] = [6]
    return batch


def test_slot_helpers():
    batch = make_batch()
    slot0 = batch.slots[0]
    assert slot0.senders() == {0, 4}
    assert slot0.participants() == {0, 1, 4, 5}
    assert batch.slot_by_index(1) is batch.slots[1]
    assert batch.slot_by_index(9) is None


def test_duty_outbound_counts_rop_polls():
    duty = TriggerDuty(node=0, slot=0, targets=frozenset({1, 2}),
                       rop_polls=frozenset({6}))
    assert duty.outbound == 3
    assert not duty.empty
    assert TriggerDuty(node=0, slot=0).empty


def test_validate_rejects_unsorted_slots():
    batch = make_batch()
    batch.slots = list(reversed(batch.slots))
    with pytest.raises(ValueError):
        batch.validate()


def test_validate_rejects_mismatched_duty_keys():
    batch = make_batch()
    batch.slots = batch.slots  # keep order valid
    batch.duties[(9, 9)] = TriggerDuty(node=1, slot=0)
    with pytest.raises(ValueError):
        batch.validate()


def test_build_programs_roles():
    programs = build_programs(make_batch())
    assert programs[0].send_slots[0].link == Link(0, 1)
    assert programs[1].recv_slots[0].link == Link(0, 1)
    assert programs[4].send_slots[0].fake
    assert programs[2].send_slots[1].link == Link(2, 3)
    # Duties attach to their holders.
    assert programs[1].duties[0].targets == frozenset({2})
    # The polling AP (6) gets its rop slot even with no entries.
    assert programs[6].rop_slots == [0]


def test_build_programs_rop_wait_propagates():
    programs = build_programs(make_batch())
    # Slot 1's sender (node 2) must absorb the interposed ROP slot.
    assert 1 in programs[2].rop_wait_slots


def test_build_programs_self_trigger_detection():
    programs = build_programs(make_batch())
    # inbound for Link(2,3) does not include node 2 itself here.
    assert 1 not in programs[2].self_trigger_slots
    batch = make_batch()
    batch.inbound[(1, Link(2, 3))] = [2]
    programs = build_programs(batch)
    assert 1 in programs[2].self_trigger_slots
