"""Tests for the strict-to-relative schedule converter (Sec. 3.3)."""

import itertools


from repro.core.converter import ConverterConfig, ScheduleConverter
from repro.core.relative_schedule import build_programs
from repro.sched.strict_schedule import StrictSchedule
from repro.topology.builder import fig1_topology, fig7_topology
from repro.topology.conflict_graph import build_conflict_graph
from repro.topology.links import Link


def make_converter(topology, config=None):
    imap = topology.interference_map()
    universe = list(topology.flows)
    for link in topology.all_association_links():
        if link not in universe:
            universe.append(link)
    graph = build_conflict_graph(imap, universe)
    converter = ScheduleConverter(imap, graph, fake_candidates=universe,
                                  config=config)
    return converter, imap, graph, universe


def fig7_strict():
    """The Fig. 7(c) alternating schedule."""
    strict = StrictSchedule()
    strict.append([Link(0, 1), Link(6, 7)])
    strict.append([Link(2, 3), Link(4, 5)])
    strict.append([Link(0, 1), Link(6, 7)])
    strict.append([Link(2, 3), Link(4, 5)])
    return strict


class TestFakeInsertion:
    def test_slots_extended_with_fakes(self):
        converter, imap, graph, universe = make_converter(fig7_topology())
        batch = converter.convert(fig7_strict())
        for slot in batch.slots:
            fakes = [e for e in slot.entries if e.fake]
            reals = [e for e in slot.entries if not e.fake]
            assert len(reals) == 2
            assert fakes  # something was inserted

    def test_extended_slots_remain_conflict_free(self):
        converter, imap, graph, universe = make_converter(fig7_topology())
        batch = converter.convert(fig7_strict())
        for slot in batch.slots:
            links = slot.links()
            for a, b in itertools.combinations(links, 2):
                assert b not in graph[a]
                assert not a.shares_node(b)
            assert imap.set_survives(links)

    def test_fakes_disabled_by_config(self):
        config = ConverterConfig(insert_fakes=False)
        converter, *_ = make_converter(fig7_topology(), config)
        batch = converter.convert(fig7_strict())
        assert all(not e.fake for s in batch.slots for e in s.entries)


class TestTriggerAssignment:
    def test_every_nonfirst_slot_link_has_a_trigger(self):
        converter, *_ = make_converter(fig7_topology())
        batch = converter.convert(fig7_strict())
        for slot in batch.slots[1:]:
            for entry in slot.entries:
                inbound = batch.inbound.get((slot.index, entry.link))
                assert inbound, f"{entry.link} in slot {slot.index}"

    def test_inbound_capped_at_two(self):
        converter, *_ = make_converter(fig7_topology())
        batch = converter.convert(fig7_strict())
        for nodes in batch.inbound.values():
            assert 1 <= len(nodes) <= 2
            assert len(set(nodes)) == len(nodes)

    def test_outbound_capped_at_four(self):
        converter, *_ = make_converter(fig7_topology())
        batch = converter.convert(fig7_strict())
        for duty in batch.duties.values():
            assert duty.outbound <= 4

    def test_trigger_sources_participated_in_previous_slot(self):
        converter, *_ = make_converter(fig7_topology())
        batch = converter.convert(fig7_strict())
        by_index = {s.index: s for s in batch.slots}
        for (slot_idx, link), nodes in batch.inbound.items():
            prev = by_index.get(slot_idx - 1)
            if prev is None:
                continue  # triggered from the connector slot
            for node in nodes:
                assert node in prev.participants() | {link.src}

    def test_backup_trigger_prefers_foreign_chain(self):
        converter, imap, *_ = make_converter(fig7_topology())
        batch = converter.convert(fig7_strict())
        foreign_backups = 0
        for (slot_idx, link), nodes in batch.inbound.items():
            if len(nodes) == 2:
                endpoint_set = {link.src, link.dst}
                if nodes[1] not in endpoint_set:
                    foreign_backups += 1
        assert foreign_backups > 0

    def test_untriggerable_real_link_reported(self):
        """A link whose sender nobody can reach must be reported for
        rescheduling, not silently scheduled."""
        topology = fig1_topology()
        # No fakes (so AP3 is absent from slot 0) and a crippled map:
        # no over-the-air trigger can reach anyone.
        converter, imap, graph, universe = make_converter(
            topology, ConverterConfig(insert_fakes=False))
        imap.node_can_trigger = lambda src, dst: False
        strict = StrictSchedule()
        strict.append([Link(0, 1)])
        strict.append([Link(4, 5)])  # AP3 unreachable from slot 0
        batch = converter.convert(strict)
        assert (batch.slots[1].index, Link(4, 5)) not in batch.inbound
        assert any(link == Link(4, 5) for _, link in batch.untriggerable)


class TestBatchConnection:
    def test_global_slot_indices_continuous(self):
        converter, *_ = make_converter(fig7_topology())
        first = converter.convert(fig7_strict())
        second = converter.convert(fig7_strict())
        assert first.slots[0].index == 0
        assert second.slots[0].index == first.slots[-1].index + 1

    def test_first_batch_is_initial(self):
        converter, *_ = make_converter(fig7_topology())
        assert converter.convert(fig7_strict()).initial
        assert not converter.convert(fig7_strict()).initial

    def test_second_batch_carries_connector_duties(self):
        converter, *_ = make_converter(fig7_topology())
        first = converter.convert(fig7_strict())
        second = converter.convert(fig7_strict())
        connector_index = first.slots[-1].index
        connector_duties = [d for (node, slot), d in second.duties.items()
                            if slot == connector_index]
        assert connector_duties or any(
            (connector_index + 1, e.link) in second.inbound
            for e in second.slots[0].entries
        )


class TestRopInsertion:
    def ap_links(self, topology):
        links = {}
        for ap in topology.network.aps:
            links[ap.node_id] = [
                l for l in topology.all_association_links()
                if topology.network.ap_of(l.src) == ap.node_id
            ]
        return links

    def test_all_aps_polled(self):
        topology = fig7_topology()
        converter, *_ = make_converter(topology)
        rop_aps = [ap.node_id for ap in topology.network.aps]
        batch = converter.convert(fig7_strict(), rop_aps=rop_aps,
                                  ap_links=self.ap_links(topology))
        polled = {ap for aps in batch.rop_polls.values() for ap in aps}
        assert polled == set(rop_aps)

    def test_at_most_one_rop_slot_per_gap(self):
        topology = fig7_topology()
        converter, *_ = make_converter(topology)
        rop_aps = [ap.node_id for ap in topology.network.aps]
        batch = converter.convert(fig7_strict(), rop_aps=rop_aps,
                                  ap_links=self.ap_links(topology))
        for slot_idx, aps in batch.rop_polls.items():
            assert len(aps) == len(set(aps))

    def test_sharing_requires_nonconflicting_links(self):
        topology = fig7_topology()
        converter, imap, graph, _ = make_converter(topology)
        rop_aps = [ap.node_id for ap in topology.network.aps]
        ap_links = self.ap_links(topology)
        batch = converter.convert(fig7_strict(), rop_aps=rop_aps,
                                  ap_links=ap_links)
        for aps in batch.rop_polls.values():
            for a, b in itertools.combinations(aps, 2):
                for la in ap_links[a]:
                    for lb in ap_links[b]:
                        assert lb not in graph[la]

    def test_rop_flag_set_on_duties(self):
        topology = fig7_topology()
        converter, *_ = make_converter(topology)
        rop_aps = [ap.node_id for ap in topology.network.aps]
        batch = converter.convert(fig7_strict(), rop_aps=rop_aps,
                                  ap_links=self.ap_links(topology))
        flagged_slots = {slot for slot in batch.rop_polls}
        for (node, slot_idx), duty in batch.duties.items():
            if slot_idx in flagged_slots and not duty.empty:
                assert duty.rop_flag

    def test_rop_disabled_by_config(self):
        topology = fig7_topology()
        config = ConverterConfig(insert_rop=False)
        converter, *_ = make_converter(topology, config)
        batch = converter.convert(fig7_strict(), rop_aps=[0, 2],
                                  ap_links=self.ap_links(topology))
        assert batch.rop_polls == {}


class TestPrograms:
    def test_programs_partition_batch(self):
        topology = fig7_topology()
        converter, *_ = make_converter(topology)
        rop_aps = [ap.node_id for ap in topology.network.aps]
        ap_links = TestRopInsertion().ap_links(topology)
        batch = converter.convert(fig7_strict(), rop_aps=rop_aps,
                                  ap_links=ap_links)
        programs = build_programs(batch)
        total_sends = sum(len(p.send_slots) for p in programs.values())
        total_entries = sum(len(s.entries) for s in batch.slots)
        assert total_sends == total_entries
        for program in programs.values():
            for slot, entry in program.send_slots.items():
                assert entry.link.src == program.node

    def test_rop_wait_slots_follow_polls(self):
        topology = fig7_topology()
        converter, *_ = make_converter(topology)
        rop_aps = [ap.node_id for ap in topology.network.aps]
        ap_links = TestRopInsertion().ap_links(topology)
        batch = converter.convert(fig7_strict(), rop_aps=rop_aps,
                                  ap_links=ap_links)
        programs = build_programs(batch)
        for slot_idx in batch.rop_polls:
            following = batch.slot_by_index(slot_idx + 1)
            if following is None:
                continue
            for entry in following.entries:
                program = programs[entry.link.src]
                assert slot_idx + 1 in program.rop_wait_slots

    def test_self_trigger_slots_recorded(self):
        topology = fig1_topology()
        converter, *_ = make_converter(topology)
        strict = StrictSchedule()
        # Same link in consecutive slots -> self-trigger.
        strict.append([Link(3, 2)])
        strict.append([Link(3, 2)])
        batch = converter.convert(strict)
        programs = build_programs(batch)
        assert batch.slots[1].index in programs[3].self_trigger_slots
