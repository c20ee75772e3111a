"""Property-based tests: converter invariants over random topologies."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.core.converter import ScheduleConverter
from repro.core.relative_schedule import build_programs
from repro.topology.interference_map import InterferenceMap, RssTable
from repro.sched.rand_scheduler import RandScheduler
from repro.sim.phy import DOT11G
from repro.topology.conflict_graph import build_conflict_graph
from repro.topology.links import Link
from repro.topology.trace import manual_trace


def random_pairs_setup(n_pairs: int, seed: int):
    """Random AP-client pair layout with random hearing structure."""
    rng = random.Random(seed)
    rss = {}
    links = []
    for i in range(n_pairs):
        ap, client = 2 * i, 2 * i + 1
        rss[(ap, client)] = -50.0
        links.append(Link(ap, client))
        links.append(Link(client, ap))
    nodes = list(range(2 * n_pairs))
    for a, b in itertools.combinations(nodes, 2):
        if (a, b) in rss:
            continue
        roll = rng.random()
        if roll < 0.25:
            rss[(a, b)] = -70.0   # carrier-sense coupling
        elif roll < 0.4:
            rss[(a, b)] = -55.0   # reception-breaking interference
    trace = manual_trace(2 * n_pairs, rss)
    imap = InterferenceMap(RssTable.from_matrix(trace.rss_dbm), DOT11G)
    graph = build_conflict_graph(imap, links)
    return imap, graph, links


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=6))
def test_property_converter_invariants(n_pairs, seed, batch_slots):
    imap, graph, links = random_pairs_setup(n_pairs, seed)
    scheduler = RandScheduler(graph, links, imap=imap)
    converter = ScheduleConverter(imap, graph, fake_candidates=links)

    demands = {l: 2 for l in links}
    for batch_round in range(3):
        strict = scheduler.schedule_batch(demands, max_slots=batch_slots)
        while len(strict) < batch_slots:
            strict.append([])
        batch = converter.convert(strict)

        # Slots are conflict-free, node-disjoint and additively safe.
        for slot in batch.slots:
            slot_links = slot.links()
            for l1, l2 in itertools.combinations(slot_links, 2):
                assert l2 not in graph[l1]
                assert not l1.shares_node(l2)
            assert imap.set_survives(slot_links)

        # Constraint caps.
        for nodes in batch.inbound.values():
            assert 1 <= len(nodes) <= converter.config.max_inbound
            assert len(set(nodes)) == len(nodes)
        for duty in batch.duties.values():
            assert duty.outbound <= converter.config.max_outbound

        # Global slot indices strictly increase across batches.
        indices = [slot.index for slot in batch.slots]
        assert indices == sorted(set(indices))

        # Every surviving non-first-slot entry has a trigger, and every
        # dropped real link is reported.
        first_index = batch.slots[0].index if batch.slots else -1
        for slot in batch.slots:
            if batch.initial and slot.index == first_index:
                continue
            for entry in slot.entries:
                assert (slot.index, entry.link) in batch.inbound
        for slot_idx, link in batch.untriggerable:
            assert (slot_idx, link) not in batch.inbound

        # Programs partition the batch's send entries exactly.
        programs = build_programs(batch)
        program_sends = sorted(
            (slot_idx, entry.link)
            for program in programs.values()
            for slot_idx, entry in program.send_slots.items()
        )
        batch_sends = sorted(
            (slot.index, entry.link)
            for slot in batch.slots for entry in slot.entries
        )
        assert program_sends == batch_sends


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_property_rop_insertion_constraints(n_pairs, seed):
    imap, graph, links = random_pairs_setup(n_pairs, seed)
    converter = ScheduleConverter(imap, graph, fake_candidates=links)
    ap_ids = [2 * i for i in range(n_pairs)]
    ap_links = {
        ap: [l for l in links if ap in (l.src, l.dst)] for ap in ap_ids
    }
    from repro.sched.strict_schedule import StrictSchedule
    strict = StrictSchedule()
    for _ in range(5):
        strict.append([])
    batch = converter.convert(strict, rop_aps=ap_ids, ap_links=ap_links)

    for slot_idx, aps in batch.rop_polls.items():
        # No duplicate polls in one gap.
        assert len(aps) == len(set(aps))
        # Sharing APs have non-conflicting links and cannot hear each
        # other (reference-broadcast preservation).
        for a, b in itertools.combinations(aps, 2):
            assert not imap.in_cs_range(a, b)
            for la in ap_links[a]:
                for lb in ap_links[b]:
                    assert lb not in graph[la]
    # An AP polls at most once per batch.
    all_polls = [ap for aps in batch.rop_polls.values() for ap in aps]
    assert len(all_polls) == len(set(all_polls))
