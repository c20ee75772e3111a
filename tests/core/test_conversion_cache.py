"""Conversion cache: replay equality, keys, invalidation (ISSUE 3).

The load-bearing property: a cache *hit* must return a batch equal to
what a fresh conversion would have produced — including the slot/batch
renumbering and the ``rop_after`` side effect on the live connector
slot.  Every test mirrors a cached converter against an uncached one
fed the identical call sequence and compares full dataclass equality.
"""

from repro.core.conversion_cache import ConversionCache, clone_batch
from repro.core.converter import ConverterConfig, ScheduleConverter
from repro.sched.strict_schedule import StrictSchedule
from repro.topology.builder import fig7_topology
from repro.topology.conflict_graph import build_conflict_graph
from repro.topology.links import Link


def make_converter(topology, cache=None):
    imap = topology.interference_map()
    universe = list(topology.flows)
    for link in topology.all_association_links():
        if link not in universe:
            universe.append(link)
    graph = build_conflict_graph(imap, universe)
    return ScheduleConverter(imap, graph, fake_candidates=universe,
                             cache=cache)


def strict_a():
    strict = StrictSchedule()
    strict.append([Link(0, 1), Link(6, 7)])
    strict.append([Link(2, 3), Link(4, 5)])
    return strict


def strict_b():
    strict = StrictSchedule()
    strict.append([Link(2, 3), Link(4, 5)])
    strict.append([Link(0, 1), Link(6, 7)])
    strict.append([Link(2, 3), Link(4, 5)])
    return strict


def paired_converters():
    topology = fig7_topology()
    cached = make_converter(topology, cache=ConversionCache())
    fresh = make_converter(topology)
    return cached, fresh


class TestReplayEquality:
    def test_hit_equals_fresh_conversion(self):
        cached, fresh = paired_converters()
        for _ in range(4):
            assert cached.convert(strict_a()) == fresh.convert(strict_a())
        # Call 1 misses (no connector yet), call 2 misses (the key now
        # includes the carried-over connector entries); calls 3+ replay.
        assert cached.cache.hits == 2
        assert cached.cache.misses == 2

    def test_hits_equal_fresh_after_backlog_changes(self):
        """Alternating strict batches (a changing backlog) must replay
        correctly once the pattern repeats — connector entries are part
        of the key, so the first A-after-B is a fresh conversion."""
        cached, fresh = paired_converters()
        schedule = [strict_a, strict_b, strict_a, strict_b, strict_a,
                    strict_b]
        for build in schedule:
            assert cached.convert(build()) == fresh.convert(build())
        assert cached.cache.hits > 0
        assert cached.cache.hits + cached.cache.misses == len(schedule)

    def test_replay_renumbers_slots_and_batches(self):
        cached, _ = paired_converters()
        cached.convert(strict_a())
        second = cached.convert(strict_a())
        third = cached.convert(strict_a())      # replayed
        assert cached.cache.hits == 1
        assert third.batch_id == second.batch_id + 1
        offset = len(second.slots)
        assert [s.index for s in third.slots] == [
            s.index + offset for s in second.slots]

    def test_replay_reproduces_connector_rop_side_effect(self):
        """An ROP slot right after the connector appends poll APs to
        the *previous* batch's last slot; a replayed conversion must
        mutate the live connector the same way."""
        cached, fresh = paired_converters()
        rop_aps = [0]
        ap_links = {0: [Link(0, 1)]}
        for _ in range(3):
            a = cached.convert(strict_a(), rop_aps=rop_aps,
                               ap_links=ap_links)
            b = fresh.convert(strict_a(), rop_aps=rop_aps,
                              ap_links=ap_links)
            assert a == b

    def test_replayed_batch_is_not_the_stored_template(self):
        """Callers mutate returned batches (duty synthesis); the cache
        must hand out fresh containers every time."""
        cached, _ = paired_converters()
        cached.convert(strict_a())
        second = cached.convert(strict_a())
        third_expected = clone_batch(second, delta=len(second.slots),
                                     batch_id=second.batch_id + 1)
        second.slots[0].entries.clear()
        second.duties.clear()
        third = cached.convert(strict_a())
        assert third == third_expected


class TestKeysAndInvalidation:
    def test_rekey_invalidates(self):
        cached, _ = paired_converters()
        cached.convert(strict_a())
        cached.cache.refine_topology(keep=lambda *_: False)
        cached.convert(strict_a())
        assert cached.cache.hits == 0
        assert cached.cache.misses == 2

    def test_key_distinguishes_strict_and_rop_inputs(self):
        cache = ConversionCache()
        base = cache.key(None, strict_a(), (), None)
        assert cache.key(None, strict_b(), (), None) != base
        assert cache.key(None, strict_a(), (0,), None) != base
        assert cache.key(None, strict_a(), (),
                         {0: [Link(0, 1)]}) != base
        assert cache.key(None, strict_a(), (), None) == base

    def test_fifo_bound(self):
        cache = ConversionCache(max_entries=2)
        converter = make_converter(fig7_topology(), cache=cache)
        converter.convert(strict_a())
        converter.convert(strict_b())
        converter.convert(strict_a())
        assert len(cache) <= 2


class TestCloneBatch:
    def test_zero_delta_clone_is_equal_but_independent(self):
        converter = make_converter(fig7_topology())
        batch = converter.convert(strict_a())
        clone = clone_batch(batch)
        assert clone == batch
        clone.slots[0].entries.clear()
        clone.duties.clear()
        assert batch.slots[0].entries
        assert batch.duties

    def test_shifted_clone_moves_every_slot_reference(self):
        converter = make_converter(fig7_topology())
        batch = converter.convert(strict_a())
        delta = 5
        shifted = clone_batch(batch, delta=delta, batch_id=99)
        assert shifted.batch_id == 99
        assert [s.index for s in shifted.slots] == [
            s.index + delta for s in batch.slots]
        assert set(shifted.duties) == {
            (node, slot + delta) for node, slot in batch.duties}
        for (node, slot), duty in shifted.duties.items():
            assert duty.slot == slot
            assert duty.node == node
        assert set(shifted.inbound) == {
            (slot + delta, link) for slot, link in batch.inbound}
        assert set(shifted.rop_polls) == {
            slot + delta for slot in batch.rop_polls}
        assert shifted.untriggerable == [
            (slot + delta, link) for slot, link in batch.untriggerable]


class TestLinkInvalidation:
    """Per-link eviction must be surgical.

    Revalidating across a dirty link *i* evicts exactly the entries
    that involve it — entries over disjoint chains keep their hits.
    ``insert_fakes`` / ``insert_rop`` are off so each entry's footprint
    is exactly its strict chain (fakes would pull the whole universe
    into every template and make "disjoint" impossible on one
    topology).
    """

    @staticmethod
    def _bare_converter(cache):
        topology = fig7_topology()
        imap = topology.interference_map()
        universe = list(topology.flows)
        for link in topology.all_association_links():
            if link not in universe:
                universe.append(link)
        graph = build_conflict_graph(imap, universe)
        config = ConverterConfig(insert_fakes=False, insert_rop=False)
        return ScheduleConverter(imap, graph, fake_candidates=universe,
                                 config=config, cache=cache)

    @staticmethod
    def _chain_a():
        strict = StrictSchedule()
        strict.append([Link(0, 1)])
        strict.append([Link(2, 3)])
        return strict

    @staticmethod
    def _chain_b():
        strict = StrictSchedule()
        strict.append([Link(4, 5)])
        strict.append([Link(6, 7)])
        return strict

    def test_invalidating_link_spares_disjoint_chains(self):
        cache = ConversionCache()
        converter = self._bare_converter(cache)
        converter.convert(self._chain_a())
        converter.reset_connector()
        converter.convert(self._chain_b())
        converter.reset_connector()
        assert len(cache) == 2

        assert converter.revalidate_cache([Link(0, 1)], []) == (1, 1)
        assert len(cache) == 1

        # The disjoint chain still replays from cache...
        converter.convert(self._chain_b())
        converter.reset_connector()
        assert cache.hits == 1
        # ...while the invalidated one reconverts.
        converter.convert(self._chain_a())
        converter.reset_connector()
        assert cache.misses == 3

    def test_invalidation_covers_template_fakes(self):
        """A link absent from the key but accepted into the template
        as a fake must still evict the entry — a replay would re-emit
        it."""
        cache = ConversionCache()
        converter = make_converter(fig7_topology(), cache=cache)
        batch = converter.convert(strict_a())
        fake_links = {e.link for slot in batch.slots
                      for e in slot.entries if e.fake}
        key_only = {Link(l.src, l.dst) for slot in strict_a()
                    for l in slot}
        pure_fakes = fake_links - key_only
        assert pure_fakes, "fig7 strict_a leaves room for fakes"
        dirty = next(iter(sorted(pure_fakes)))
        assert converter.revalidate_cache([dirty], []) == (0, 1)
        assert cache.reject_counts["rule1"] == 1
        assert len(cache) == 0

    def test_invalidate_unknown_link_is_noop(self):
        cache = ConversionCache()
        converter = self._bare_converter(cache)
        converter.convert(self._chain_a())
        assert converter.revalidate_cache([Link(6, 7)], []) == (1, 0)
        assert len(cache) == 1


class TestRejectAttribution:
    """Revalidation rejections name the soundness rule that fired."""

    def test_counts_start_zeroed(self):
        cache = ConversionCache()
        assert cache.reject_counts == {
            "rule1": 0, "rule2": 0, "rule3": 0, "rule4": 0}

    def test_count_reject_accumulates(self):
        cache = ConversionCache()
        cache.count_reject("rule1")
        cache.count_reject("rule1")
        cache.count_reject("rule4")
        assert cache.reject_counts["rule1"] == 2
        assert cache.reject_counts["rule4"] == 1
        assert cache.reject_counts["rule2"] == 0

    def test_dirty_semantic_link_attributes_rule1(self):
        cache = ConversionCache()
        converter = make_converter(fig7_topology(), cache=cache)
        converter.convert(strict_a())
        dirty = next(Link(l.src, l.dst) for slot in strict_a()
                     for l in slot)
        kept, evicted = converter.revalidate_cache(
            [dirty], [dirty.src])
        assert evicted == 1 and kept == 0
        assert cache.reject_counts["rule1"] == 1
        assert cache.reject_counts["rule3"] == 0

    def test_clean_migration_rejects_nothing(self):
        cache = ConversionCache()
        converter = make_converter(fig7_topology(), cache=cache)
        converter.convert(strict_a())
        kept, evicted = converter.revalidate_cache([], [])
        assert kept == 1 and evicted == 0
        assert sum(cache.reject_counts.values()) == 0
