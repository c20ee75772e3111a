"""The incremental slot accumulator against a brute-force SINR fold.

``SlotSurvival.try_add`` keeps two running interference sums per
accepted link instead of re-folding the whole slot for every
candidate.  These properties pin it, ``set_survives``, the pairwise
``conflicts`` and the slot-extension primitive built on it to a
reference written out here: the whole-slot fold over
``[*accepted, cand]`` (every reception faces every other link, noise
first, list order), with the scheduler's and converter's accept loops
written out candidate by candidate.  RSS
matrices mix unreachable pairs (-inf dBm, 0 mW), values on the
decode threshold and arbitrary levels, so verdicts sit on the boundary
where a reordered or dropped term would flip them.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.converter import ConverterConfig, ScheduleConverter
from repro.core.relative_schedule import SlotEntry
from repro.sched.rand_scheduler import RandScheduler
from repro.sim.phy import DOT11G, dbm_to_mw, mw_to_dbm
from repro.topology.conflict_graph import (build_conflict_graph,
                                           greedy_maximal_extension)
from repro.topology.interference_map import InterferenceMap, RssTable
from repro.topology.links import Link
from tests.graphs import undirected

MARGIN_DB = 3.0
NO_PATH = float("-inf")  # unreachable: 0 mW

# Two regimes for the RSS between a pair's nodes (``link``) and
# between nodes of different pairs (``cross``).  Wide: data decodes at
# SINR >= 8 + 3 dB and ACKs at >= 5 + 3 dB over a -94 dBm floor, so
# -83 and -86 dBm links sit exactly on those boundaries alone.
# Additive: a -62 dBm link tolerates one -74.5 dBm interferer but not
# two, nor -74.5 plus -77.5, nor three at -77.5, so sums decide, not
# pairs.
WIDE = (
    st.one_of(st.sampled_from([-83.0, -86.0, -62.0, -50.0]),
              st.floats(min_value=-90.0, max_value=-40.0)),
    st.one_of(st.sampled_from([NO_PATH] * 4 + [-74.5, -77.5, -71.5, -94.0]),
              st.floats(min_value=-110.0, max_value=-70.0)),
)
ADDITIVE = (
    st.sampled_from([-62.0, -59.0, -65.0]),
    st.sampled_from([NO_PATH, -74.5, -77.5, -80.5]),
)


@st.composite
def worlds(draw, max_nodes=10):
    """An interference map over a random RSS matrix, plus its links.

    Nodes ``2i`` and ``2i + 1`` form a pair whose link is usually
    viable.  The candidates are both directions of every pair plus a
    few links across pairs, in random order.
    """
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    link_level, cross_level = draw(st.sampled_from([WIDE, ADDITIVE]))
    matrix = [[NO_PATH if tx == rx else
               draw(link_level if tx // 2 == rx // 2 else cross_level)
               for rx in range(n)] for tx in range(n)]
    imap = InterferenceMap(RssTable.from_matrix(matrix), DOT11G,
                           margin_db=MARGIN_DB)
    links = [Link(a, b) for a, b in itertools.permutations(range(n), 2)]
    candidates = [link for link in links if link.src // 2 == link.dst // 2]
    across = [link for link in links if link.src // 2 != link.dst // 2]
    if across:
        candidates += draw(st.lists(st.sampled_from(across), max_size=n,
                                    unique=True))
    return imap, draw(st.permutations(candidates))


# ----------------------------------------------------------------------
# Reference: the whole-slot fold, re-run in full for every query.
# ----------------------------------------------------------------------
def ref_reception(imap, signal_from, at, interferers, rate):
    dbm = imap.table.dbm
    signal_mw = dbm_to_mw(dbm[signal_from][at])
    interference_mw = imap.profile.noise_mw()
    for node in interferers:
        interference_mw += dbm_to_mw(dbm[node][at])
    sinr_db = mw_to_dbm(signal_mw) - mw_to_dbm(interference_mw)
    return sinr_db >= imap.profile.sinr_threshold_db(rate) + imap.margin_db


def ref_set_survives(imap, links):
    profile = imap.profile
    nodes = [node for link in links for node in link]
    if len(set(nodes)) != len(nodes):
        return False
    for link in links:
        others = [o for o in links if o != link]
        if not ref_reception(imap, link.src, link.dst,
                             [o.src for o in others], profile.data_rate_mbps):
            return False
        if not ref_reception(imap, link.dst, link.src,
                             [o.dst for o in others], profile.basic_rate_mbps):
            return False
    return True


def ref_build_slot(graph, imap, queue, demands):
    """The RAND slot loop with a whole-slot check per candidate."""
    slot = []
    for link in queue:
        if demands.get(link, 0) <= 0:
            continue
        if any(chosen in graph[link] for chosen in slot):
            continue
        if not ref_set_survives(imap, [*slot, link]):
            continue
        slot.append(link)
    return slot


def ref_fake_accepts(graph, imap, cand, chosen, excluded):
    """The fake-insertion accept test for one candidate."""
    if cand in chosen:
        return False
    if cand.src in excluded or cand.dst in excluded:
        return False
    if any(cand.shares_node(link) for link in chosen):
        return False
    if any(link in graph[cand] for link in chosen):
        return False
    return ref_set_survives(imap, [*chosen, cand])


def ref_insert_fakes(graph, imap, base, candidates, excluded):
    chosen = list(base)
    for cand in candidates:
        if ref_fake_accepts(graph, imap, cand, chosen, excluded):
            chosen.append(cand)
    return chosen


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=300)
@given(worlds())
def test_try_add_matches_whole_slot_fold(world):
    imap, candidates = world
    slot = imap.slot()
    accepted = []
    for cand in candidates:
        expected = ref_set_survives(imap, [*accepted, cand])
        assert slot.try_add(cand) is expected, (accepted, cand)
        if expected:
            accepted.append(cand)
        assert slot.links == accepted


@settings(deadline=None, max_examples=150)
@given(worlds(), st.data())
def test_set_survives_matches_whole_slot_fold(world, data):
    imap, links = world
    subset = data.draw(st.lists(st.sampled_from(links), max_size=5))
    assert imap.set_survives(subset) is ref_set_survives(imap, subset)


@settings(deadline=None, max_examples=150)
@given(worlds(), st.data())
def test_conflicts_matches_two_link_fold(world, data):
    """The pairwise conflict is the two-link slot: shared-node pairs
    (including a link with itself or its reverse) and pairs broken by
    either data or ACK reception alike."""
    imap, links = world
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(links),
                                         st.sampled_from(links)),
                               min_size=1, max_size=8))
    for l1, l2 in pairs:
        assert imap.conflicts(l1, l2) is (
            not ref_set_survives(imap, [l1, l2])), (l1, l2)


@settings(deadline=None, max_examples=60)
@given(worlds(max_nodes=8), st.data())
def test_rand_slot_matches_reference_loop(world, data):
    imap, queue = world
    graph = build_conflict_graph(imap, queue)
    demands = {link: data.draw(st.integers(min_value=0, max_value=2))
               for link in queue}
    scheduler = RandScheduler(graph, queue, imap=imap)
    assert scheduler._build_slot(demands) == ref_build_slot(
        graph, imap, queue, demands)


@settings(deadline=None, max_examples=60)
@given(worlds(max_nodes=8), st.data())
def test_fake_insertion_matches_reference_loop(world, data):
    imap, candidates = world
    graph = build_conflict_graph(imap, candidates)
    # Any base, including ones that share nodes or fail additively.
    base = data.draw(st.lists(st.sampled_from(candidates), max_size=3,
                              unique=True))
    nodes = sorted({node for link in candidates for node in link})
    excluded = frozenset(data.draw(st.lists(st.sampled_from(nodes),
                                            max_size=2)))
    expected = ref_insert_fakes(graph, imap, base, candidates, excluded)

    assert greedy_maximal_extension(graph, base, candidates, imap,
                                    excluded) == expected
    converter = ScheduleConverter(
        imap, graph, fake_candidates=candidates,
        config=ConverterConfig(fake_exclude_nodes=excluded))
    entries = converter._insert_fakes(
        [SlotEntry(link=link, fake=False) for link in base])
    assert [e.link for e in entries] == expected
    assert [e.fake for e in entries] == [i >= len(base)
                                         for i in range(len(expected))]
    for cand in candidates:
        assert converter._fake_would_accept(cand, base, excluded) is \
            ref_fake_accepts(graph, imap, cand, base, excluded)


def test_failing_base_lets_no_candidate_in():
    """0->1 breaks under 2->3 plus 4->5 together; 6->7 is harmless."""
    levels = {(0, 1): -62.0, (2, 3): -50.0, (4, 5): -50.0, (6, 7): -50.0,
              (1, 2): -74.5, (1, 4): -74.5}

    def rss(tx, rx):  # reciprocal channel
        return levels.get((min(tx, rx), max(tx, rx)), float("-inf"))

    table = RssTable.from_matrix([[rss(tx, rx) for rx in range(8)]
                                  for tx in range(8)])
    imap = InterferenceMap(table, DOT11G, margin_db=MARGIN_DB)
    base = [Link(0, 1), Link(2, 3), Link(4, 5)]
    far = Link(6, 7)
    graph = undirected([*base, far])
    assert not imap.set_survives(base)
    assert imap.set_survives([Link(0, 1), Link(2, 3), far])
    assert greedy_maximal_extension(graph, base, [far], imap) == base
    assert greedy_maximal_extension(graph, base[:2], [far], imap) == [
        *base[:2], far]
