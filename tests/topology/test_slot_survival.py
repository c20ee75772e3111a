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
where a reordered or dropped term would flip them.  The guard-band
tests put single receptions ulps either side of the data and ACK
thresholds, where the fold's mW comparison must defer to the dB test.
"""

import itertools
import math

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


# ----------------------------------------------------------------------
# The mW guard band: verdicts within ulps of the thresholds
# ----------------------------------------------------------------------
#: ``(threshold, signal dBm, interferer dBm)`` where the dB verdict
#: passes but the bare mW comparison ``I <= S / dbm_to_mw(min_db)``
#: fails: the float error of the two paths differs in the last ulp, so
#: a mW-only fold would flip this verdict.  Found by scanning ulps
#: around the cap for signals from -80 to -60 dBm.
BARE_MW_DISAGREES = [
    ("data", -80.0, -94.020624399283),
    ("ack", -80.0, -89.25627577491815),
]
ULPS = 48


def two_link_world(reception, signal_dbm, interferer_dbm):
    """``0->1`` and ``2->3``, where one reception of ``0->1`` (its
    data at 1 from 0, or its ACK at 0 from 1) faces the other link
    alone; every other reception is clear."""
    clear = -40.0
    levels = {(0, 1): clear, (1, 0): clear, (2, 3): clear, (3, 2): clear}
    if reception == "data":
        levels[(0, 1)] = signal_dbm
        levels[(2, 1)] = interferer_dbm
    else:
        levels[(1, 0)] = signal_dbm
        levels[(3, 0)] = interferer_dbm
    matrix = [[levels.get((tx, rx), NO_PATH) for rx in range(4)]
              for tx in range(4)]
    return InterferenceMap(RssTable.from_matrix(matrix), DOT11G,
                           margin_db=MARGIN_DB)


def ulps_around(level):
    """Every float from ``ULPS`` ulps below ``level`` to as many above."""
    values = [level]
    for _ in range(ULPS):
        values.append(math.nextafter(values[-1], math.inf))
        values.insert(0, math.nextafter(values[0], NO_PATH))
    return values


def min_db(imap, reception):
    return imap.data_min_db if reception == "data" else imap.ack_min_db


def boundary_interferers(imap, reception, signal_dbm):
    """Interferer levels around the one whose sum with the noise floor
    sits on the reception's SINR threshold."""
    cap_mw = dbm_to_mw(signal_dbm) / dbm_to_mw(min_db(imap, reception))
    return ulps_around(mw_to_dbm(cap_mw - imap.noise_mw))


def assert_slot_matches_db_fold(imap):
    """Every SlotSurvival entry point against ``ref_set_survives``."""
    a, b = Link(0, 1), Link(2, 3)
    expected = ref_set_survives(imap, [a, b])
    for first, second in ((a, b), (b, a)):
        slot = imap.slot()
        kept = [first] if ref_set_survives(imap, [first]) else []
        assert slot.try_add(first) is bool(kept)
        fits = ref_set_survives(imap, [*kept, second])
        assert slot.fits(second) is fits
        assert slot.try_add(second) is fits
        assert slot.links == kept + [second] * fits
    assert imap.conflicts(a, b) is (not expected)
    assert imap.set_survives([a, b]) is expected
    assert imap.set_survives([b, a]) is expected
    return expected


def test_bare_mw_comparison_disagrees_with_db_verdict():
    for reception, signal_dbm, interferer_dbm in BARE_MW_DISAGREES:
        imap = two_link_world(reception, signal_dbm, interferer_dbm)
        threshold = min_db(imap, reception)
        signal_mw = dbm_to_mw(signal_dbm)
        interference_mw = imap.noise_mw + dbm_to_mw(interferer_dbm)
        db_verdict = (mw_to_dbm(signal_mw) - mw_to_dbm(interference_mw)
                      >= threshold)
        assert db_verdict is not (
            interference_mw <= signal_mw / dbm_to_mw(threshold))
        assert assert_slot_matches_db_fold(imap) is db_verdict


def test_verdicts_within_ulps_of_the_thresholds():
    """Data and ACK receptions straddling their thresholds by single
    ulps, accepted first or tested as the candidate, take the dB
    verdict on both sides."""
    for reception in ("data", "ack"):
        for signal_dbm in (-80.0, -76.3, -71.0, -64.9, -60.0):
            probe = two_link_world(reception, signal_dbm, NO_PATH)
            verdicts = {
                assert_slot_matches_db_fold(
                    two_link_world(reception, signal_dbm, level))
                for level in boundary_interferers(probe, reception,
                                                  signal_dbm)}
            assert verdicts == {True, False}, (reception, signal_dbm)


def test_lone_link_on_the_noise_floor():
    """A link alone faces only the noise floor: signals ulps either
    side of ``noise + min_db`` still take the dB verdict, and a 0 mW
    signal fails."""
    for reception in ("data", "ack"):
        probe = two_link_world(reception, -40.0, NO_PATH)
        level = mw_to_dbm(probe.noise_mw) + min_db(probe, reception)
        verdicts = set()
        for signal_dbm in [*ulps_around(level), NO_PATH]:
            imap = two_link_world(reception, signal_dbm, NO_PATH)
            alone = ref_set_survives(imap, [Link(0, 1)])
            assert imap.slot().fits(Link(0, 1)) is alone
            verdicts.add(alone)
            assert_slot_matches_db_fold(imap)
        assert verdicts == {True, False}, reception
        assert not alone  # the 0 mW signal
