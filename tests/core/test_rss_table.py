"""The control plane's RSS table and the ranked trigger choice.

``ControlPlane.write_rss`` is the only writer of the table's dBm and
mW rows.  The first property replays random write sequences on
a plane beside a numpy reference matrix written the way the matrix
used to be, and checks every row, and the SINR verdicts read from
them, after every write.  The second pins the converter's ranked
trigger choice to the linear scan it replaced, on inputs full of RSS
ties, foreign-only passes and exhausted outbound budgets.  The third
interleaves writes with trigger choices on one plane, so a ranking
kept across a write that moved it would show.
"""

import copy
import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.control_plane import ControlPlane
from repro.core.converter import (ConverterConfig, ScheduleConverter,
                                  _DutyBuilder)
from repro.core.relative_schedule import RelativeBatch, RelativeSlot, SlotEntry
from repro.sim.phy import DOT11G, dbm_to_mw, mw_to_dbm
from repro.topology.interference_map import InterferenceMap, RssTable
from repro.topology.links import Link

MARGIN_DB = 3.0
NO_PATH = float("-inf")  # unreachable: 0 mW
#: Levels around the decode and trigger boundaries, repeated so that
#: draws tie often.
LEVELS = st.one_of(
    st.sampled_from([NO_PATH, -110.0, -94.0, -86.0, -83.0, -77.5, -74.5,
                     -62.0, -50.0]),
    st.floats(min_value=-110.0, max_value=-40.0))


# ----------------------------------------------------------------------
# Reference: the whole-slot fold over a numpy matrix, read per term.
# ----------------------------------------------------------------------
def ref_reception(ref, signal_from, at, interferers, rate):
    signal_mw = dbm_to_mw(float(ref[signal_from, at]))
    interference_mw = DOT11G.noise_mw()
    for node in interferers:
        interference_mw += dbm_to_mw(float(ref[node, at]))
    sinr_db = mw_to_dbm(signal_mw) - mw_to_dbm(interference_mw)
    return sinr_db >= DOT11G.sinr_threshold_db(rate) + MARGIN_DB


def ref_set_survives(ref, links):
    nodes = [node for link in links for node in link]
    if len(set(nodes)) != len(nodes):
        return False
    for link in links:
        others = [o for o in links if o != link]
        if not ref_reception(ref, link.src, link.dst,
                             [o.src for o in others], DOT11G.data_rate_mbps):
            return False
        if not ref_reception(ref, link.dst, link.src,
                             [o.dst for o in others],
                             DOT11G.basic_rate_mbps):
            return False
    return True


def ref_write(ref, node, rss_to, rss_from):
    """What ``NetworkState`` did to its matrix before the table."""
    n = ref.shape[0]
    if not 0 <= node < n:
        return
    for other, value in rss_to.items():
        if other != node and 0 <= other < n:
            ref[node, other] = float(value)
    for other, value in rss_from.items():
        if other != node and 0 <= other < n:
            ref[other, node] = float(value)


@st.composite
def write_sequences(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    matrix = np.array([[NO_PATH if tx == rx else draw(LEVELS)
                        for rx in range(n)] for tx in range(n)])
    # Nodes -1 and n name no row; they must write nothing.
    nodes = st.integers(min_value=-1, max_value=n)
    entries = st.dictionaries(nodes, LEVELS, max_size=n + 1)
    writes = draw(st.lists(st.tuples(nodes, entries, entries),
                           min_size=1, max_size=6))
    return matrix, writes


@settings(deadline=None, max_examples=150)
@given(write_sequences(), st.data())
def test_write_rss_matches_a_written_matrix(case, data):
    matrix, writes = case
    n = matrix.shape[0]
    ref = matrix.copy()
    links = [Link(a, b) for a, b in itertools.permutations(range(n), 2)]
    plane = ControlPlane(RssTable.from_matrix(matrix), DOT11G, links[:4],
                         ConverterConfig(), batch_slots=2, demand_cap=1)
    table, imap = plane.table, plane.imap
    for node, rss_to, rss_from in writes:
        plane.write_rss(node, rss_to, rss_from)
        ref_write(ref, node, rss_to, rss_from)
        for tx, rx in itertools.product(range(n), repeat=2):
            dbm = float(ref[tx, rx])
            assert table.dbm[tx][rx] == dbm, (tx, rx)
            assert table.mw[tx][rx] == dbm_to_mw(dbm), (tx, rx)
            assert imap.node_can_trigger(tx, rx) is (
                dbm - DOT11G.noise_dbm >= imap.trigger_min_snr_db)
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(links),
                                             st.sampled_from(links)),
                                   min_size=1, max_size=4))
        for l1, l2 in pairs:
            assert imap.conflicts(l1, l2) is (
                not ref_set_survives(ref, [l1, l2])), (l1, l2)
        subset = data.draw(st.lists(st.sampled_from(links), max_size=4))
        assert imap.set_survives(subset) is ref_set_survives(ref, subset)


def test_unreachable_pair_is_zero_milliwatts():
    table = RssTable.from_matrix([[NO_PATH, -50.0], [NO_PATH, NO_PATH]])
    assert table.mw[1][0] == 0.0


# ----------------------------------------------------------------------
# Reference: the linear trigger scan the ranking replaced.
# ----------------------------------------------------------------------
def ref_assign_triggers(imap, config, prev, nxt, duties, batch):
    candidates = sorted(prev.participants())
    inbound = {e.link: [] for e in nxt.entries}

    def try_assign(entry, foreign_only=False):
        link = entry.link
        target = link.src
        best = None
        best_rss = float("-inf")
        for node in candidates:
            if node in inbound[link]:
                continue
            if foreign_only and node in (link.src, link.dst):
                continue
            duty = duties.get((node, prev.index))
            if duty is not None and duty.outbound >= config.max_outbound:
                continue
            if node == target:
                best = node
                break
            if not imap.node_can_trigger(node, target):
                continue
            rss = imap.table.dbm[node][target]
            if rss > best_rss:
                best = node
                best_rss = rss
        if best is None:
            return False
        inbound[link].append(best)
        if best != target:
            duties.setdefault((best, prev.index),
                              _DutyBuilder(node=best, slot=prev.index)
                              ).targets.add(target)
        return True

    survivors = []
    for entry in nxt.entries:
        if try_assign(entry):
            survivors.append(entry)
        elif not entry.fake:
            batch.untriggerable.append((nxt.index, entry.link))
    for entry in survivors:
        if len(inbound[entry.link]) < config.max_inbound:
            if not try_assign(entry, foreign_only=True):
                try_assign(entry)
    nxt.entries = [e for e in nxt.entries if e in survivors]
    for entry in survivors:
        batch.inbound[(nxt.index, entry.link)] = inbound[entry.link]


def matching(draw, nodes):
    """Disjoint links over a random subset of ``nodes``."""
    order = draw(st.permutations(nodes))
    size = draw(st.integers(min_value=1, max_value=len(order) // 2))
    return [Link(order[2 * i], order[2 * i + 1]) for i in range(size)]


def slot_pair(draw, n, config):
    """``prev`` and ``nxt`` over ``n`` nodes, and the outbound budgets
    already spent in ``prev``, some of them exhausted."""
    prev = RelativeSlot(index=4, entries=[
        SlotEntry(link=link, fake=draw(st.booleans()))
        for link in matching(draw, list(range(n)))])
    nxt = RelativeSlot(index=5, entries=[
        SlotEntry(link=link, fake=draw(st.booleans()))
        for link in matching(draw, list(range(n)))])
    duties = {}
    for node in sorted(prev.participants()):
        spent = draw(st.integers(min_value=0,
                                 max_value=config.max_outbound))
        if spent:
            duties[(node, prev.index)] = _DutyBuilder(
                node=node, slot=prev.index,
                targets=set(range(100, 100 + spent)))
    return prev, nxt, duties


@st.composite
def trigger_cases(draw):
    n = draw(st.integers(min_value=4, max_value=9))
    # Few levels, so ties are common; -110 and -inf cannot trigger.
    level = st.sampled_from([NO_PATH, -110.0, -100.0, -80.0, -80.0,
                             -60.0, -60.0])
    matrix = [[NO_PATH if tx == rx else draw(level) for rx in range(n)]
              for tx in range(n)]
    config = ConverterConfig(
        max_inbound=draw(st.integers(min_value=1, max_value=3)),
        max_outbound=draw(st.integers(min_value=1, max_value=3)))
    return (matrix, config) + slot_pair(draw, n, config)


def run_assign(assign, prev, nxt, duties):
    prev, nxt, duties = copy.deepcopy((prev, nxt, duties))
    batch = RelativeBatch(batch_id=0)
    assign(prev, nxt, duties, batch)
    return (nxt.entries, batch.inbound, batch.untriggerable,
            {key: (duty.targets, duty.rop_polls)
             for key, duty in duties.items()})


@settings(deadline=None, max_examples=300)
@given(trigger_cases())
def test_ranked_triggers_match_the_linear_scan(case):
    matrix, config, prev, nxt, duties = case
    imap = InterferenceMap(RssTable.from_matrix(matrix), DOT11G,
                           margin_db=MARGIN_DB)
    converter = ScheduleConverter(imap, {}, fake_candidates=[],
                                  config=config)
    def reference(*args):
        ref_assign_triggers(imap, config, *args)

    assert run_assign(converter._assign_triggers, prev, nxt, duties) == \
        run_assign(reference, prev, nxt, duties)


# ----------------------------------------------------------------------
# Rankings across writes: the map's kept rankings against the scans
# ----------------------------------------------------------------------
def ref_rop_trigger_node(imap, config, slot, ap, duties):
    """The linear scan ``_rop_trigger_node`` replaced."""
    participants = slot.participants()
    if ap in participants:
        return ap
    best = None
    best_rss = float("-inf")
    for node in sorted(participants):
        duty = duties.get((node, slot.index))
        if duty is not None and duty.outbound >= config.max_outbound:
            continue
        if not imap.node_can_trigger(node, ap):
            continue
        rss = imap.table.dbm[node][ap]
        if rss > best_rss:
            best = node
            best_rss = rss
    return best


@st.composite
def interleavings(draw):
    """A plane's matrix and config, then writes and trigger queries
    in turn, every write followed by queries."""
    matrix, config, _, _, _ = draw(trigger_cases())
    n = len(matrix)
    level = st.sampled_from([NO_PATH, -110.0, -100.0, -80.0, -60.0])
    entries = st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                              level, max_size=n)
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        steps.append(("write", draw(st.integers(min_value=0,
                                                max_value=n - 1)),
                      draw(entries), draw(entries)))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            prev, nxt, duties = slot_pair(draw, n, config)
            ap = draw(st.integers(min_value=0, max_value=n - 1))
            steps.append(("query", prev, nxt, duties, ap))
    return matrix, config, steps


@settings(deadline=None, max_examples=300)
@given(interleavings())
def test_rankings_follow_every_write(case):
    matrix, config, steps = case
    n = len(matrix)
    plane = ControlPlane(RssTable.from_matrix(matrix), DOT11G,
                         [Link(0, 1)], config, batch_slots=2, demand_cap=1)
    imap, converter = plane.imap, plane.converter

    def reference(*args):
        ref_assign_triggers(imap, config, *args)

    # Rankings built before the first write must not survive it.
    for target in range(n):
        imap.trigger_rank(target)
    for step in steps:
        if step[0] == "write":
            plane.write_rss(*step[1:])
            continue
        _, prev, nxt, duties, ap = step
        assert run_assign(converter._assign_triggers, prev, nxt, duties) \
            == run_assign(reference, prev, nxt, duties)
        for slot in (prev, nxt):
            assert converter._rop_trigger_node(slot, ap, duties) == \
                ref_rop_trigger_node(imap, config, slot, ap, duties)
