"""Tests for the central interference map."""


from repro.topology.interference_map import InterferenceMap
from repro.sim.phy import DOT11G
from repro.topology.builder import fig1_topology
from repro.topology.links import Link
from repro.topology.trace import manual_trace


def make_imap(pairs, n=6, margin=3.0):
    trace = manual_trace(n, pairs)
    return InterferenceMap(trace.rss_fn(), DOT11G, margin_db=margin)


def test_shared_node_always_conflicts():
    imap = make_imap({(0, 1): -50.0, (1, 2): -50.0})
    assert imap.conflicts(Link(0, 1), Link(1, 2))
    assert imap.conflicts(Link(0, 1), Link(2, 1))


def test_data_interference_conflict():
    # Link 2->3's sender is loud at receiver 1: conflict.
    imap = make_imap({(0, 1): -50.0, (2, 3): -50.0, (2, 1): -55.0})
    assert imap.conflicts(Link(0, 1), Link(2, 3))


def test_ack_on_ack_conflict():
    # Receivers loud at each other's senders break the ACK exchange.
    imap = make_imap({(0, 1): -50.0, (2, 3): -50.0, (3, 0): -52.0})
    assert imap.conflicts(Link(0, 1), Link(2, 3))


def test_data_does_not_see_foreign_ack_interference():
    """Slot-aligned semantics: the other link's *receiver* being loud
    at my receiver is irrelevant (ACKs never overlap foreign data)."""
    imap = make_imap({(0, 1): -50.0, (2, 3): -50.0, (3, 1): -52.0})
    assert not imap.conflicts(Link(0, 1), Link(2, 3))


def test_far_links_independent():
    imap = make_imap({(0, 1): -50.0, (2, 3): -50.0})
    assert not imap.conflicts(Link(0, 1), Link(2, 3))


#: Three pairwise-compatible links whose interference adds up to break
#: one reception — the pairwise graph misses this.
ADDITIVE_PAIRS = {
    (0, 1): -62.0,             # marginal victim link
    (2, 3): -50.0, (4, 5): -50.0,
    # each interferer alone leaves ~12.5 dB SINR (threshold 8+3):
    (2, 1): -74.5, (4, 1): -74.5,
}


def test_set_survives_catches_additive_interference():
    imap = make_imap(ADDITIVE_PAIRS)
    assert not imap.conflicts(Link(0, 1), Link(2, 3))
    assert not imap.conflicts(Link(0, 1), Link(4, 5))
    assert imap.set_survives([Link(0, 1), Link(2, 3)])
    # Together the two interferers push SINR below threshold+margin.
    assert not imap.set_survives([Link(0, 1), Link(2, 3), Link(4, 5)])


def test_set_survives_rejects_shared_nodes():
    imap = make_imap({(0, 1): -50.0, (1, 2): -50.0})
    assert not imap.set_survives([Link(0, 1), Link(1, 2)])


def test_link_viability():
    imap = make_imap({(0, 1): -50.0, (2, 3): -86.0})
    assert imap.link_viable(Link(0, 1))
    assert not imap.link_viable(Link(2, 3))  # below 12 Mbps + margin


def test_trigger_reachability_uses_correlation_gain():
    imap = make_imap({(0, 1): -50.0, (0, 2): -95.0})
    # -95 dBm is hopeless for data but the correlator's ~21 dB of
    # processing gain keeps the signature detectable.
    assert imap.node_can_trigger(0, 2)
    assert not imap.node_can_trigger(0, 5)  # default -120: silence


def test_link_can_trigger_via_either_endpoint():
    imap = make_imap({(0, 1): -50.0, (1, 2): -80.0})
    assert imap.link_can_trigger(Link(0, 1), 2)   # via receiver 1
    assert imap.trigger_rss_dbm(Link(0, 1), 2) == -80.0


def test_census_on_fig1():
    topo = fig1_topology()
    imap = topo.interference_map()
    census = imap.census(topo.flows)
    assert census["total"] == 3
    assert census["hidden"] == 1     # (AP1->C1, AP3->C3)
    assert census["exposed"] == 1    # (AP1->C1, C2->AP2)
    assert census["independent"] == 1


def test_classify_pair_conflict_with_cs():
    # Conflicting AND senders in CS range -> plain 'conflict'.
    imap = make_imap({(0, 1): -50.0, (2, 3): -50.0,
                      (2, 1): -55.0, (0, 2): -70.0})
    assert imap.classify_pair(Link(0, 1), Link(2, 3)) == "conflict"
