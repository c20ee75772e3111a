"""Central interference map (Sec. 3, "Identifying hidden and exposed links").

The DOMINO server maintains the received signal strength between all
node pairs and derives from it which links may transmit concurrently.
This module wraps an RSS source (trace matrix or propagation model)
and answers the questions the scheduler, converter and analysis need:

* can two links be active in the same slot (``conflicts``)?
* does a whole slot survive additive interference, grown one link at
  a time (``slot`` / ``SlotSurvival``, and ``set_survives`` on top)?
* can a node's signature trigger another node (``can_trigger``)?
* which link pairs are *hidden* or *exposed* — the counts reported in
  Sec. 4.2.3 ("10 hidden link pairs and 62 exposed link pairs out of
  720 possible link pairs").

Conflict definition: two links conflict when they share a node, or
when the sender (or the ACK-sending receiver) of one link lowers the
other link's data SINR below the decode threshold plus a safety
margin.  This mirrors the conflict-graph construction of the
measurement-based interference literature the paper cites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..sim.phy import (SIGNATURE_CORRELATION_GAIN_DB, PhyProfile, dbm_to_mw,
                       mw_to_dbm)
from .links import Link

RssFn = Callable[[int, int], float]


@dataclass
class InterferenceMap:
    """RSS-matrix view used by the central server.

    Parameters
    ----------
    rss_dbm:
        ``rss_dbm(tx, rx)`` in dBm, same convention as the medium.
    profile:
        PHY profile; supplies noise floor, CS threshold and the data
        SINR threshold used in the conflict test.
    margin_db:
        Safety margin added to the decode threshold when declaring two
        links compatible, so borderline pairs are scheduled apart.
    """

    rss_dbm: RssFn
    profile: PhyProfile
    margin_db: float = 3.0
    _trigger_cache: Dict[Tuple[int, int], bool] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Basic link quantities
    # ------------------------------------------------------------------
    def link_rss_dbm(self, link: Link) -> float:
        return self.rss_dbm(link.src, link.dst)

    def link_snr_db(self, link: Link) -> float:
        return self.link_rss_dbm(link) - self.profile.noise_dbm

    def link_viable(self, link: Link) -> bool:
        """Can the link carry data at the profile's data rate in isolation?"""
        threshold = self.profile.sinr_threshold_db(self.profile.data_rate_mbps)
        return (self.link_rss_dbm(link) >= self.profile.sensitivity_dbm
                and self.link_snr_db(link) >= threshold + self.margin_db)

    def in_cs_range(self, a: int, b: int) -> bool:
        """Do ``a`` and ``b`` carrier-sense each other's transmissions?"""
        return (self.rss_dbm(a, b) >= self.profile.cs_threshold_dbm
                or self.rss_dbm(b, a) >= self.profile.cs_threshold_dbm)

    # ------------------------------------------------------------------
    # Conflicts
    # ------------------------------------------------------------------
    def _sinr_survives(self, signal_from: int, at: int,
                       interferers: Iterable[int],
                       rate_mbps: Optional[float] = None) -> bool:
        """Does a reception at ``at`` from ``signal_from`` survive?"""
        signal_mw = dbm_to_mw(self.rss_dbm(signal_from, at))
        interference_mw = self.profile.noise_mw()
        for node in interferers:
            interference_mw += dbm_to_mw(self.rss_dbm(node, at))
        sinr_db = mw_to_dbm(signal_mw) - mw_to_dbm(interference_mw)
        rate = rate_mbps if rate_mbps is not None \
            else self.profile.data_rate_mbps
        threshold = self.profile.sinr_threshold_db(rate)
        return sinr_db >= threshold + self.margin_db

    def conflicts(self, l1: Link, l2: Link) -> bool:
        """May ``l1`` and ``l2`` NOT share a slot?

        In slot-aligned operation the two links' *data* transmissions
        overlap and, later in the slot, their *ACKs* overlap — data
        never overlaps a foreign ACK.  So the test is: each link's
        data reception must survive the other's data sender, and each
        link's ACK reception (receiver back to sender, at the basic
        rate) must survive the other's ACK sender.
        """
        if l1.shares_node(l2):
            return True
        basic = self.profile.basic_rate_mbps
        # Data vs. data.
        if not self._sinr_survives(l1.src, l1.dst, [l2.src]):
            return True
        if not self._sinr_survives(l2.src, l2.dst, [l1.src]):
            return True
        # ACK vs. ACK (receivers transmit, senders listen).
        if not self._sinr_survives(l1.dst, l1.src, [l2.dst], basic):
            return True
        if not self._sinr_survives(l2.dst, l2.src, [l1.dst], basic):
            return True
        return False

    def slot(self) -> "SlotSurvival":
        """An empty slot to grow under the additive check."""
        return SlotSurvival(self)

    def set_survives(self, links: Sequence[Link]) -> bool:
        """Does the whole slot survive additively?

        Stronger than pairwise compatibility: interference is additive,
        so a set can fail even when each pair passes.  Data receptions
        face every other sender; ACK receptions face every other
        receiver (slot-aligned semantics as in :meth:`conflicts`).
        Stopping at the first prefix that fails is exact: the full
        slot's fold at that reception only adds non-negative terms.
        """
        slot = self.slot()
        return all(slot.try_add(link) for link in links)

    # ------------------------------------------------------------------
    # Triggering (Sec. 3.3: "link l could trigger n iff the signature
    # sent by l.sender or l.receiver can be received by node n")
    # ------------------------------------------------------------------
    def node_can_trigger(self, src: int, target: int) -> bool:
        """Can ``src``'s signature be detected at ``target`` in the clear?

        Signature detection enjoys the Gold-code correlation gain, so
        the requirement is only that the signature arrives above an
        SNR the correlator can work with; interference robustness is
        handled at runtime by the detection model.
        """
        key = (src, target)
        cached = self._trigger_cache.get(key)
        if cached is not None:
            return cached
        snr_db = self.rss_dbm(src, target) - self.profile.noise_dbm
        basic_threshold = self.profile.sinr_threshold_db(self.profile.basic_rate_mbps)
        ok = snr_db >= basic_threshold - SIGNATURE_CORRELATION_GAIN_DB + 6.0
        self._trigger_cache[key] = ok
        return ok

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Purge cached trigger verdicts touching ``nodes``.

        The trigger cache is the map's only memoized state; everything
        else reads the RSS source live.  After an in-place RSS change
        confined to some nodes' rows/columns (mobility, re-measurement)
        the online controller calls this with exactly those nodes, so
        stale verdicts disappear while the rest of the cache — the
        expensive steady-state majority — survives.  Returns the
        number of entries purged.
        """
        dirty = frozenset(nodes)
        if not dirty:
            return 0
        stale = [key for key in self._trigger_cache
                 if key[0] in dirty or key[1] in dirty]
        for key in stale:
            del self._trigger_cache[key]
        return len(stale)

    def link_can_trigger(self, link: Link, target: int) -> bool:
        return (self.node_can_trigger(link.src, target)
                or self.node_can_trigger(link.dst, target))

    def trigger_rss_dbm(self, link: Link, target: int) -> float:
        """Best signature RSS at ``target`` from either endpoint of ``link``."""
        return max(self.rss_dbm(link.src, target), self.rss_dbm(link.dst, target))

    # ------------------------------------------------------------------
    # Hidden / exposed census (Sec. 4.2.3)
    # ------------------------------------------------------------------
    def classify_pair(self, l1: Link, l2: Link) -> str:
        """``'hidden'``, ``'exposed'``, ``'conflict'`` or ``'independent'``.

        * hidden: the links conflict, yet the senders cannot carrier-
          sense each other — DCF will collide them.
        * exposed: the links do not conflict, yet the senders *do*
          carrier-sense each other — DCF will serialize them.
        """
        if l1.shares_node(l2):
            return "conflict"
        conflicting = self.conflicts(l1, l2)
        senders_cs = self.in_cs_range(l1.src, l2.src)
        if conflicting and not senders_cs:
            return "hidden"
        if not conflicting and senders_cs:
            return "exposed"
        return "conflict" if conflicting else "independent"

    def census(self, links: Sequence[Link]) -> Dict[str, int]:
        """Counts of each pair class over all unordered link pairs."""
        counts = {"hidden": 0, "exposed": 0, "conflict": 0,
                  "independent": 0, "total": 0}
        for l1, l2 in itertools.combinations(links, 2):
            counts[self.classify_pair(l1, l2)] += 1
            counts["total"] += 1
        return counts


class SlotSurvival:
    """One slot grown link by link under the additive SINR check.

    Every accepted link keeps two running interference sums: at its
    data receiver (the other links' senders) and at its ACK receiver
    (the other links' receivers, heard by this link's sender at the
    basic rate).  Each sum starts from the noise floor and adds the
    other links in acceptance order, which is term for term the fold
    :meth:`InterferenceMap._sinr_survives` runs over the slot's list,
    so every verdict equals ``set_survives([*links, cand])``.  Testing
    a candidate against ``k`` accepted links reads ``4k`` RSS terms
    instead of re-folding ``2(k+1)^2``.  RSS is read live; nothing is
    kept beyond the slot's own sums.
    """

    __slots__ = ("links", "_rss", "_nodes", "_noise_mw", "_data_min_db",
                 "_ack_min_db", "_recv")

    def __init__(self, imap: InterferenceMap):
        profile = imap.profile
        #: Accepted links, in acceptance order.
        self.links: List[Link] = []
        self._rss = imap.rss_dbm
        self._nodes: Set[int] = set()
        self._noise_mw = profile.noise_mw()
        self._data_min_db = (profile.sinr_threshold_db(profile.data_rate_mbps)
                             + imap.margin_db)
        self._ack_min_db = (profile.sinr_threshold_db(profile.basic_rate_mbps)
                            + imap.margin_db)
        #: Per accepted link: (src, dst, data signal dBm, data
        #: interference mW, ACK signal dBm, ACK interference mW).
        self._recv: List[Tuple[int, int, float, float, float, float]] = []

    def try_add(self, link: Link) -> bool:
        """Accept ``link`` iff the slot plus ``link`` still survives.

        A rejected link leaves the slot untouched.
        """
        src, dst = link
        if src in self._nodes or dst in self._nodes:
            return False
        rss = self._rss
        data_min, ack_min = self._data_min_db, self._ack_min_db
        data_mw = ack_mw = self._noise_mw
        recv = []
        for o_src, o_dst, o_data_db, o_data_mw, o_ack_db, o_ack_mw in self._recv:
            data_mw += dbm_to_mw(rss(o_src, dst))
            ack_mw += dbm_to_mw(rss(o_dst, src))
            o_data_mw += dbm_to_mw(rss(src, o_dst))
            if not o_data_db - mw_to_dbm(o_data_mw) >= data_min:
                return False
            o_ack_mw += dbm_to_mw(rss(dst, o_src))
            if not o_ack_db - mw_to_dbm(o_ack_mw) >= ack_min:
                return False
            recv.append((o_src, o_dst, o_data_db, o_data_mw, o_ack_db,
                         o_ack_mw))
        data_db = mw_to_dbm(dbm_to_mw(rss(src, dst)))
        if not data_db - mw_to_dbm(data_mw) >= data_min:
            return False
        ack_db = mw_to_dbm(dbm_to_mw(rss(dst, src)))
        if not ack_db - mw_to_dbm(ack_mw) >= ack_min:
            return False
        recv.append((src, dst, data_db, data_mw, ack_db, ack_mw))
        self._recv = recv
        self.links.append(link)
        self._nodes.add(src)
        self._nodes.add(dst)
        return True
