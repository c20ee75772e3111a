"""Central interference map (Sec. 3, "Identifying hidden and exposed links").

The DOMINO server maintains the received signal strength between all
node pairs and derives from it which links may transmit concurrently.
This module wraps an RSS source (trace matrix or propagation model)
and answers the questions the scheduler, converter and analysis need:

* does a whole slot survive additive interference, grown one link at
  a time (``slot`` / ``SlotSurvival``, and ``set_survives`` on top)?
* can two links be active in the same slot (``conflicts``, which is
  exactly the two-link slot)?
* can a node's signature trigger another node (``can_trigger``)?
* which link pairs are *hidden* or *exposed* — the counts reported in
  Sec. 4.2.3 ("10 hidden link pairs and 62 exposed link pairs out of
  720 possible link pairs").

Conflict definition: two links conflict when they share a node, or
when the sender of one link lowers the other's data SINR (or the
ACK-sending receiver of one lowers the other's ACK SINR) below the
decode threshold plus a safety margin.  This mirrors the
conflict-graph construction of the measurement-based interference
literature the paper cites.  The pairwise conflict is the two-link
slot, so the conflict graph and the RAND slots read one SINR fold,
``SlotSurvival.try_add``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

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
    # Carrier sense and conflicts
    # ------------------------------------------------------------------
    def in_cs_range(self, a: int, b: int) -> bool:
        """Do ``a`` and ``b`` carrier-sense each other's transmissions?"""
        return (self.rss_dbm(a, b) >= self.profile.cs_threshold_dbm
                or self.rss_dbm(b, a) >= self.profile.cs_threshold_dbm)

    def conflicts(self, l1: Link, l2: Link) -> bool:
        """May ``l1`` and ``l2`` NOT share a slot?

        The pairwise conflict is the two-link slot.  In slot-aligned
        operation the two links' *data* transmissions overlap and,
        later in the slot, their *ACKs* overlap — data never overlaps
        a foreign ACK.  So each link's data reception must survive the
        other's data sender, and each link's ACK reception (receiver
        back to sender, at the basic rate) must survive the other's
        ACK sender; links sharing a node never share a slot.  The
        slot also tests ``l1`` alone first, which flips no verdict:
        ``l2`` only adds a non-negative interference term.
        """
        slot = self.slot()
        return not (slot.try_add(l1) and slot.try_add(l2))

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

    def invalidate_nodes(self, nodes: Iterable[int]) -> None:
        """Purge cached trigger verdicts touching ``nodes``.

        The trigger cache is the map's only memoized state; everything
        else reads the RSS source live.  After an in-place RSS change
        confined to some nodes' rows/columns (mobility, re-measurement)
        the control plane calls this with exactly those nodes, so
        stale verdicts disappear while the rest of the cache — the
        expensive steady-state majority — survives.
        """
        dirty = frozenset(nodes)
        if not dirty:
            return
        stale = [key for key in self._trigger_cache
                 if key[0] in dirty or key[1] in dirty]
        for key in stale:
            del self._trigger_cache[key]

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
    other links in acceptance order, which is term for term the
    whole-slot fold over the slot's list, so every verdict equals
    ``set_survives([*links, cand])``.  Testing a candidate against
    ``k`` accepted links reads ``4k`` RSS terms instead of re-folding
    ``2(k+1)^2``.  RSS is read live; nothing is kept beyond the slot's
    own sums.  This is the map's only SINR fold: the pairwise
    ``conflicts`` is a two-link slot.
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
