"""Central interference map (Sec. 3, "Identifying hidden and exposed links").

The DOMINO server maintains the received signal strength between all
node pairs and derives from it which links may transmit concurrently.
This module keeps that RSS as Python rows (:class:`RssTable`, built
once from a trace matrix) and answers the questions the scheduler,
converter and analysis need:

* does a whole slot survive additive interference, grown one link at
  a time (``slot`` / ``SlotSurvival``, and ``set_survives`` on top)?
* can two links be active in the same slot (``conflicts``, which is
  exactly the two-link slot)?
* can a node's signature trigger another node (``node_can_trigger``)?
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
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..sim.phy import (SIGNATURE_CORRELATION_GAIN_DB, PhyProfile, dbm_to_mw,
                       mw_to_dbm)
from .links import Link


class RssTable:
    """Measured RSS between every ordered node pair, as Python rows.

    ``dbm[tx][rx]`` is the RSS in dBm (tx row, rx column, the medium's
    convention) and ``mw[tx][rx]`` the same power in mW (``-inf`` dBm
    is 0 mW), converted once per entry: a read is two list indexes and
    yields the float a per-read conversion would.  A table is a
    snapshot: it never reads the matrix it was built from again.  The
    control plane's table has one writer,
    :meth:`repro.core.control_plane.ControlPlane.write_rss`.
    """

    __slots__ = ("dbm", "mw")

    def __init__(self, dbm: List[List[float]]):
        self.dbm = dbm
        self.mw = [[dbm_to_mw(value) for value in row] for row in dbm]

    @classmethod
    def from_matrix(cls, matrix: "np.ndarray") -> "RssTable":
        """A table over the values of ``matrix`` (an array or nested
        sequences, tx row by rx column); the matrix is not kept."""
        return cls(np.asarray(matrix, dtype=float).tolist())

    def copy(self) -> "RssTable":
        """A table over the same dBm values with the mW rows derived
        afresh."""
        return RssTable([list(row) for row in self.dbm])


class InterferenceMap:
    """The central server's view of an :class:`RssTable`.

    Parameters
    ----------
    table:
        The RSS rows every query reads.
    profile:
        PHY profile; supplies noise floor, CS threshold and the data
        SINR threshold used in the conflict test.
    margin_db:
        Safety margin added to the decode threshold when declaring two
        links compatible, so borderline pairs are scheduled apart.
    """

    def __init__(self, table: RssTable, profile: PhyProfile,
                 margin_db: float = 3.0):
        self.table = table
        self.profile = profile
        self.margin_db = margin_db
        #: The SINR fold's constants, shared by every slot of this map.
        self.noise_mw = profile.noise_mw()
        self.data_min_db = (profile.sinr_threshold_db(profile.data_rate_mbps)
                            + margin_db)
        self.ack_min_db = (profile.sinr_threshold_db(profile.basic_rate_mbps)
                           + margin_db)
        #: Signature SNR a trigger needs: the basic-rate threshold less
        #: the Gold-code correlation gain, plus 6 dB of headroom.
        self.trigger_min_snr_db = (
            profile.sinr_threshold_db(profile.basic_rate_mbps)
            - SIGNATURE_CORRELATION_GAIN_DB + 6.0)

    # ------------------------------------------------------------------
    # Carrier sense and conflicts
    # ------------------------------------------------------------------
    def in_cs_range(self, a: int, b: int) -> bool:
        """Do ``a`` and ``b`` carrier-sense each other's transmissions?"""
        dbm = self.table.dbm
        threshold = self.profile.cs_threshold_dbm
        return dbm[a][b] >= threshold or dbm[b][a] >= threshold

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
        slot = SlotSurvival(self)
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
        handled at runtime by the detection model.  The verdict is
        read from the dBm rows, so it follows every write.
        """
        return (self.table.dbm[src][target] - self.profile.noise_dbm
                >= self.trigger_min_snr_db)

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
    ``k`` accepted links reads ``4k`` mW entries of the map's
    :class:`RssTable` instead of re-folding ``2(k+1)^2``.  Nothing is
    kept beyond the slot's own sums.  This is the map's only SINR fold:
    the pairwise ``conflicts`` is a two-link slot.
    """

    __slots__ = ("links", "_mw", "_nodes", "_noise_mw",
                 "_data_min_db", "_ack_min_db", "_recv")

    def __init__(self, imap: InterferenceMap):
        #: Accepted links, in acceptance order.
        self.links: List[Link] = []
        self._mw = imap.table.mw
        self._nodes: Set[int] = set()
        self._noise_mw = imap.noise_mw
        self._data_min_db = imap.data_min_db
        self._ack_min_db = imap.ack_min_db
        #: Per accepted link: (src, dst, data signal dBm, data
        #: interference mW, ACK signal dBm, ACK interference mW).
        self._recv: List[Tuple[int, int, float, float, float, float]] = []

    def try_add(self, link: Link) -> bool:
        """Accept ``link`` iff the slot plus ``link`` still survives.

        A rejected link leaves the slot untouched.
        """
        recv = self._fold(link)
        if recv is None:
            return False
        self._recv = recv
        self.links.append(link)
        self._nodes.update(link)
        return True

    def fits(self, link: Link) -> bool:
        """Would :meth:`try_add` accept ``link``?  Leaves the slot as
        it is, so one slot can test many candidates."""
        return self._fold(link) is not None

    def _fold(self, link: Link
              ) -> Optional[List[Tuple[int, int, float, float, float, float]]]:
        """The accepted links' sums with ``link`` added, plus its own
        entry; ``None`` when some reception would fail."""
        src, dst = link
        if src in self._nodes or dst in self._nodes:
            return None
        mw = self._mw
        from_src, from_dst = mw[src], mw[dst]
        data_min, ack_min = self._data_min_db, self._ack_min_db
        data_mw = ack_mw = self._noise_mw
        recv = []
        for o_src, o_dst, o_data_db, o_data_mw, o_ack_db, o_ack_mw in self._recv:
            data_mw += mw[o_src][dst]
            ack_mw += mw[o_dst][src]
            o_data_mw += from_src[o_dst]
            if not o_data_db - mw_to_dbm(o_data_mw) >= data_min:
                return None
            o_ack_mw += from_dst[o_src]
            if not o_ack_db - mw_to_dbm(o_ack_mw) >= ack_min:
                return None
            recv.append((o_src, o_dst, o_data_db, o_data_mw, o_ack_db,
                         o_ack_mw))
        data_db = mw_to_dbm(from_src[dst])
        if not data_db - mw_to_dbm(data_mw) >= data_min:
            return None
        ack_db = mw_to_dbm(from_dst[src])
        if not ack_db - mw_to_dbm(ack_mw) >= ack_min:
            return None
        recv.append((src, dst, data_db, data_mw, ack_db, ack_mw))
        return recv
