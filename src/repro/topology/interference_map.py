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
* can a node's signature trigger another node (``node_can_trigger``),
  and which nodes can, strongest first (``trigger_rank``)?
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

#: Relative half-width of the band around a reception's interference
#: cap inside which :class:`SlotSurvival` falls back to the dB test.
GUARD_BAND = 1e-9


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

    Verdicts are read from the table on every query, except the
    trigger rankings (:meth:`trigger_rank`), which are kept per target
    until the table's writer drops them with
    :meth:`drop_trigger_ranks`.

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
        #: What :class:`SlotSurvival` reads: the noise floor, the data
        #: and ACK thresholds in dB, and per threshold the factors that
        #: turn a signal's mW into the lower and upper edge of its
        #: interference band (``1 -+ GUARD_BAND`` around
        #: ``S / dbm_to_mw(min_db)``).
        self.fold_constants = (
            self.noise_mw, self.data_min_db, self.ack_min_db,
            (1.0 - GUARD_BAND) / dbm_to_mw(self.data_min_db),
            (1.0 + GUARD_BAND) / dbm_to_mw(self.data_min_db),
            (1.0 - GUARD_BAND) / dbm_to_mw(self.ack_min_db),
            (1.0 + GUARD_BAND) / dbm_to_mw(self.ack_min_db))
        #: target -> :meth:`trigger_rank`, built on first use.
        self._trigger_ranks: Dict[int, List[int]] = {}

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

    def trigger_rank(self, target: int) -> List[int]:
        """Every other node whose signature ``target`` detects, by
        ``(-dBm, node)``: strongest first, the lowest id on a tie.

        The converter walks this list, skipping nodes that are not in
        the slot, so the first node it keeps is the strongest eligible
        trigger.  Each ranking is built from the dBm rows on first use
        and kept until :meth:`drop_trigger_ranks`, which the table's
        writer (:meth:`repro.core.control_plane.ControlPlane.write_rss`)
        calls on every write.
        """
        rank = self._trigger_ranks.get(target)
        if rank is None:
            # node_can_trigger(node, target), written out per row.
            noise_dbm = self.profile.noise_dbm
            min_snr_db = self.trigger_min_snr_db
            keyed = [(-row[target], node)
                     for node, row in enumerate(self.table.dbm)
                     if node != target and row[target] - noise_dbm >= min_snr_db]
            keyed.sort()
            rank = [node for _, node in keyed]
            self._trigger_ranks[target] = rank
        return rank

    def drop_trigger_ranks(self) -> None:
        """Forget every :meth:`trigger_rank`: the dBm rows changed."""
        self._trigger_ranks.clear()

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
    :class:`RssTable` instead of re-folding ``2(k+1)^2``.  This is the
    map's only SINR fold: the pairwise ``conflicts`` is a two-link
    slot.

    The verdict is defined in dB, ``mw_to_dbm(S) - mw_to_dbm(I) >=
    min_db``, but tested in mW.  Each reception carries the band
    ``S / dbm_to_mw(min_db) * (1 -+ 1e-9)`` (the map's
    ``fold_constants``): an interference sum at or below the band
    passes and one above it fails with no logarithm taken; only a sum
    inside the band, a zero signal or a NaN takes the dB test itself.
    The band is about 4e-9 dB wide on each side, far wider than the
    float error of either test (about 1e-13 dB), so outside it both
    agree and every verdict is the dB one bit for bit.  :meth:`fits`
    builds nothing and :meth:`try_add` updates the sums in place.
    """

    __slots__ = ("links", "_mw", "_nodes", "_constants", "_recv")

    def __init__(self, imap: InterferenceMap):
        #: Accepted links, in acceptance order.
        self.links: List[Link] = []
        self._mw = imap.table.mw
        self._nodes: Set[int] = set()
        self._constants = imap.fold_constants
        #: Per accepted link: [src, dst, data interference mW, data
        #: pass-below mW, data fail-above mW, ACK interference mW, ACK
        #: pass-below, ACK fail-above, data signal mW, ACK signal mW].
        self._recv: List[list] = []

    def try_add(self, link: Link) -> bool:
        """Accept ``link`` iff the slot plus ``link`` still survives.

        A rejected link leaves the slot untouched.
        """
        sums = self._fold(link)
        if sums is None:
            return False
        src, dst = link
        mw = self._mw
        from_src, from_dst = mw[src], mw[dst]
        for entry in self._recv:
            entry[2] += from_src[entry[1]]
            entry[5] += from_dst[entry[0]]
        (_, _, _, data_lo, data_hi, ack_lo, ack_hi) = self._constants
        data_mw, ack_mw = from_src[dst], from_dst[src]
        self._recv.append([src, dst, sums[0], data_mw * data_lo,
                           data_mw * data_hi, sums[1], ack_mw * ack_lo,
                           ack_mw * ack_hi, data_mw, ack_mw])
        self.links.append(link)
        self._nodes.update(link)
        return True

    def fits(self, link: Link) -> bool:
        """Would :meth:`try_add` accept ``link``?  Leaves the slot as
        it is, so one slot can test many candidates."""
        return self._fold(link) is not None

    def _fold(self, link: Link) -> Optional[Tuple[float, float]]:
        """``link``'s own data and ACK interference sums in this slot;
        ``None`` when some reception would fail with ``link`` added."""
        src, dst = link
        if src in self._nodes or dst in self._nodes:
            return None
        mw = self._mw
        from_src, from_dst = mw[src], mw[dst]
        (noise, data_min, ack_min, data_lo, data_hi, ack_lo,
         ack_hi) = self._constants
        data_mw = ack_mw = noise
        for (o_src, o_dst, o_data, o_data_lo, o_data_hi, o_ack, o_ack_lo,
             o_ack_hi, o_data_s, o_ack_s) in self._recv:
            data_mw += mw[o_src][dst]
            ack_mw += mw[o_dst][src]
            o_data += from_src[o_dst]
            if not o_data <= o_data_lo and _fails(o_data, o_data_hi,
                                                  o_data_s, data_min):
                return None
            o_ack += from_dst[o_src]
            if not o_ack <= o_ack_lo and _fails(o_ack, o_ack_hi, o_ack_s,
                                                ack_min):
                return None
        signal = from_src[dst]
        if not data_mw <= signal * data_lo and _fails(
                data_mw, signal * data_hi, signal, data_min):
            return None
        signal = from_dst[src]
        if not ack_mw <= signal * ack_lo and _fails(
                ack_mw, signal * ack_hi, signal, ack_min):
            return None
        return data_mw, ack_mw


def _fails(interference_mw: float, fail_above_mw: float, signal_mw: float,
           min_db: float) -> bool:
    """The verdict on a sum that is not below its reception's band: it
    fails above the band; inside it, and for a 0 mW signal (whose band
    is empty), the dB test decides."""
    if interference_mw > fail_above_mw and signal_mw != 0.0:
        return True
    return not mw_to_dbm(signal_mw) - mw_to_dbm(interference_mw) >= min_db
