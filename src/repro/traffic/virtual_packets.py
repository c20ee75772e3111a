"""Virtual packets: splitting and aggregation (Sec. 3.5).

DOMINO's fixed slot time assumes every transmission consumes equal
airtime.  Real traffic does not cooperate, so the paper prescribes
"techniques, such as packet splitting and aggregation, [to] produce
virtual packets that take the same amount of time":

* an application packet larger than the slot payload is **split**
  into fragments, one per virtual packet, reassembled at the receiver;
* several small packets to the same destination are **aggregated**
  into one virtual packet and unpacked at the receiver.

Nodes then report queue backlog in virtual packets (see
:meth:`repro.traffic.queueing.MacQueue.virtual_packets`), and the
central scheduler's one-packet-per-slot accounting stays exact.

This module implements both directions losslessly:
:class:`VirtualPacketizer` on the sender side and
:class:`Reassembler` on the receiver side, with frame metadata
carrying the fragment/aggregate structure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List

from ..sim.packet import Frame, FrameKind, data_frame

_bundle_ids = itertools.count(1)


@dataclass
class PacketizerStats:
    split_packets: int = 0
    fragments_made: int = 0
    aggregates_made: int = 0
    packets_aggregated: int = 0
    passthrough: int = 0


class VirtualPacketizer:
    """Sender-side conversion of application packets to virtual packets.

    Parameters
    ----------
    slot_payload_bytes:
        Payload capacity of one virtual packet (the fixed slot's
        payload; 512 B in the paper's evaluation).
    """

    def __init__(self, slot_payload_bytes: int = 512):
        if slot_payload_bytes <= 0:
            raise ValueError("slot payload must be positive")
        self.slot_payload_bytes = slot_payload_bytes
        self.stats = PacketizerStats()

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def split(self, frame: Frame) -> List[Frame]:
        """Split an oversized DATA frame into slot-sized fragments.

        Fragments share a ``bundle`` id and carry ``frag``/``frags``
        indices; each fragment is a full virtual packet (the airtime
        model charges the whole slot anyway, which is exactly the
        accounting the scheduler uses).  A frame that already fits is
        returned unchanged, alone in the list.
        """
        if frame.kind is not FrameKind.DATA:
            raise ValueError("only DATA frames can be split")
        size = frame.payload_bytes
        if size <= self.slot_payload_bytes:
            self.stats.passthrough += 1
            return [frame]
        n_frags = math.ceil(size / self.slot_payload_bytes)
        bundle = next(_bundle_ids)
        fragments = []
        remaining = size
        for index in range(n_frags):
            chunk = min(self.slot_payload_bytes, remaining)
            remaining -= chunk
            fragment = data_frame(frame.src, frame.dst, chunk,
                                  seq=frame.seq * 1000 + index,
                                  enqueued_at=frame.enqueued_at,
                                  flow=frame.flow)
            fragment.meta.update({
                "bundle": bundle,
                "frag": index,
                "frags": n_frags,
                "orig_seq": frame.seq,
                "orig_bytes": size,
            })
            fragments.append(fragment)
        self.stats.split_packets += 1
        self.stats.fragments_made += n_frags
        return fragments

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate(self, frames: List[Frame]) -> List[Frame]:
        """Pack small same-destination DATA frames into virtual packets.

        Consecutive frames to the same destination are greedily packed
        until the slot payload is full.  Returns the new frame list
        (aggregates plus any frames left alone).  Ordering within a
        destination is preserved.
        """
        out: List[Frame] = []
        pending: List[Frame] = []

        def flush() -> None:
            if not pending:
                return
            if len(pending) == 1:
                self.stats.passthrough += 1
                out.append(pending[0])
                pending.clear()
                return
            total = sum(f.payload_bytes for f in pending)
            first = pending[0]
            aggregate = data_frame(first.src, first.dst, total,
                                   seq=first.seq,
                                   enqueued_at=first.enqueued_at,
                                   flow=first.flow)
            aggregate.meta["aggregated"] = [
                {"seq": f.seq, "bytes": f.payload_bytes,
                 "enqueued_at": f.enqueued_at}
                for f in pending
            ]
            self.stats.aggregates_made += 1
            self.stats.packets_aggregated += len(pending)
            out.append(aggregate)
            pending.clear()

        for frame in frames:
            if frame.kind is not FrameKind.DATA:
                flush()
                out.append(frame)
                continue
            if frame.payload_bytes > self.slot_payload_bytes:
                flush()
                out.extend(self.split(frame))
                continue
            if pending and (
                frame.dst != pending[0].dst
                or sum(f.payload_bytes for f in pending)
                + frame.payload_bytes > self.slot_payload_bytes
            ):
                flush()
            pending.append(frame)
        flush()
        return out


@dataclass
class ReassembledPacket:
    src: int
    dst: int
    seq: int
    payload_bytes: int
    enqueued_at: float
    completed_at: float


class Reassembler:
    """Receiver-side inverse: fragments -> packets, aggregates -> packets.

    Feed every delivered DATA frame to :meth:`accept`; it returns the
    list of completed application packets (possibly empty while a
    split bundle is still partial, possibly several for an aggregate).
    """

    def __init__(self) -> None:
        self._partial: Dict[int, Dict[int, Frame]] = {}

    def accept(self, frame: Frame, now: float) -> List[ReassembledPacket]:
        if frame.kind is not FrameKind.DATA:
            return []
        if "aggregated" in frame.meta:
            return [
                ReassembledPacket(
                    src=frame.src, dst=frame.dst, seq=entry["seq"],
                    payload_bytes=entry["bytes"],
                    enqueued_at=entry["enqueued_at"], completed_at=now,
                )
                for entry in frame.meta["aggregated"]
            ]
        if "bundle" in frame.meta:
            bundle = frame.meta["bundle"]
            parts = self._partial.setdefault(bundle, {})
            parts[frame.meta["frag"]] = frame
            if len(parts) < frame.meta["frags"]:
                return []
            del self._partial[bundle]
            first = parts[0]
            return [ReassembledPacket(
                src=frame.src, dst=frame.dst,
                seq=first.meta["orig_seq"],
                payload_bytes=first.meta["orig_bytes"],
                enqueued_at=first.enqueued_at, completed_at=now,
            )]
        return [ReassembledPacket(
            src=frame.src, dst=frame.dst, seq=frame.seq,
            payload_bytes=frame.payload_bytes,
            enqueued_at=frame.enqueued_at, completed_at=now,
        )]
