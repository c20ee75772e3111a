"""Throughput, delay and fairness accounting.

Definitions follow the paper:

* **throughput** — payload bits successfully delivered to the
  destination per unit time (unique packets only; MAC retransmissions
  do not double count);
* **delay** — "the duration from the time a packet is queued to the
  time it is successfully delivered" (Sec. 4.2.4), i.e. queueing +
  access + retransmission delay;
* **fairness** — Jain's index over per-flow throughputs (Sec. 4.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.packet import Frame
from ..topology.links import Link

if TYPE_CHECKING:  # pragma: no cover - metrics layer stays below mac
    from ..mac.base import Mac

Flow = Tuple[int, int]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 is perfectly fair; 1/n is maximally unfair.  An empty or
    all-zero input returns 0.0 by convention.
    """
    values = list(values)
    if not values:
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 0.0
    return (total * total) / (len(values) * squares)


@dataclass
class FlowRecord:
    packets: int = 0
    payload_bytes: int = 0
    total_delay_us: float = 0.0
    delays_us: List[float] = field(default_factory=list)

    @property
    def mean_delay_us(self) -> float:
        return self.total_delay_us / self.packets if self.packets else 0.0


class FlowRecorder:
    """Subscribes to MAC delivery handlers and aggregates per flow.

    Parameters
    ----------
    flows:
        The transport flows to account.  Deliveries for other flows
        (e.g. TCP ACK streams) are ignored for throughput/fairness but
        can be included by listing them.
    warmup_us:
        Deliveries before this time are discarded, so schedules and
        congestion windows settle before measurement starts.
    """

    def __init__(self, flows: Iterable[Flow], warmup_us: float = 0.0):
        self.records: Dict[Flow, FlowRecord] = {
            (f.src, f.dst) if isinstance(f, Link) else tuple(f): FlowRecord()
            for f in flows
        }
        self.warmup_us = warmup_us
        self.first_delivery_us: Optional[float] = None
        self.last_delivery_us: float = 0.0

    def attach(self, mac: "Mac") -> None:
        mac.add_delivery_handler(self.on_delivery)

    def attach_all(self, macs: Iterable["Mac"]) -> None:
        for mac in macs:
            self.attach(mac)

    def on_delivery(self, frame: Frame, now: float) -> None:
        if now < self.warmup_us or frame.flow is None:
            return
        record = self.records.get(tuple(frame.flow))
        if record is None:
            return
        record.packets += 1
        record.payload_bytes += frame.payload_bytes
        delay = now - frame.enqueued_at
        record.total_delay_us += delay
        record.delays_us.append(delay)
        if self.first_delivery_us is None:
            self.first_delivery_us = now
        self.last_delivery_us = max(self.last_delivery_us, now)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def measurement_window_us(self, horizon_us: float) -> float:
        return max(horizon_us - self.warmup_us, 1e-9)

    def flow_throughput_mbps(self, flow: Flow, horizon_us: float) -> float:
        record = self.records.get(tuple(flow))
        if record is None:
            return 0.0
        bits = record.payload_bytes * 8.0
        return bits / self.measurement_window_us(horizon_us)  # bits/us == Mbps

    def aggregate_throughput_mbps(self, horizon_us: float) -> float:
        return sum(self.flow_throughput_mbps(f, horizon_us) for f in self.records)

    def per_flow_throughputs(self, horizon_us: float) -> Dict[Flow, float]:
        return {f: self.flow_throughput_mbps(f, horizon_us) for f in self.records}

    def fairness(self, horizon_us: float) -> float:
        return jain_index(list(self.per_flow_throughputs(horizon_us).values()))

    def mean_delay_us(self) -> float:
        """Average delay per link: mean over flows of the flow's mean.

        Matches Fig. 12(b)/(e)'s "average delay per link"; flows that
        delivered nothing are excluded (their delay is undefined).
        """
        means = [r.mean_delay_us for r in self.records.values() if r.packets]
        return sum(means) / len(means) if means else 0.0
