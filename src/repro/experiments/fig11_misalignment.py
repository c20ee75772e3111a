"""Figure 11: transmission misalignment convergence at startup.

Because schedule programs reach the APs over the jittery wired
backbone, the transmissions of slot 0 are misaligned by tens of
microseconds.  Relative scheduling heals this: every subsequent slot
re-anchors on the trigger bursts, and the paper measures the maximum
misalignment falling to 1-2 us within 4 slots for wired-latency
"variance" settings of 20-80 us (we read those values as variances,
i.e. std = sqrt(value), which matches the 10-20 us initial
misalignments the figure shows for a 10-AP network).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from .. import telemetry
from ..core import build_domino_network
from ..sim.engine import Simulator
from ..topology.builder import build_t_topology
from ..topology.trace import two_building_trace
from ..traffic.udp import SaturatedSource
from .common import format_table, slot_timeline

VARIANCES_US2 = (20.0, 40.0, 60.0, 80.0)
N_SLOTS = 8


@dataclass
class Fig11Result:
    #: variance -> misalignment (us) for slot indices 0..N_SLOTS-1
    series: Dict[float, List[float]] = field(default_factory=dict)

    def converged_within(self, variance: float, slots: int,
                         tolerance_us: float = 2.5) -> bool:
        tail = self.series[variance][slots:]
        return bool(tail) and all(v <= tolerance_us for v in tail)


def run_variance(variance: float, trace: telemetry.TraceRecorder, *,
                 seed: int, horizon_us: float) -> List[float]:
    """Misalignment per slot index for one wired-latency variance.

    ``trace`` records the run; the series is read from its
    ``slot_exec`` records, so the ring must hold the whole run.
    """
    topology = build_t_topology(two_building_trace(), 10, 2, seed=3)
    imap = topology.interference_map()
    telemetry.activate(trace)
    try:
        sim = Simulator(seed=seed)
        net = build_domino_network(sim, topology,
                                   wire_std_us=math.sqrt(variance))
        for flow in topology.flows:
            SaturatedSource(sim, net.macs[flow.src], flow.dst).start()
        net.controller.start()
        sim.run(until=horizon_us)
    finally:
        telemetry.deactivate()
    # Spread among mutually carrier-sensing senders: chains in
    # disjoint collision domains can hold a constant offset without
    # ever interacting, which is not misalignment in any physically
    # meaningful (or harmful) sense.
    return slot_timeline(trace).misalignment_series(
        N_SLOTS, audible=imap.in_cs_range)


def run(seed: int = 2, horizon_us: float = 40_000.0) -> Fig11Result:
    """Measure max misalignment per slot index over the startup window."""
    result = Fig11Result()
    for variance in VARIANCES_US2:
        result.series[variance] = run_variance(
            variance, telemetry.TraceRecorder(), seed=seed,
            horizon_us=horizon_us)
    return result


def report(result: Fig11Result) -> str:
    headers = ["wire variance", *(f"slot {i}" for i in range(N_SLOTS))]
    rows = [
        [f"{v:.0f} us^2", *(f"{m:.1f}" for m in result.series[v])]
        for v in VARIANCES_US2
    ]
    lines = [format_table(headers, rows)]
    for variance in VARIANCES_US2:
        within4 = result.converged_within(variance, slots=4)
        within6 = result.converged_within(variance, slots=6)
        lines.append(
            f"variance {variance:.0f}: aligned within 4 slots: {within4}, "
            f"within 6: {within6} (paper: within 4, to 1-2 us)"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
