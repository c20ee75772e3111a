"""Shared machinery for the paper-reproduction experiment runners.

Each experiment module (one per table/figure) builds on
:func:`run_scheme`: pick a scheme ("dcf" / "centaur" / "domino" /
"omniscient"), a topology, a traffic pattern, and get back the flow
recorder, per-node MACs and any scheme-specific controller for
inspection.

Durations: the paper simulates 50 s per point; pure-Python event
simulation makes that expensive, so runners default to ~1 simulated
second with a warm-up cut, which is enough for saturated-regime
throughput to stabilize (seeds are fixed; benches assert *shape*, not
third decimal places).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .. import telemetry
from ..core import (ControllerConfig, DominoNetwork, TriggerDetectionModel,
                    build_domino_network)
from ..mac.centaur import build_centaur_network
from ..mac.dcf import DcfMac
from ..mac.omniscient import build_omniscient_network
from ..metrics.stats import FlowRecorder
from ..metrics.timeline import TimelineRecorder
from ..sim.engine import Simulator
from ..topology.builder import Topology
from ..topology.links import Link
from ..traffic.tcp import TcpFlow
from ..traffic.udp import CbrSource, SaturatedSource

SCHEMES = ("dcf", "centaur", "domino", "omniscient")

DEFAULT_HORIZON_US = 1_000_000.0
DEFAULT_WARMUP_US = 100_000.0


@dataclass
class RunResult:
    """Everything an experiment needs from one simulation run."""

    scheme: str
    topology: Topology
    horizon_us: float
    recorder: FlowRecorder
    macs: Dict[int, object]
    controller: object = None
    domino: Optional[DominoNetwork] = None
    tcp_flows: List[TcpFlow] = field(default_factory=list)
    #: Telemetry recorder for the run (None unless ``trace`` was given).
    trace: Optional[telemetry.TraceRecorder] = None

    @property
    def metrics(self) -> Optional[telemetry.MetricsRegistry]:
        return self.trace.metrics if self.trace is not None else None

    def doctor(self) -> "telemetry.analysis.HealthReport":
        """Diagnose the run's trace into a structured health report.

        Requires the run to have been traced
        (``run_scheme(..., trace=True)``).
        """
        if self.trace is None:
            raise ValueError(
                "doctor() needs a traced run: pass trace=True to run_scheme")
        return telemetry.analysis.diagnose(
            self.trace.records(), metrics=self.trace.metrics,
            horizon_us=self.horizon_us)

    @property
    def aggregate_mbps(self) -> float:
        return self.recorder.aggregate_throughput_mbps(self.horizon_us)

    @property
    def fairness(self) -> float:
        return self.recorder.fairness(self.horizon_us)

    @property
    def mean_delay_us(self) -> float:
        return self.recorder.mean_delay_us()

    def flow_mbps(self, flow: Link) -> float:
        return self.recorder.flow_throughput_mbps(flow, self.horizon_us)


def _rate_for(topology: Topology, flow: Link, downlink_mbps: float,
              uplink_mbps: float) -> float:
    if topology.network.nodes[flow.src].is_ap:
        return downlink_mbps
    return uplink_mbps


def active_flows(topology: Topology, downlink_mbps: float,
                 uplink_mbps: float) -> List[Link]:
    """Flows with non-zero offered load (fairness is computed over
    these; an idle flow's zero throughput is not unfairness)."""
    return [f for f in topology.flows
            if _rate_for(topology, f, downlink_mbps, uplink_mbps) > 0]


def run_scheme(scheme: str, topology: Topology, *,
               horizon_us: float = DEFAULT_HORIZON_US,
               warmup_us: float = DEFAULT_WARMUP_US,
               downlink_mbps: float = 10.0,
               uplink_mbps: float = 0.0,
               saturated: bool = False,
               tcp: bool = False,
               payload_bytes: int = 512,
               seed: int = 1,
               domino_config: Optional[ControllerConfig] = None,
               trigger_model: Optional[TriggerDetectionModel] = None,
               queue_capacity: int = 100,
               trace: Union[bool, telemetry.TraceRecorder, None] = None
               ) -> RunResult:
    """Run one scheme on one topology with the Sec. 4.2.1 traffic setup.

    ``saturated=True`` keeps every flow's queue full (Fig. 2 /
    Table 2/3 style); otherwise CBR at ``downlink_mbps`` /
    ``uplink_mbps`` per flow, or TCP with those application limits
    when ``tcp=True``.

    ``trace`` opts the run into telemetry: pass ``True`` for a fresh
    default :class:`~repro.telemetry.TraceRecorder` or an explicit
    recorder (e.g. with a larger ring buffer).  The recorder is active
    for the whole build + run and is returned on ``RunResult.trace``;
    export with ``result.trace.export_jsonl(path)``.  The default
    (``None``/``False``) keeps the zero-cost disabled path.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    recorder: Optional[telemetry.TraceRecorder] = None
    if isinstance(trace, telemetry.TraceRecorder):
        recorder = trace          # explicit isinstance: an *empty*
    elif trace:                   # recorder is falsy (len() == 0)
        recorder = telemetry.TraceRecorder()
    if recorder is not None:
        telemetry.activate(recorder)
    try:
        return _run_scheme(
            scheme, topology, horizon_us=horizon_us, warmup_us=warmup_us,
            downlink_mbps=downlink_mbps, uplink_mbps=uplink_mbps,
            saturated=saturated, tcp=tcp, payload_bytes=payload_bytes,
            seed=seed, domino_config=domino_config,
            trigger_model=trigger_model, queue_capacity=queue_capacity,
            recorder=recorder)
    finally:
        if recorder is not None:
            telemetry.deactivate()


def _run_scheme(scheme: str, topology: Topology, *,
                horizon_us: float, warmup_us: float,
                downlink_mbps: float, uplink_mbps: float,
                saturated: bool, tcp: bool, payload_bytes: int,
                seed: int, domino_config: Optional[ControllerConfig],
                trigger_model: Optional[TriggerDetectionModel],
                queue_capacity: int,
                recorder: Optional[telemetry.TraceRecorder]) -> RunResult:
    sim = Simulator(seed=seed)
    controller = None
    domino = None
    if scheme == "dcf":
        medium = topology.build_medium(sim)
        macs = {n.node_id: DcfMac(sim, n, medium,
                                  queue_capacity=queue_capacity)
                for n in topology.network}
    elif scheme == "centaur":
        _, macs, controller = build_centaur_network(
            sim, topology, queue_capacity=queue_capacity)
    elif scheme == "omniscient":
        _, macs, controller = build_omniscient_network(
            sim, topology, queue_capacity=queue_capacity,
            payload_bytes=payload_bytes)
    else:
        domino = build_domino_network(
            sim, topology, config=domino_config,
            trigger_model=trigger_model, payload_bytes=payload_bytes,
            queue_capacity=queue_capacity)
        macs = domino.macs
        controller = domino.controller

    flows = (topology.flows if saturated
             else active_flows(topology, downlink_mbps, uplink_mbps))
    flow_recorder = FlowRecorder(flows, warmup_us=warmup_us)
    flow_recorder.attach_all(macs.values())

    tcp_flows: List[TcpFlow] = []
    for flow in topology.flows:
        rate = _rate_for(topology, flow, downlink_mbps, uplink_mbps)
        if saturated:
            SaturatedSource(sim, macs[flow.src], flow.dst,
                            payload_bytes=payload_bytes).start()
        elif tcp:
            if rate > 0:
                tcp_flow = TcpFlow(sim, macs[flow.src], macs[flow.dst],
                                   payload_bytes=payload_bytes,
                                   app_rate_mbps=rate)
                tcp_flow.start()
                tcp_flows.append(tcp_flow)
        elif rate > 0:
            CbrSource(sim, macs[flow.src], flow.dst, rate,
                      payload_bytes=payload_bytes).start()

    if controller is not None:
        controller.start()
    for mac in macs.values():
        mac.start()
    sim.run(until=horizon_us)
    if recorder is not None:
        # Summed airtime over the horizon = mean concurrent
        # transmissions; above 1.0 the schedule is spatially reusing
        # the channel.
        airtime = recorder.metrics.counter("medium.airtime_us").value
        recorder.metrics.gauge("medium.mean_concurrent_tx").set(
            airtime / horizon_us if horizon_us > 0 else 0.0)
    return RunResult(scheme=scheme, topology=topology,
                     horizon_us=horizon_us, recorder=flow_recorder, macs=macs,
                     controller=controller, domino=domino,
                     tcp_flows=tcp_flows, trace=recorder)


def slot_timeline(trace: telemetry.TraceRecorder) -> TimelineRecorder:
    """The slot timeline (Fig. 10 / Fig. 11) of a traced DOMINO run.

    Refuses a truncated trace: the ring evicts the oldest records
    first, and the figures read exactly the earliest slots.
    """
    if trace.evicted:
        raise ValueError(
            f"trace ring evicted {trace.evicted} of {trace.emitted} "
            "records; the slot timeline would be partial (raise the "
            "TraceRecorder capacity or shorten the horizon)")
    return TimelineRecorder.from_trace(
        telemetry.TraceView(trace.records()).of("slot_exec", "rop_poll"))


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Plain-text table for experiment output (paper-style rows)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
