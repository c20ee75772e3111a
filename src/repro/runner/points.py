"""Experiment points and their picklable results.

A sweep is a list of :class:`ExperimentPoint`\\ s — (scheme, topology,
traffic, seed, horizon) tuples — each of which runs one independent
simulation.  Points must cross a process boundary, so a point carries
a :class:`TopologySpec` (a top-level factory plus its arguments)
instead of a built :class:`~repro.topology.builder.Topology`, and a
worker reduces the unpicklable ``RunResult`` (live MACs, simulator,
controller) to a :class:`PointResult` of plain data.

Determinism contract: a point's result is a pure function of the
point itself.  The seed lives *on the point* (never derived from
worker identity or wall clock), topology construction happens inside
the worker from the spec's seed arguments, and trace records carry no
process-global counters — which is why serial and parallel execution
of the same point are byte-identical
(``benchmarks/test_sweep_speedup.py`` and
``tests/runner/test_sweep.py`` enforce this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..topology.builder import Topology

Flow = Tuple[int, int]


@dataclass
class TopologySpec:
    """Recipe for building a topology inside a worker process.

    ``factory`` must be picklable — a module-level function such as
    :func:`repro.topology.builder.random_t_topology` or an experiment
    module's own factory — because pool workers receive the spec over
    a pipe even under the ``fork`` start method.
    """

    factory: Callable[..., Topology]
    args: tuple = ()
    kwargs: Dict[str, object] = field(default_factory=dict)

    def build(self) -> Topology:
        return self.factory(*self.args, **self.kwargs)


@dataclass
class ExperimentPoint:
    """One simulation run of a sweep.

    ``run_kwargs`` are forwarded verbatim to
    :func:`repro.experiments.common.run_scheme` (traffic rates,
    ``saturated``/``tcp`` flags, ``payload_bytes``, ``domino_config``,
    ``queue_capacity`` ...) and must be picklable.
    """

    scheme: str
    topology: TopologySpec
    label: str = ""
    seed: int = 1
    horizon_us: float = 1_000_000.0
    warmup_us: float = 100_000.0
    run_kwargs: Dict[str, object] = field(default_factory=dict)


@dataclass
class FlowSummary:
    """Per-flow slice of a worker's ``FlowRecorder`` (Sec. 4.2 stats)."""

    flow: Flow
    packets: int
    payload_bytes: int
    total_delay_us: float
    delays_us: List[float]
    mbps: float

    @property
    def mean_delay_us(self) -> float:
        return self.total_delay_us / self.packets if self.packets else 0.0

    def to_json(self) -> dict:
        return {"flow": list(self.flow), "packets": self.packets,
                "payload_bytes": self.payload_bytes,
                "total_delay_us": self.total_delay_us,
                "delays_us": list(self.delays_us), "mbps": self.mbps}

    @classmethod
    def from_json(cls, data: dict) -> "FlowSummary":
        return cls(flow=tuple(data["flow"]), packets=data["packets"],
                   payload_bytes=data["payload_bytes"],
                   total_delay_us=data["total_delay_us"],
                   delays_us=list(data["delays_us"]), mbps=data["mbps"])


@dataclass
class PointResult:
    """Everything a sweep consumer needs from one point, all picklable.

    ``trace_digest`` is the sha256 over the point's canonical-JSONL
    trace (one :func:`~repro.telemetry.jsonl.dumps_record` line per
    record) when the sweep ran with ``trace=True``; identical digests
    mean byte-identical traces, which is the parallel-equals-serial
    enforcement lever.
    """

    label: str
    scheme: str
    seed: int
    horizon_us: float
    warmup_us: float
    aggregate_mbps: float
    mean_delay_us: float
    fairness: float
    flows: List[FlowSummary]
    events_processed: int
    wall_s: float
    #: Conversion-cache counters of the point's DOMINO controller
    #: (zero for schemes without one).
    cache_hits: int = 0
    cache_misses: int = 0
    trace_digest: Optional[str] = None
    #: Metrics-registry snapshot (``trace=True`` sweeps only).
    metrics: Optional[Dict[str, object]] = None
    #: Doctor finding strings (``diagnose=True`` sweeps only).
    doctor_findings: Optional[List[str]] = None
    #: Picklable critical-path rollup from
    #: :func:`~repro.telemetry.analysis.summarize_causality`
    #: (``diagnose=True`` sweeps only; ``None`` for pre-v3 traces).
    causality: Optional[dict] = None
    #: Raw trace records (``keep_traces=True`` sweeps only — large).
    trace_records: Optional[List[dict]] = None

    def flow_mbps(self, flow: Any) -> float:
        key = (flow.src, flow.dst) if hasattr(flow, "src") else tuple(flow)
        for summary in self.flows:
            if summary.flow == key:
                return summary.mbps
        return 0.0

    def doctor(self) -> "telemetry.analysis.HealthReport":
        """Diagnose the point's kept trace (``keep_traces=True`` runs)."""
        if self.trace_records is None:
            raise ValueError(
                "doctor() needs kept trace records: run the sweep with "
                "trace=True, keep_traces=True")
        return telemetry.analysis.diagnose(self.trace_records,
                                           horizon_us=self.horizon_us)

    def to_json(self) -> dict:
        """Plain-data snapshot for sweep persistence / ``sweep-report``.

        Raw trace records are deliberately excluded — they dwarf
        everything else and the digest already identifies them.
        """
        return {
            "label": self.label, "scheme": self.scheme, "seed": self.seed,
            "horizon_us": self.horizon_us, "warmup_us": self.warmup_us,
            "aggregate_mbps": self.aggregate_mbps,
            "mean_delay_us": self.mean_delay_us,
            "fairness": self.fairness,
            "flows": [flow.to_json() for flow in self.flows],
            "events_processed": self.events_processed,
            "wall_s": self.wall_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "trace_digest": self.trace_digest,
            "metrics": self.metrics,
            "doctor_findings": self.doctor_findings,
            "causality": self.causality,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointResult":
        return cls(
            label=data["label"], scheme=data["scheme"], seed=data["seed"],
            horizon_us=data["horizon_us"], warmup_us=data["warmup_us"],
            aggregate_mbps=data["aggregate_mbps"],
            mean_delay_us=data["mean_delay_us"],
            fairness=data["fairness"],
            flows=[FlowSummary.from_json(f) for f in data["flows"]],
            events_processed=data["events_processed"],
            wall_s=data["wall_s"],
            cache_hits=data.get("cache_hits", 0),
            cache_misses=data.get("cache_misses", 0),
            trace_digest=data.get("trace_digest"),
            metrics=data.get("metrics"),
            doctor_findings=data.get("doctor_findings"),
            causality=data.get("causality"))


@dataclass
class SweepResult:
    """A completed sweep: per-point results in submission order."""

    points: List[PointResult]
    workers: int
    wall_s: float

    @property
    def total_events(self) -> int:
        return sum(p.events_processed for p in self.points)

    @property
    def events_per_sec(self) -> float:
        return self.total_events / self.wall_s if self.wall_s > 0 else 0.0

    def by_label(self) -> Dict[str, PointResult]:
        return {p.label: p for p in self.points}

    def digests(self) -> List[Optional[str]]:
        return [p.trace_digest for p in self.points]

    def merged_metrics(self) -> Dict[str, float]:
        """Sum the scalar metrics of every traced point.

        Counters sum meaningfully across points (total airtime, total
        collisions, total cache hits); gauges are per-run levels, so
        their sum is only useful relative to another sweep of the same
        shape.  Histogram snapshots stay per-point
        (``PointResult.metrics``) — percentiles do not merge.
        """
        merged: Dict[str, float] = {}
        for point in self.points:
            for name, value in (point.metrics or {}).items():
                if isinstance(value, (int, float)):
                    merged[name] = merged.get(name, 0.0) + value
        return merged

    def to_json(self) -> dict:
        return {"points": [p.to_json() for p in self.points],
                "workers": self.workers, "wall_s": self.wall_s}

    @classmethod
    def from_json(cls, data: dict) -> "SweepResult":
        return cls(points=[PointResult.from_json(p)
                           for p in data["points"]],
                   workers=data["workers"], wall_s=data["wall_s"])

    def save_json(self, path: str) -> str:
        """Persist the sweep (minus raw traces) for later reporting."""
        import json
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load_json(cls, path: str) -> "SweepResult":
        import json
        with open(path) as handle:
            return cls.from_json(json.load(handle))
