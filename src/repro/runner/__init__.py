"""repro.runner — sweep engine for paper-scale experiment fan-out.

Experiments are sweeps over independent points — (scheme, topology,
traffic, seed, horizon) tuples — and pure-Python event simulation
makes each point expensive.  This package turns a list of
:class:`~repro.runner.points.ExperimentPoint`\\ s into a typed
:class:`~repro.runner.points.SweepResult`, either serially or across
a process pool, with the guarantee that both modes produce
byte-identical per-point results (seeds live on the points; trace
digests prove it).

Typical use::

    from repro.runner import ExperimentPoint, TopologySpec, run_sweep
    from repro.topology.builder import random_t_topology

    points = [
        ExperimentPoint(scheme=s, seed=100 + i,
                        topology=TopologySpec(random_t_topology, (20, 3),
                                              {"seed": 100 + i}),
                        label=f"{s}:{i}", horizon_us=600_000.0)
        for i in range(50) for s in ("dcf", "domino")
    ]
    sweep = run_sweep(points, workers=4)
    gains = [...]

The experiment modules (``repro.experiments.fig12_t10_2`` etc.) build
their point lists this way and accept ``workers=`` to opt into the
pool.
"""

from .points import (ExperimentPoint, FlowSummary, PointResult, SweepResult,
                     TopologySpec)
from .progress import SweepMonitor
from .report import render_sweep_report, write_sweep_report
from .sweep import run_point, run_sweep, scheme_sweep, trace_digest

__all__ = [
    "ExperimentPoint", "FlowSummary", "PointResult", "SweepMonitor",
    "SweepResult", "TopologySpec", "render_sweep_report", "run_point",
    "run_sweep", "scheme_sweep", "trace_digest", "write_sweep_report",
]
