"""The blessed wall-clock accessor for instrumented sim code.

Sim-logic layers must not import :mod:`time` (dominolint DOM101): a
wall-clock value that leaks into simulation state or a trace breaks
the byte-identical-per-seed contract everything downstream (conversion
caching, parallel sweeps, causal spans) depends on.  But the engine
still *measures* its event-loop throughput, and that number is
genuinely a wall-clock quantity.

This module is the one sanctioned route: timing lives in telemetry,
the layer that owns observability, and sim code reaches it through the
already-blessed ``sim -> telemetry`` edge.  The contract for callers:

* readings may feed the **metrics registry** (counters, gauges,
  histograms) — metrics are explicitly non-deterministic run health;
* readings must never feed the **trace**, the simulation clock, the
  RNG, or any scheduling decision.

Keeping the accessor trivial is the point — the value of the module is
where it sits in the layering DAG, not what it computes.
"""

from __future__ import annotations

import time

#: Monotonic wall-clock seconds (``time.perf_counter``): only for
#: measuring elapsed real time around sim work, never for sim state.
perf_counter = time.perf_counter

__all__ = ["perf_counter"]
