"""Overhead guard: telemetry must stay cheap, off *and* on.

Budgets (asserted against the reference fig12-style UDP workload):

* **disabled** < 5 % runtime — the path everyone pays.  One attribute
  load plus one ``enabled`` branch per site (components capture the
  NULL recorder at construction); measured as guard micro-cost times
  the run's actual instrumentation hit count, because a single
  off-vs-off wall-clock pair is noisier than the effect itself.
* **enabled** < 20 % extra Python calls — the path a traced run
  pays.  The recorder appends one raw tuple per event and defers all
  dict building / set sorting / float rounding to read time, which is
  what brought this under budget.  Counted with ``sys.setprofile``
  over one base and one enabled run (the ``count_calls`` fixture), so
  the verdict does not depend on the load of the machine.  The
  wall-clock ratio of interleaved base/enabled pairs (best-of-N on
  each side) is still measured and reported, not asserted.

The traced run is seeded, so its outputs are asserted exactly
(:data:`PINNED`): the instrumentation hit count, both call counts,
the aggregate throughput and the critical-path makespan percentiles.
A move in one of them means the protocol, scheduling or telemetry
code changed.  The verdict plus raw numbers land in
``BENCH_telemetry.json`` (latest-run snapshot) for people to read.
"""

from __future__ import annotations

import json
import os
import time
import timeit

from repro import telemetry
from repro.experiments.common import run_scheme
from repro.experiments.fig12_t10_2 import default_topology
from repro.telemetry.analysis import summarize_causality

RESULT_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_telemetry.json")

HORIZON_US = 120_000.0
MAX_DISABLED_OVERHEAD = 0.05      # the original 5 % budget
MAX_ENABLED_OVERHEAD = 0.20       # the enabled-path budget, in calls
REPEATS = 3                       # interleaved base/enabled pairs

#: Deterministic outputs of the seeded reference runs; the call counts
#: were recorded on Python 3.11.
PINNED = {
    "trace_events_emitted": 23180,
    "base_calls": 1278405,
    "enabled_calls": 1386458,
    "domino_mbps": 27.8118,
    "critical_makespan_p50_ms": 23.6481,
    "critical_makespan_p95_ms": 71.6192,
}


def reference_run(trace):
    return run_scheme("domino", default_topology(), horizon_us=HORIZON_US,
                      warmup_us=20_000.0, uplink_mbps=4.0, seed=1,
                      trace=trace)


def new_recorder():
    return telemetry.TraceRecorder(capacity=1 << 20)


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def guard_cost_seconds():
    """Per-site cost of the disabled path: load ``self._trace`` off a
    component and branch on ``enabled`` — exactly what every
    instrumented hot path does when telemetry is off."""

    class Component:
        def __init__(self):
            self._trace = telemetry.current()

        def hot_path(self):
            tel = self._trace
            if tel.enabled:
                tel.emit({"ev": "backup_trigger", "t": 0.0, "node": 0,
                          "slot": 0, "reason": "watchdog"})

    component = Component()
    assert not component._trace.enabled
    loops = 200_000
    # Best-of-N, like the wall-clock pairs above: a single timeit
    # sample of a ~60 ns operation swings 3x under scheduler noise;
    # the minimum is the undisturbed cost.
    return min(timeit.repeat(component.hot_path, number=loops,
                             repeat=5)) / loops


def measure_interleaved(repeats=REPEATS):
    """Alternate base/enabled runs and keep the best of each side.

    Interleaving means thermal or scheduler drift hits both sides
    alike; taking the min discards the noisy outliers (the minimum of
    a deterministic workload's wall time is its least-disturbed run).
    """
    base_times, enabled_times = [], []
    enabled_result = None
    for _ in range(repeats):
        _, base_s = timed(lambda: reference_run(trace=None))
        base_times.append(base_s)
        enabled_result, enabled_s = timed(lambda: reference_run(
            trace=new_recorder()))
        enabled_times.append(enabled_s)
    return min(base_times), min(enabled_times), enabled_result


def test_telemetry_overhead_under_budget(count_calls):
    # Warm caches/allocator with a throwaway run, then count, then time.
    reference_run(trace=None)
    base_calls, _ = count_calls(lambda: reference_run(trace=None))
    enabled_calls, _ = count_calls(
        lambda: reference_run(trace=new_recorder()))
    enabled_calls_fraction = enabled_calls / base_calls - 1.0
    base_s, enabled_s, enabled_result = measure_interleaved()
    enabled_fraction = enabled_s / base_s - 1.0

    hits = enabled_result.trace.emitted
    assert hits > 1000, "reference run barely exercised the instrumentation"

    # Estimated cost the *disabled* run pays for instrumentation: every
    # site that fired when enabled ran its guard when disabled too.
    per_site_s = guard_cost_seconds()
    disabled_overhead_s = per_site_s * hits
    disabled_fraction = disabled_overhead_s / base_s

    report = {
        "workload": "fig12 T(10,2) UDP, domino, "
                    f"horizon={HORIZON_US / 1000.0:.0f} ms",
        "baseline_s": round(base_s, 4),
        "enabled_s": round(enabled_s, 4),
        "enabled_overhead_fraction": round(enabled_fraction, 4),
        "base_calls": base_calls,
        "enabled_calls": enabled_calls,
        "enabled_calls_overhead_fraction": round(enabled_calls_fraction, 4),
        "enabled_budget_fraction": MAX_ENABLED_OVERHEAD,
        "instrumentation_hits": hits,
        "guard_cost_ns": round(per_site_s * 1e9, 2),
        "disabled_overhead_s_estimate": round(disabled_overhead_s, 6),
        "disabled_overhead_fraction": round(disabled_fraction, 6),
        "budget_fraction": MAX_DISABLED_OVERHEAD,
        "pass": (disabled_fraction < MAX_DISABLED_OVERHEAD
                 and enabled_calls_fraction < MAX_ENABLED_OVERHEAD),
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    causality = summarize_causality(enabled_result.trace.records())
    measured = {
        "trace_events_emitted": hits,
        "base_calls": base_calls,
        "enabled_calls": enabled_calls,
        "domino_mbps": round(enabled_result.aggregate_mbps, 4),
        "critical_makespan_p50_ms": round(
            causality["makespan_p50_us"] / 1000.0, 4),
        "critical_makespan_p95_ms": round(
            causality["makespan_p95_us"] / 1000.0, 4),
    }
    assert measured == PINNED, (measured, PINNED)

    assert disabled_fraction < MAX_DISABLED_OVERHEAD, report
    assert enabled_calls_fraction < MAX_ENABLED_OVERHEAD, report
