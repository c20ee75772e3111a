"""The wall clock may inform metrics, never the trace.

These tests pin the determinism fixes surfaced by dominolint (DOM101
in the engine): all wall-clock reads in the event loop go through
``repro.telemetry.wallclock``, and their values must be unable to
perturb simulation state or the exported trace.  If a future change
routes a wall-clock reading back into scheduling or event payloads,
the byte comparison here diverges immediately.
"""

import io
import itertools

from repro.experiments.common import run_scheme
from repro.runner.sweep import trace_digest
from repro.telemetry import wallclock
from repro.topology.builder import fig7_topology


def _traced_run():
    result = run_scheme("domino", fig7_topology(uplinks=True),
                        horizon_us=20_000.0, warmup_us=0.0,
                        saturated=True, seed=7, trace=True)
    stream = io.StringIO()
    result.trace.write_jsonl(stream)
    return result, stream.getvalue()


def test_wall_clock_cannot_perturb_the_trace(monkeypatch):
    _, baseline = _traced_run()
    # A hostile clock: huge values, irregular steps.  The engine reads
    # it for run-wall-time metrics; the trace must not notice.
    ticks = itertools.count(start=1.0e9, step=987.654321)
    monkeypatch.setattr(wallclock, "perf_counter", lambda: next(ticks))
    _, perturbed = _traced_run()
    assert perturbed == baseline


def test_trace_digest_is_stable_across_runs():
    result_a, _ = _traced_run()
    result_b, _ = _traced_run()
    digest_a = trace_digest(result_a.trace.records())
    digest_b = trace_digest(result_b.trace.records())
    assert digest_a == digest_b

