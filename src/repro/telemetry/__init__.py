"""repro.telemetry — structured tracing and metrics for the simulator.

The subsystem has two halves sharing one on/off switch:

* a **trace**: typed, per-event records (frame lifecycle, signature
  detections, trigger firings and backup fallbacks, ROP rounds,
  schedule distribution) in a bounded ring buffer, exportable as
  deterministic JSONL (:mod:`~repro.telemetry.recorder`,
  :mod:`~repro.telemetry.events`, :mod:`~repro.telemetry.jsonl`);
* a **metrics registry**: counters, gauges and p50/p95/p99 histograms
  for airtime, trigger latency, collisions and event-loop throughput
  (:mod:`~repro.telemetry.metrics`).

Usage::

    from repro import telemetry

    recorder = telemetry.activate()        # before building the network
    try:
        net = build_domino_network(sim, topology)
        ...
        sim.run(until=horizon)
    finally:
        telemetry.deactivate()
    recorder.export_jsonl("run.jsonl")
    print(recorder.metrics.render())

or, for experiments, ``run_scheme(..., trace=True)`` which wraps the
same dance and hands the recorder back on the ``RunResult``.

**Zero-cost disabled path.**  Components capture ``current()`` once at
construction; while no session is active that is the module-level
no-op :data:`~repro.telemetry.recorder.NULL` recorder, whose
``enabled`` is ``False`` — instrumented hot paths pay one attribute
load and one branch.  Consequently a recorder must be activated
*before* the instrumented objects (simulator, medium, MACs,
controller) are constructed, and stays bound to them for their
lifetime.

Trace files are examined with ``python -m repro.telemetry``
(``summarize`` / ``timeline`` / ``filter`` / ``doctor`` / ``diff``);
the diagnosis layer behind ``doctor`` and ``diff`` lives in
:mod:`~repro.telemetry.analysis`.  Every trace reader takes one
validated :class:`~repro.telemetry.trace_view.TraceView`.
"""

from __future__ import annotations

from typing import Optional

from .events import EVENT_TYPES, SCHEMA_VERSION, TraceEvent, from_record
from .jsonl import dump_jsonl, load_jsonl, read_jsonl
from .log import get_logger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import (NULL, ORIGIN_META_KEY, TX_META_KEY, NullRecorder,
                       TraceRecorder)
from .trace_tools import (SlotChainEntry, filter_records, render_timeline,
                          summarize, trigger_chain_timeline)
from .trace_view import TraceFormatError, TraceView
from . import analysis

__all__ = [
    "EVENT_TYPES", "SCHEMA_VERSION", "TraceEvent", "from_record",
    "dump_jsonl", "load_jsonl", "read_jsonl",
    "get_logger",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NULL", "ORIGIN_META_KEY", "TX_META_KEY", "NullRecorder",
    "TraceRecorder",
    "SlotChainEntry", "filter_records", "render_timeline", "summarize",
    "trigger_chain_timeline", "TraceFormatError", "TraceView",
    "analysis",
    "current", "activate", "deactivate", "enabled",
]

_current: NullRecorder = NULL


def current() -> NullRecorder:
    """The active recorder, or the shared no-op :data:`NULL`."""
    return _current


def enabled() -> bool:
    return _current.enabled


def activate(recorder: Optional[TraceRecorder] = None) -> TraceRecorder:
    """Install ``recorder`` (a fresh default one if omitted) as the
    current telemetry sink and return it.

    Only objects constructed while it is active will record into it.
    Nested activation is an error — a forgotten ``deactivate()`` would
    silently cross-wire two runs' traces.
    """
    global _current
    if _current.enabled:
        raise RuntimeError(
            "telemetry already active; deactivate() the previous session first"
        )
    if recorder is None:
        recorder = TraceRecorder()
    _current = recorder
    return recorder


def deactivate() -> None:
    """Restore the no-op recorder.  Idempotent."""
    global _current
    _current = NULL
