"""Diagnosis layer over traces and metrics — "the doctor".

Four entry points:

* :func:`diagnose` — one pass over a trace, out comes a typed
  :class:`HealthReport` (trigger reliability, ROP decode health,
  airtime accounting, per-flow fairness, plain-language findings);
* :func:`diff_traces` — align two traces slot-by-slot and report the
  first divergence (:class:`TraceDiff`);
* :func:`causality_report` — reconstruct per-batch trigger trees from
  the v3 ``id``/``cause`` spans, compute each batch's critical path
  and attribute its makespan to individual links/decisions
  (:class:`CausalityReport`; :func:`summarize_causality` is the
  picklable rollup sweep workers ship);
* the report/section dataclasses themselves, for tooling that wants
  the numbers rather than the rendered text.

The trace entry points take a
:class:`~repro.telemetry.trace_view.TraceView` or the records to build
one from.  Also reachable as ``RunResult.doctor()`` on a traced
experiment run and as ``python -m repro.telemetry doctor / diff`` on
exported JSONL.
"""

from .causality import (BatchChain, CausalityReport, ChainEdge,
                        causality_report, summarize_causality)
from .diff import SlotDivergence, TraceDiff, diff_traces
from .doctor import diagnose
from .reports import (AirtimeBucket, AirtimeReport, FlowHealth, FlowStats,
                      HealthReport, LinkTriggerStats, RopHealth,
                      TriggerHealth)

__all__ = [
    "AirtimeBucket",
    "AirtimeReport",
    "BatchChain",
    "CausalityReport",
    "ChainEdge",
    "FlowHealth",
    "FlowStats",
    "HealthReport",
    "LinkTriggerStats",
    "RopHealth",
    "SlotDivergence",
    "TraceDiff",
    "TriggerHealth",
    "causality_report",
    "diagnose",
    "diff_traces",
    "summarize_causality",
]
