"""Benchmark trend tracking: history file + regression gate.

Every bench run appends one JSON line to ``BENCH_history.jsonl`` at
the repo root::

    {"bench": "telemetry_overhead", "metrics": {...}, "ts": ...}

so performance history accumulates *in the repo* instead of dying with
each CI container.  :func:`check` then compares the newest entry of
each bench against the median of its recorded predecessors and flags
any gated metric that regressed by more than 15 %.

Two kinds of metrics deliberately get different treatment:

* **gated** (:data:`GATED_METRICS`) — ratios and deterministic
  simulation outputs (runtime *ratio* enabled/disabled, estimated
  disabled overhead fraction, seeded fig12 throughput).  These are
  machine-independent enough that a 15 % move means the *code*
  changed, so CI fails on them.
* everything else — raw wall-clock seconds and similar
  machine-dependent numbers.  They ride along in the history and the
  report for humans, but never block.

CLI::

    python benchmarks/trend.py check            # report, always exit 0
    python benchmarks/trend.py check --strict   # exit 1 on regression
    python benchmarks/trend.py show             # dump the history
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HISTORY_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_history.jsonl")

#: Maximum tolerated regression of a gated metric against the median
#: of its recorded history.
REGRESSION_THRESHOLD = 0.15

#: Metric name -> direction ("lower" = smaller is better).  Only
#: metrics listed here participate in the blocking gate.
GATED_METRICS: Dict[str, str] = {
    "enabled_runtime_ratio": "lower",
    "disabled_overhead_fraction": "lower",
    "domino_mbps": "higher",
    "sweep_events_per_sec": "higher",
    # Critical-path makespan percentiles of the seeded fig12 reference
    # run (schema v3 causal spans) — deterministic simulation outputs,
    # so a move means the protocol/scheduling code changed.
    "critical_makespan_p50_ms": "lower",
    "critical_makespan_p95_ms": "lower",
    # Online-controller loadtest: revision latency must stay flat and
    # the conversion-cache hit rate is a deterministic output of the
    # seeded workload — a drop means cache revalidation regressed.
    "revision_p99_ms": "lower",
    "incremental_hit_rate": "higher",
    # Live ops plane: the exporter + phase timing must stay near-free
    # on the loadtest (the bench itself hard-fails at 3 %; the gate
    # catches slow creep below that), and the per-phase p99 rides the
    # same flat-latency expectation as revision_p99_ms.
    "export_overhead_pct": "lower",
    "revision_phase_p99_ms": "lower",
    # Warm whole-tree dominolint wall time (benchmarks/test_lint_speed):
    # the content-hash cache keeps the dataflow phases out of the edit
    # loop, and this gate keeps them out for good.
    "lint_wall_s": "lower",
}

#: History below this many prior entries is not gated — a median of
#: one sample is just that sample.
MIN_HISTORY = 2


def append(bench: str, metrics: Dict[str, float],
           history_path: Optional[str] = None) -> dict:
    """Record one bench run.  Returns the appended entry."""
    entry = {"bench": bench, "ts": round(time.time(), 3),
             "metrics": {k: metrics[k] for k in sorted(metrics)}}
    path = history_path or HISTORY_PATH
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(history_path: Optional[str] = None) -> List[dict]:
    path = history_path or HISTORY_PATH
    if not os.path.exists(path):
        return []
    entries = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class MetricVerdict:
    """Latest-vs-history comparison of one bench metric."""

    bench: str
    metric: str
    latest: float
    median: float
    samples: int                  # prior entries backing the median
    gated: bool
    #: Signed relative change, positive = worse (direction-adjusted).
    regression: float

    @property
    def failed(self) -> bool:
        return self.gated and self.regression > REGRESSION_THRESHOLD

    def describe(self) -> str:
        flag = ("FAIL" if self.failed
                else "gate" if self.gated else "info")
        return (f"[{flag}] {self.bench}.{self.metric}: "
                f"{self.latest:.4f} vs. median {self.median:.4f} "
                f"over {self.samples} runs "
                f"({100.0 * self.regression:+.1f} % "
                f"{'worse' if self.regression > 0 else 'better'})")


def check(history_path: Optional[str] = None) -> List[MetricVerdict]:
    """Compare each bench's newest entry against its history.

    Returns one verdict per (bench, metric) with enough history;
    callers decide whether only gated failures block (``--strict``).
    """
    by_bench: Dict[str, List[dict]] = {}
    for entry in load_history(history_path):
        by_bench.setdefault(entry["bench"], []).append(entry)

    verdicts: List[MetricVerdict] = []
    for bench, entries in sorted(by_bench.items()):
        *history, latest = entries
        for metric, value in sorted(latest["metrics"].items()):
            priors = [e["metrics"][metric] for e in history
                      if metric in e["metrics"]]
            if len(priors) < MIN_HISTORY:
                continue
            median = _median(priors)
            direction = GATED_METRICS.get(metric)
            if median == 0.0:
                relative = 0.0
            else:
                relative = (value - median) / abs(median)
            if direction == "higher":
                relative = -relative
            verdicts.append(MetricVerdict(
                bench=bench, metric=metric, latest=value, median=median,
                samples=len(priors), gated=direction is not None,
                regression=relative))
    return verdicts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/trend.py",
        description="Benchmark history trend gate.")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("check", help="compare latest runs vs. history")
    cmd.add_argument("--strict", action="store_true",
                     help="exit 1 if any gated metric regressed > "
                          f"{100 * REGRESSION_THRESHOLD:.0f} %")
    cmd.add_argument("--history", default=None, help="history file path")
    cmd = commands.add_parser("show", help="dump the recorded history")
    cmd.add_argument("--history", default=None, help="history file path")

    args = parser.parse_args(argv)
    history = load_history(args.history)
    if args.command == "show":
        for entry in history:
            print(json.dumps(entry, sort_keys=True))
        return 0

    if not history:
        print("no benchmark history recorded yet "
              f"({args.history or HISTORY_PATH})")
        return 0
    verdicts = check(args.history)
    if not verdicts:
        print(f"{len(history)} history entries, none with enough prior "
              f"runs to gate (need {MIN_HISTORY})")
        return 0
    for verdict in verdicts:
        print(verdict.describe())
    failures = [v for v in verdicts if v.failed]
    if failures:
        print(f"{len(failures)} gated metric(s) regressed beyond "
              f"{100 * REGRESSION_THRESHOLD:.0f} % of the recorded median")
        return 1 if args.strict else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
