"""Exact per-layer operation counts: the regression gate for work.

Every perfbench workload is seeded, so the operation counts its traced
run reports are the same on every run and every machine.  This bench
runs each workload as

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1

reads the final JSON line, requires ``"correct": true``, and asserts
every count in :data:`PINNED` exactly.  A count may move only when a
change intends the move; that change updates the pin here and names
the count, its old and new value and the reason in CHANGES.md.

Wall-derived numbers are not gated anywhere: they depend on the
machine that ran the bench.  The pins were recorded on Python 3.11
(the version perfbench's own ``pins.json`` was recorded on).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The gated counts, in the column order of :data:`PINNED`.
COUNTS = (
    "sim.engine.events", "sim.engine.schedules",
    "sim.medium.tx", "sim.radio.edges",
    "core.converter.converts", "core.conversion_cache.rejects",
    "topology.conflict_graph.checks",
    "topology.interference_map.set_checks",
    "telemetry.recorder.records", "service.dirty_links",
)

PINNED = {
    #                 events  sched    tx   edges  conv  rej  chk  set    rec  dirty
    "fig14-domino":  ( 18008, 19574, 3158, 275593,    7,   0,   1,   0,     0,     0),
    "fig14-dcf":     ( 20504, 26182,  996,  76368,    0,   0,   0,   0,     0,     0),
    "service-churn": (     0,     0,    0,      0,  374, 297, 374,   0,     0,  2124),
    "fig12-observe": ( 17368, 19900, 2910, 168664,   18,   0,   1,   0, 19846,     0),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_layer_counts_pinned(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    assert lines, f"{workload}: no output\n{proc.stderr[-2000:]}"
    result = json.loads(lines[-1])
    assert result["correct"] is True, f"{workload}: {result}"
    metrics = result["metrics"]
    moved = [f"{workload}: {name} pinned {pin}, measured "
             f"{metrics[name]['value']:g}"
             for name, pin in zip(COUNTS, PINNED[workload])
             if metrics[name]["value"] != pin]
    assert not moved, "\n".join(moved)
