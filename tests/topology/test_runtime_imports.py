"""Regression guard: the program runs without networkx.

The conflict, hearing and two-hop graphs are plain adjacency dicts
(:mod:`repro.topology.conflict_graph`) and the beacon-round colouring
is the program's own, so networkx is a test-only dependency.  Importing
every entry point must not load it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

ENTRY_POINTS = ("repro", "repro.experiments.common", "repro.service",
                "repro.runner", "repro.telemetry")


def test_entry_points_do_not_import_networkx():
    code = (
        "import importlib, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "assert 'networkx' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('networkx'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
