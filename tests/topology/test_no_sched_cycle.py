"""Regression guard: the ``topology -> sched`` import cycle is gone.

PR 5 papered over the cycle with an in-place DOM201 suppression on a
lazy import inside ``Topology.interference_map()``.  The shared type
now lives in :mod:`repro.topology.interference_map` (the RSS-matrix
view is topology ground truth), and topology must never import sched
again — in either load order.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr


def test_importing_topology_never_pulls_in_sched():
    _run(
        "import sys\n"
        "import repro.topology\n"
        "from repro.topology.builder import fig7_topology\n"
        "assert not any(m.startswith('repro.sched') for m in sys.modules), \\\n"
        "    sorted(m for m in sys.modules if m.startswith('repro.sched'))\n"
        # The accessor that used to lazy-import sched stays sched-free.
        "fig7_topology().interference_map()\n"
        "assert not any(m.startswith('repro.sched') for m in sys.modules)\n"
    )


def test_sched_first_load_order_still_works():
    _run(
        "import repro.sched\n"
        "import repro.topology\n"
        "from repro.topology.builder import fig7_topology\n"
        "imap = fig7_topology().interference_map()\n"
        "assert isinstance(imap, repro.topology.InterferenceMap)\n"
    )


def test_no_dom201_suppression_left_in_topology():
    pkg = Path(__file__).resolve().parents[2] / "src/repro/topology"
    offenders = [
        path.name for path in sorted(pkg.rglob("*.py"))
        if "dominolint: disable=DOM201" in path.read_text()
    ]
    assert offenders == [], offenders
