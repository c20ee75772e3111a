"""Lint-speed guard: the dataflow engine must not tax the edit loop.

dominolint v2 parses the *whole* src tree on every run (the taint
phase needs the full program view) and keeps nothing between runs, so
the pre-commit check costs one cold pass over the tree.

Asserted: one cold whole-tree run analyses every ``.py`` file under
``src`` exactly once (the deterministic form of "one pass"; a second
parse of any file, or a skipped one, fails the gate) and completes in
under 2 s.  The measured wall time lands in ``BENCH_lint.json`` for
people to read.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path

from repro.lint import load_config, runner
from repro.lint.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = os.path.join(str(REPO_ROOT), "BENCH_lint.json")

MAX_COLD_WALL_S = 2.0


def test_lint_whole_tree_cold_under_budget(once, monkeypatch):
    config = load_config(REPO_ROOT)
    analyzed = []
    analyze = runner.analyze_source

    def counting_analyze(source, path, *args):
        analyzed.append(path.resolve())
        return analyze(source, path, *args)

    monkeypatch.setattr(runner, "analyze_source", counting_analyze)

    def cold_run():
        stream = io.StringIO()
        begun = time.perf_counter()
        code = lint_paths([REPO_ROOT / "src"], config, stderr=stream)
        wall_s = time.perf_counter() - begun
        assert code == 0, f"live tree has findings:\n{stream.getvalue()}"
        return wall_s

    wall_s = once(cold_run)

    expected = sorted(path.resolve()
                      for path in (REPO_ROOT / "src").rglob("*.py"))
    assert sorted(analyzed) == expected, (
        f"analysed {len(analyzed)} times ({len(set(analyzed))} distinct "
        f"files) for {len(expected)} files under src")
    assert wall_s < MAX_COLD_WALL_S, (
        f"cold whole-tree lint took {wall_s:.2f}s "
        f"(budget {MAX_COLD_WALL_S}s)")

    payload = {
        "bench": "lint_speed",
        "lint_wall_s": round(wall_s, 4),
        "files": len(expected),
        "budget_s": MAX_COLD_WALL_S,
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
