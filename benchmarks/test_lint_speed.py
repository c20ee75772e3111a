"""Lint-speed guard: the dataflow engine must not tax the edit loop.

dominolint v2 parses the *whole* src tree on every run (the taint
phase needs the full program view), which without care
would turn a sub-second pre-commit check into a multi-second stall.
The content-hash cache (:mod:`repro.lint.cache`) is the fix: a warm
run re-parses nothing and only replays serialized facts.

Asserted: a warm whole-tree run re-extracts zero files (every one is
a cache hit; the deterministic form of "the cache works") and
completes in under 2 s.  The measured wall times land in
``BENCH_lint.json`` for people to read.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path

from repro.lint import load_config, runner
from repro.lint.cache import LintCache, cache_salt
from repro.lint.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = os.path.join(str(REPO_ROOT), "BENCH_lint.json")

MAX_WARM_WALL_S = 2.0


def _lint_tree(cache: LintCache) -> int:
    config = load_config(REPO_ROOT)
    stream = io.StringIO()
    code = lint_paths([REPO_ROOT / "src"], config, stderr=stream,
                      cache=cache)
    assert code == 0, f"live tree has findings:\n{stream.getvalue()}"
    return code


def test_lint_whole_tree_warm_under_budget(once, tmp_path, monkeypatch):
    config = load_config(REPO_ROOT)
    salt = cache_salt(config)
    cache_path = tmp_path / "lint-cache.json"
    extracted = []
    analyze = runner.analyze_source

    def counting_analyze(source, path, *args):
        extracted.append(path)
        return analyze(source, path, *args)

    monkeypatch.setattr(runner, "analyze_source", counting_analyze)

    started = time.perf_counter()
    cold_cache = LintCache(cache_path, salt)
    _lint_tree(cold_cache)
    cold_cache.save()
    cold_s = time.perf_counter() - started
    cold_extracted = len(extracted)
    assert cold_extracted > 0
    extracted.clear()

    def warm_run():
        begun = time.perf_counter()
        _lint_tree(LintCache(cache_path, salt))
        return time.perf_counter() - begun

    warm_s = once(warm_run)

    assert extracted == [], (
        f"warm run re-extracted {len(extracted)} of {cold_extracted} "
        f"files: {sorted(map(str, extracted))[:5]}")
    assert warm_s < MAX_WARM_WALL_S, (
        f"warm whole-tree lint took {warm_s:.2f}s "
        f"(budget {MAX_WARM_WALL_S}s)")

    payload = {
        "bench": "lint_speed",
        "lint_wall_s": round(warm_s, 4),
        "lint_wall_cold_s": round(cold_s, 4),
        "budget_s": MAX_WARM_WALL_S,
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
