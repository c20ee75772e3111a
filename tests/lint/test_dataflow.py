"""The v2 dataflow engine: taint hops, DOM5xx CFG analysis, transitive
layering, the content-hash cache, and SARIF output."""

import ast
import io
import json
import shutil
from pathlib import Path

from repro.lint import load_config, main
from repro.lint.cache import LintCache, cache_salt
from repro.lint.cfg import await_crossed, build_cfg, guarded_statements
from repro.lint.callgraph import extract_facts
from repro.lint.runner import lint_paths

from .conftest import PROJ, run_lint


# ----------------------------------------------------------------------
# Taint: what the syntactic pass cannot see
# ----------------------------------------------------------------------
def test_old_determinism_pass_misses_laundered_clock(proj_config):
    """The headline case: no direct read in the file, DOM101 anyway.

    ``bad_dom105.py`` reaches ``time.time()`` only through two call
    hops in another package; the file itself holds no source call, so
    only the hop analysis can flag it — under the same rule ID as a
    direct read.
    """
    source = (PROJ / "src/fake/sim/bad_dom105.py").read_text()
    facts = extract_facts(ast.parse(source), "fake.sim.bad_dom105",
                          "bad_dom105.py", False, {})
    assert facts.sources == []

    code, err = run_lint([PROJ / "src/fake/sim/bad_dom105.py"],
                         proj_config)
    assert code == 1
    [line] = err.splitlines()
    assert " DOM101 " in line
    # The finding names the full laundering chain.
    assert ("via fake.helpers.lure.jittered_now -> "
            "fake.helpers.lure.read_clock") in line


def test_taint_finding_lands_on_the_call_site(proj_config):
    code, err = run_lint([PROJ / "src/fake/sim/bad_dom106.py"],
                         proj_config)
    assert code == 1
    line = [l for l in err.splitlines() if "DOM102" in l][0]
    assert line.startswith("src/fake/sim/bad_dom106.py:7:")
    assert "reroll" in line


def test_sanitizer_module_cuts_the_chain(proj_config):
    """Same shape as bad_dom105, helper in taint-sanitizers: clean."""
    code, err = run_lint([PROJ / "src/fake/sim/good_taint.py"],
                         proj_config)
    assert code == 0, err


def test_whole_program_finding_honours_inline_suppression(proj_config):
    source = (PROJ / "src/fake/sim/bad_dom105.py").read_text()
    silenced = source.replace(
        "frame_time = jittered_now()",
        "frame_time = jittered_now()  # dominolint: disable=DOM101")
    target = PROJ / "src/fake/sim/tmp_suppressed_taint.py"
    target.write_text(silenced)
    try:
        code, err = run_lint([target], proj_config)
    finally:
        target.unlink()
    assert code == 0, err


def test_dom5xx_suppression_is_rule_specific(proj_config):
    source = (PROJ / "src/fake/svc/bad_dom502.py").read_text()
    wrong = source.replace(
        "asyncio.create_task(worker())",
        "asyncio.create_task(worker())  # dominolint: disable=DOM501")
    right = source.replace(
        "asyncio.create_task(worker())",
        "asyncio.create_task(worker())  # dominolint: disable=DOM502")
    target = PROJ / "src/fake/svc/tmp_suppress_check.py"
    try:
        target.write_text(wrong)
        code, err = run_lint([target], proj_config)
        assert code == 1 and "DOM502" in err
        target.write_text(right)
        code, err = run_lint([target], proj_config)
        assert code == 0, err
    finally:
        target.unlink()


# ----------------------------------------------------------------------
# CFG primitives
# ----------------------------------------------------------------------
def _func(source: str):
    return ast.parse(source).body[0]


def test_await_crossed_includes_loop_back_edges():
    func = _func(
        "async def f(self):\n"
        "    self.x = 1\n"            # before any await... but the
        "    for item in items:\n"    # loop back-edge makes it crossed
        "        await work(item)\n"
    )
    cfg = build_cfg(func)
    crossed = await_crossed(cfg)
    crossed_lines = {cfg.stmts[n].lineno for n in crossed}
    assert 4 in crossed_lines          # the await itself
    assert 3 in crossed_lines          # loop header, via back edge
    assert 2 not in crossed_lines      # straight-line pre-await code


def test_await_in_nested_def_does_not_count():
    func = _func(
        "async def f(self):\n"
        "    async def inner():\n"
        "        await work()\n"
        "    self.x = 1\n"
    )
    assert await_crossed(build_cfg(func)) == set()


def test_guarded_statements_cover_lock_blocks():
    func = _func(
        "async def f(self):\n"
        "    async with self._revision_lock:\n"
        "        self.registry['k'] = 1\n"
        "    self.registry['k'] = 2\n"
    )
    lines = guarded_statements(func)
    assert 3 in lines and 4 not in lines


# ----------------------------------------------------------------------
# The content-hash cache
# ----------------------------------------------------------------------
def _run_cached(root: Path, cache: LintCache):
    config = load_config(root)
    stream = io.StringIO()
    code = lint_paths([root / "src"], config, stderr=stream, cache=cache)
    return code, stream.getvalue()


def test_cache_warm_run_is_identical_and_invalidates(tmp_path):
    copy = tmp_path / "proj"
    shutil.copytree(PROJ, copy)
    config = load_config(copy)
    salt = cache_salt(config)
    cache_path = copy / ".cache.json"

    cache = LintCache(cache_path, salt)
    code_cold, err_cold = _run_cached(copy, cache)
    cache.save()
    assert cache_path.is_file()

    warm = LintCache(cache_path, salt)
    code_warm, err_warm = _run_cached(copy, warm)
    assert (code_warm, err_warm) == (code_cold, err_cold)

    # Editing a file invalidates exactly its entry: the fixed file's
    # findings disappear on the next run.
    bad = copy / "src/fake/sim/bad_dom104.py"
    bad.write_text("def fine():\n    return 1\n")
    edited = LintCache(cache_path, salt)
    _, err_edited = _run_cached(copy, edited)
    assert "DOM104" not in err_edited
    assert "DOM101" in err_edited      # untouched findings survive

    # A salt change (new linter version / config) drops everything
    # silently — degrade to a cold run, never to stale output.
    stale = LintCache(cache_path, "different-salt")
    code_stale, err_stale = _run_cached(copy, stale)
    assert err_stale == err_edited


def test_cache_tolerates_corrupt_file(tmp_path):
    copy = tmp_path / "proj"
    shutil.copytree(PROJ, copy)
    cache_path = copy / ".cache.json"
    cache_path.write_text("{not json")
    config = load_config(copy)
    cache = LintCache(cache_path, cache_salt(config))
    code, err = _run_cached(copy, cache)
    assert code == 1 and "DOM101" in err


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
def test_sarif_document_on_stdout(proj_config):
    out, err = io.StringIO(), io.StringIO()
    code = lint_paths([PROJ / "src"], proj_config,
                      stderr=err, stdout=out, output_format="sarif")
    assert code == 1
    assert err.getvalue() == ""        # findings moved off stderr
    doc = json.loads(out.getvalue())
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    rule_ids = {r["ruleId"] for r in results}
    # Every family represented in the fixture tree shows up.
    for rule in ("DOM101", "DOM102", "DOM201", "DOM202",
                 "DOM203", "DOM301", "DOM401", "DOM501", "DOM502",
                 "DOM503"):
        assert rule in rule_ids, rule
    declared = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert rule_ids <= declared
    # Regions are 1-based per the SARIF spec.
    assert all(r["locations"][0]["physicalLocation"]["region"]
               ["startColumn"] >= 1 for r in results)


def test_cli_format_flag(monkeypatch, capsys):
    monkeypatch.chdir(PROJ)
    assert main(["--format", "sarif", "--no-cache",
                 "src/fake/sim/bad_dom101.py"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert {r["ruleId"] for r in doc["runs"][0]["results"]} == {"DOM101"}
