"""Per-rule fixture tests: every bad fixture trips exactly its rule
family; every good fixture lints clean."""

import shutil

import pytest

from .conftest import PROJ, PROJ_STALE, run_lint

BAD_FIXTURES = [
    ("src/fake/sim/bad_dom101.py", "DOM101"),
    ("src/fake/sim/bad_dom102.py", "DOM102"),
    ("src/fake/sim/bad_dom103.py", "DOM103"),
    ("src/fake/sim/bad_dom104.py", "DOM104"),
    ("src/fake/sim/bad_dom105.py", "DOM101"),
    ("src/fake/sim/bad_dom106.py", "DOM102"),
    ("src/fake/sim/bad_dom401.py", "DOM401"),
    ("src/fake/util/bad_dom201.py", "DOM201"),
    ("src/fake/rogue/bad_dom202.py", "DOM202"),
    ("src/fake/leak/bad_dom203.py", "DOM201"),
    ("src/fake/cyc_b/__init__.py", "DOM201"),
    ("src/fake/app/bad_dom301.py", "DOM301"),
    ("src/fake/app/bad_dom302.py", "DOM302"),
    ("src/fake/svc/bad_dom501.py", "DOM501"),
    ("src/fake/svc/bad_dom502.py", "DOM502"),
    ("src/fake/pool/bad_dom503.py", "DOM503"),
]

GOOD_FIXTURES = [
    "src/fake/sim/good.py",
    "src/fake/sim/good_deps.py",
    "src/fake/sim/good_taint.py",
    "src/fake/sim/suppressed.py",
    "src/fake/util/good.py",
    "src/fake/app/good_emit.py",
    "src/fake/svc/good_async.py",
    "src/fake/pool/good_pool.py",
    "src/fake/helpers/lure.py",
    "src/fake/helpers/entropy.py",
    "src/fake/telemetry/events.py",
    "src/fake/telemetry/recorder.py",
    "src/fake/telemetry/wallclock.py",
]


@pytest.mark.parametrize("rel_path, rule", BAD_FIXTURES)
def test_bad_fixture_trips_its_rule(proj_config, rel_path, rule):
    code, err = run_lint([PROJ / rel_path], proj_config)
    assert code == 1
    lines = [line for line in err.splitlines() if line]
    assert lines, f"expected findings for {rel_path}"
    for line in lines:
        assert f" {rule} " in line, f"unexpected finding: {line}"
    # Findings carry clickable path:line:col prefixes.
    assert all(line.startswith(rel_path + ":") for line in lines)


@pytest.mark.parametrize("rel_path", GOOD_FIXTURES)
def test_good_fixture_lints_clean(proj_config, rel_path):
    code, err = run_lint([PROJ / rel_path], proj_config)
    assert code == 0, err
    assert err == ""


def test_multiple_violations_are_all_reported(proj_config):
    code, err = run_lint([PROJ / "src/fake/app/bad_dom302.py"], proj_config)
    assert code == 1
    assert len(err.splitlines()) == 4  # overflow, unknown kw, dict, tuple


def test_suppression_is_rule_specific(proj_config):
    # The same violation with the wrong rule named stays a finding.
    source = (PROJ / "src/fake/sim/suppressed.py").read_text()
    wrong = source.replace("disable=DOM101", "disable=DOM104")
    target = PROJ / "src/fake/sim/tmp_wrong_suppress.py"
    target.write_text(wrong)
    try:
        code, err = run_lint([target], proj_config)
    finally:
        target.unlink()
    assert code == 1
    assert "DOM101" in err


@pytest.mark.parametrize("comment", ["disable=DOM201", "disable=all"])
def test_comment_cannot_silence_layering(tmp_path, comment):
    """A layering exception is a layers-table row, never a comment."""
    from repro.lint import load_config

    copy = tmp_path / "proj"
    shutil.copytree(PROJ, copy)
    target = copy / "src/fake/util/tmp_lazy_edge.py"
    target.write_text(
        "def load():\n"
        f"    from ..helpers import lure  # dominolint: {comment}\n"
        "    return lure\n")
    code, err = run_lint([target], load_config(copy))
    assert code == 1
    assert [line.split(" ")[1] for line in err.splitlines()] == ["DOM201"]


def test_stale_baseline_is_dom303(stale_config):
    code, err = run_lint([PROJ_STALE / "src"], stale_config)
    assert code == 1
    assert "DOM303" in err
    assert "SCHEMA_VERSION" in err


def test_missing_baseline_is_dom303(proj_config, tmp_path):
    from repro.lint import load_config

    copy = tmp_path / "proj"
    shutil.copytree(PROJ, copy)
    (copy / "baseline.json").unlink()
    config = load_config(copy)
    code, err = run_lint([copy / "src/fake/telemetry"], config)
    assert code == 1
    assert "DOM303" in err and "no schema baseline" in err


def test_update_baseline_round_trip(tmp_path):
    from repro.lint import load_config

    copy = tmp_path / "proj_stale"
    shutil.copytree(PROJ_STALE, copy)
    config = load_config(copy)
    code, _ = run_lint([copy / "src"], config)
    assert code == 1  # stale before the refresh
    code, err = run_lint([copy / "src"], config, update_baseline=True)
    assert code == 0, err
    code, err = run_lint([copy / "src"], config)
    assert code == 0, err
