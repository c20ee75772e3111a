"""CLI behavior: golden stderr, exit codes 0/1/2, and the meta-test
that the live tree lints clean."""

import shutil
from pathlib import Path

import pytest

from repro.lint import load_config, main

from .conftest import FIXTURES, PROJ, REPO_ROOT, run_lint


def test_golden_stderr_over_fixture_tree(proj_config):
    code, err = run_lint([PROJ / "src"], proj_config)
    assert code == 1
    golden = (FIXTURES / "golden" / "proj_bad.txt").read_text()
    assert err == golden


def test_checkout_under_a_skipped_dir_name_still_lints(tmp_path,
                                                       monkeypatch, capsys):
    """Skipped directory names count only below the walked path, so
    a project inside ``.venv`` (or ``.git``, ...) is linted in full."""
    copy = tmp_path / ".venv" / "proj"
    shutil.copytree(PROJ, copy)
    monkeypatch.chdir(copy)
    assert main([str(copy / "src")]) == 1
    golden = (FIXTURES / "golden" / "proj_bad.txt").read_text()
    assert capsys.readouterr().err == golden


def test_exit_zero_on_clean_subtree(proj_config):
    code, err = run_lint([PROJ / "src/fake/telemetry"], proj_config)
    assert code == 0, err


def test_exit_two_on_missing_path(proj_config):
    code, err = run_lint([PROJ / "no_such_file.py"], proj_config)
    assert code == 2
    assert "no such path" in err


@pytest.mark.parametrize("name", ["README.md", "empty"])
def test_exit_two_when_nothing_to_lint(proj_config, tmp_path, name):
    """Paths without a ``.py`` file are bad input, not a clean tree."""
    target = tmp_path / name
    if name == "empty":
        target.mkdir()
    else:
        target.write_text("# not Python\n")
    code, err = run_lint([target], proj_config)
    assert code == 2
    assert err == f"dominolint: no Python files under {target}\n"


def test_exit_two_on_syntax_error(proj_config, tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def (:\n")
    code, err = run_lint([broken], proj_config)
    assert code == 2
    assert "cannot parse" in err


def test_exit_two_on_missing_config_table(tmp_path, monkeypatch, capsys):
    (tmp_path / "pyproject.toml").write_text("[tool.other]\nx = 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 2
    assert "[tool.dominolint]" in capsys.readouterr().err


@pytest.mark.parametrize("rows, reason", [
    ('"a.x" = ["a.y"]\n"a.y" = ["a.z"]\n"a.z" = ["a.x"]\n',
     "cycle: a.x -> a.y -> a.z -> a.x"),
    ('"a.top" = ["*"]\n"a.x" = ["a.top"]\n',
     'a.x may import a.top, whose row is "*"'),
    # Every package may import its root, so a "*" root is an open door.
    ('"a" = ["*"]\n"a.x" = []\n',
     'a.x may import a, whose row is "*"'),
], ids=["cycle", "names-star-row", "star-root"])
def test_exit_two_on_layers_outside_the_dag(tmp_path, monkeypatch, capsys,
                                             rows, reason):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.dominolint]\n[tool.dominolint.layers]\n" + rows)
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dominolint: ")
    assert reason in lines[0]


def test_main_resolves_config_from_cwd(monkeypatch, capsys):
    monkeypatch.chdir(PROJ)
    assert main(["src/fake/sim/bad_dom101.py"]) == 1
    err = capsys.readouterr().err
    assert "DOM101" in err
    assert main(["src/fake/sim/good.py"]) == 0


def test_findings_are_sorted_and_deduplicated(proj_config):
    # Passing overlapping paths must not double-report findings.
    target = PROJ / "src/fake/sim/bad_dom101.py"
    code, err = run_lint([target, PROJ / "src/fake/sim"], proj_config)
    assert code == 1
    lines = [l for l in err.splitlines() if "bad_dom101" in l]
    assert lines == sorted(lines)
    assert len(lines) == len(set(lines))


def test_live_tree_lints_clean():
    """The meta-test: the repository's own src/ and tests/ carry no
    unsuppressed dominolint findings."""
    config = load_config(REPO_ROOT)
    code, err = run_lint([REPO_ROOT / "src", REPO_ROOT / "tests"], config)
    assert code == 0, f"live tree has findings:\n{err}"


def test_live_schema_baseline_is_fresh():
    """The committed schema baseline matches the live events.py."""
    import json

    from repro.lint.schema import load_registry

    config = load_config(REPO_ROOT)
    registry = load_registry(config)
    baseline = json.loads(Path(config.schema_baseline).read_text())
    assert registry.fingerprint() == baseline
