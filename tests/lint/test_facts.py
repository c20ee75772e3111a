"""Rules read one fact record: every import spelling is an edge and
every clock/RNG call is judged on its alias-resolved name."""

import shutil

import pytest

from repro.lint import load_config

from .conftest import PROJ, run_lint


def _lint_edit(tmp_path, rel_path, source):
    """Lint ``rel_path`` in a copy of the fixture project after
    replacing its contents with ``source``."""
    copy = tmp_path / "proj"
    shutil.copytree(PROJ, copy)
    target = copy / rel_path
    target.write_text(source)
    return run_lint([target], load_config(copy))


def _bodies(err):
    """Finding lines without their ``path:line:col:`` prefix."""
    return [line.split(": ", 1)[1] for line in err.splitlines()]


# ----------------------------------------------------------------------
# Import sites
# ----------------------------------------------------------------------
def test_star_import_is_an_edge(tmp_path):
    rel = "src/fake/leak/bad_dom203.py"
    named = (PROJ / rel).read_text()
    star = named.replace("from ..sim import good  # dominolint",
                         "from ..sim.good import *  # dominolint")
    assert star != named
    code_named, err_named = _lint_edit(tmp_path / "named", rel, named)
    code_star, err_star = _lint_edit(tmp_path / "star", rel, star)
    assert code_named == code_star == 1
    assert err_star == err_named
    assert [b.split(" ")[0] for b in _bodies(err_star)] == ["DOM201"]


# ----------------------------------------------------------------------
# Alias-resolved sources
# ----------------------------------------------------------------------
ALIAS_CASES = [
    # An unseeded Random imported by name is still unseeded.
    ("from random import Random\n"
     "\n"
     "\n"
     "def fresh():\n"
     "    return Random()\n",
     [("5:11", "DOM102", "'Random()' without a seed")]),
    # A renamed clock read flags the call as well as the import.
    ("from time import perf_counter as pc\n"
     "\n"
     "\n"
     "def stamp():\n"
     "    return pc()\n",
     [("1:0", "DOM101", "must not import from 'time'"),
      ("5:11", "DOM101", "'pc()' reads the wall clock")]),
    # The sanitizer's accessor under a clock-like name reads nothing,
    # exactly like the dotted spelling sim/engine.py uses.
    ("from ..telemetry import wallclock\n"
     "from ..telemetry.wallclock import span_s as perf_counter\n"
     "\n"
     "\n"
     "def spans():\n"
     "    return wallclock.span_s(), perf_counter()\n",
     []),
]


@pytest.mark.parametrize(
    "source, expected", ALIAS_CASES,
    ids=["random-by-name", "renamed-clock", "sanitizer-alias"])
def test_sources_are_judged_after_alias_resolution(tmp_path, source,
                                                   expected):
    rel = "src/fake/sim/tmp_alias.py"
    code, err = _lint_edit(tmp_path, rel, source)
    lines = err.splitlines()
    assert code == (1 if expected else 0), err
    assert len(lines) == len(expected), err
    for line, (position, rule, text) in zip(lines, expected):
        assert line.startswith(f"{rel}:{position}: {rule} "), line
        assert text in line, line
