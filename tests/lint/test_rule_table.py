"""Every place that lists dominolint's rules names the same rule IDs:
the DESIGN.md reference table, the SARIF rule table, the README
bullets and the rules the fixture trees actually emit.  The SARIF
descriptions are DESIGN.md's "fires when" column, word for word."""

import re

from repro.lint.sarif import RULE_DESCRIPTIONS

from .conftest import PROJ, PROJ_STALE, REPO_ROOT, run_lint

_RULE = re.compile(r"DOM\d{3}")


def _design_table():
    """Rule ID -> "fires when" text, markdown code marks dropped
    (SARIF's ``text`` is plain text)."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    rows = re.findall(r"^\| (DOM\d{3}) \| [^|]+ \| (.+) \|$", text,
                      re.MULTILINE)
    return {rule: fires.replace("`", "") for rule, fires in rows}


def _readme_bullets():
    """Rule IDs of the ``* **DOM101-DOM104 (...)**`` bullets (the
    README writes the range with an en dash), ranges expanded."""
    text = (REPO_ROOT / "README.md").read_text()
    rules = set()
    for first, last in re.findall(
            r"^\* \*\*DOM(\d{3})(?:\u2013DOM(\d{3}))? ", text, re.MULTILINE):
        for number in range(int(first), int(last or first) + 1):
            rules.add(f"DOM{number}")
    return rules


def _emitted(proj_config, stale_config):
    rules = set()
    for root, config in ((PROJ, proj_config), (PROJ_STALE, stale_config)):
        _, err = run_lint([root / "src"], config)
        rules.update(line.split(" ")[1] for line in err.splitlines())
    return rules


def test_rule_tables_agree(proj_config, stale_config):
    emitted = _emitted(proj_config, stale_config)
    assert all(_RULE.fullmatch(rule) for rule in emitted), emitted
    assert "DOM303" in emitted
    assert set(_design_table()) == emitted
    assert RULE_DESCRIPTIONS == _design_table()
    assert _readme_bullets() == emitted
