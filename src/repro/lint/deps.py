"""DOM4xx — the dependency-floor checker.

The sim packages are the code every experiment, sweep and CI job must
be able to import; a third-party import that ``pyproject.toml`` does
not declare works on the author's machine and breaks on the next clean
install.  DOM401 flags any import site in a sim package whose
top-level module is neither stdlib, first-party, nor covered by
``[project] dependencies``.  It reads the import sites the facts
extractor (:mod:`repro.lint.callgraph`) recorded.

Two escapes are deliberate:

* ``if TYPE_CHECKING:`` imports never execute, so they impose no
  runtime dependency;
* imports inside a ``try`` whose handler catches ``ImportError`` /
  ``ModuleNotFoundError`` are the repo's sanctioned optional-dependency
  gate ("stub or gate missing deps") and stay legal.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .callgraph import ModuleFacts
    from .config import Config

#: Module names the running interpreter ships (3.10+).
_STDLIB = frozenset(sys.stdlib_module_names)


def check_dependencies(facts: "ModuleFacts",
                       config: "Config") -> List[Finding]:
    """All DOM4xx findings for one sim-package module."""
    root = facts.module.split(".")[0]
    declared = ", ".join(sorted(config.declared_deps)) or "none"
    findings: List[Finding] = []
    for site in facts.imports:
        if site.type_checking or site.gated:
            continue
        top = site.target.split(".")[0]
        if top == root or top in _STDLIB or config.dep_declared(top):
            continue
        findings.append(Finding(
            path=facts.path, line=site.lineno, col=site.col,
            rule="DOM401",
            message=(
                f"undeclared third-party import: {top} is not in "
                f"[project] dependencies (declared: {declared}); "
                f"declare it in pyproject.toml or gate the import with "
                f"try/except ImportError"
            ),
        ))
    return findings
