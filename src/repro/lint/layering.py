"""DOM2xx — the import contract, over the facts' import sites.

The allowed-dependency DAG between ``repro.*`` packages lives in
``[tool.dominolint.layers]`` in ``pyproject.toml``; DESIGN.md explains
why each edge exists.  Both rules read the import sites the facts
extractor (:mod:`repro.lint.callgraph`) recorded; neither walks a tree.

DOM201
    An import edge missing from the table.
DOM202
    A module whose package is missing from the table entirely (new
    packages must declare their layer in the same diff that creates
    them).

The table is the only place a layering exception can live: the runner
never applies inline suppressions to these findings, and
:func:`repro.lint.config.load_config` rejects a table whose non-``"*"``
rows form a cycle or name a ``"*"`` package.  Every runtime edge —
lazy function-level imports included — is therefore a table edge, so
no chain of them can reach past a package's allowed closure or close
a cycle below the ``"*"`` rows.  ``if TYPE_CHECKING:`` imports are not
edges: they never execute, and they exist precisely so annotations can
reference upper-layer types.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .callgraph import ModuleFacts
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .config import Config


def check_layering(facts: ModuleFacts, config: "Config") -> List[Finding]:
    """DOM201/DOM202 findings for one first-party module."""
    package = config.package_of(facts.module)
    if package not in config.layers:
        return [Finding(
            path=facts.path, line=1, col=0, rule="DOM202",
            message=(
                f"package {package} is not declared in "
                f"[tool.dominolint.layers]; every repro package must "
                f"state which layers it may depend on"
            ),
        )]
    allowed = config.layers[package]
    if "*" in allowed:
        return []
    root = facts.module.split(".")[0]
    listed = ", ".join(sorted(set(allowed) - {package, root})) or "nothing"
    findings: List[Finding] = []
    for site in facts.imports:
        if site.type_checking:
            continue
        if site.target != root and not site.target.startswith(root + "."):
            continue  # external dependency; DOM401's question
        dst_pkg = config.package_of(site.target)
        # A package may always import itself and the distribution root
        # (the bare ``repro`` namespace, whose row allows nothing).
        if dst_pkg in allowed or dst_pkg in (package, root):
            continue
        findings.append(Finding(
            path=facts.path, line=site.lineno, col=site.col,
            rule="DOM201",
            message=(
                f"layering violation: {package} may not import "
                f"{dst_pkg} (allowed: {listed}); add the edge to "
                f"[tool.dominolint.layers] only with a DESIGN.md "
                f"rationale"
            ),
        ))
    return findings


__all__ = ["check_layering"]
