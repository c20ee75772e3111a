"""DOM2xx — the import contract, over one package import graph.

The allowed-dependency DAG between ``repro.*`` packages lives in
``[tool.dominolint.layers]`` in ``pyproject.toml``; DESIGN.md explains
why each edge exists.  Every rule here reads the import sites the facts
extractor (:mod:`repro.lint.callgraph`) recorded; none walks a tree.

DOM201 (per file, cached)
    An import edge missing from the table.
DOM202 (per file, cached)
    A module whose package is missing from the table entirely (new
    packages must declare their layer in the same diff that creates
    them).
DOM203 (whole program)
    The edge-at-a-time check has two escapes.  **Cycles:** a pair of
    packages can each hold a legal-looking edge to the other (one of
    them lazy, or inline-suppressed) — exactly how the old
    ``topology -> sched`` lazy import hid for four PRs.
    **Laundering:** ``P`` may not import ``R``, but ``P -> Q -> R``
    with both edges allowed (or suppressed) gives ``P`` everything
    ``R`` exports anyway.  DOM203 therefore works on the *actual*
    package graph — every first-party import site, **including** lazy
    function-level imports and sites carrying a DOM201 suppression.

DOM201 and DOM203 read the same graph but keep separate IDs on
purpose: suppressing the direct rule on an edge must not silence the
structural one.  ``if TYPE_CHECKING:`` imports are not edges — they
never execute, so they cannot create a runtime cycle or layering leak;
they exist precisely so annotations can reference upper-layer types.

Escapes from DOM203 must be paid for in config: a
``transitive-waivers`` entry (``"pkg.a -> pkg.b"``) removes that edge
from the analysis, making every accepted exception a reviewed artifact
in ``pyproject.toml`` rather than a comment lost in a function body.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import ImportEdge, ModuleFacts, ProgramIndex
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .config import Config

#: (src_pkg, dst_pkg) -> (path, first import site).
EdgeMap = Dict[Tuple[str, str], Tuple[str, ImportEdge]]


def _package_edges(facts: ModuleFacts, config: "Config",
                   ) -> Iterator[Tuple[str, ImportEdge]]:
    """(dst_pkg, site) for each runtime first-party import site that
    leaves the module's package."""
    root = facts.module.split(".")[0]
    src_pkg = config.package_of(facts.module)
    for site in facts.imports:
        if site.type_checking:
            continue
        if site.target != root and not site.target.startswith(root + "."):
            continue  # external dependency; DOM401's question
        dst_pkg = config.package_of(site.target)
        if dst_pkg != src_pkg:
            yield dst_pkg, site


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
    for dst_pkg, site in _package_edges(facts, config):
        # A package may always import the distribution root (the bare
        # ``repro`` namespace re-exports nothing heavy).
        if dst_pkg in allowed or dst_pkg == root:
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


def _package_graph(index: ProgramIndex, config: "Config",
                   ) -> Tuple[EdgeMap, Set[Tuple[str, str]]]:
    """Package-level edges with their first (provenance) site, minus
    waived edges, and the edges some site of which carries an inline
    DOM201 suppression.

    Sites are taken in deterministic module and line order, so
    findings always anchor to the same import statement.
    """
    edges: EdgeMap = {}
    suppressed: Set[Tuple[str, str]] = set()
    for module in sorted(index.modules):
        facts = index.modules[module]
        src_pkg = config.package_of(module)
        for dst_pkg, site in sorted(_package_edges(facts, config),
                                    key=lambda e: (e[1].lineno, e[1].col)):
            edges.setdefault((src_pkg, dst_pkg), (facts.path, site))
            rules = facts.suppressions.get(site.lineno, [])
            if "DOM201" in rules or "ALL" in rules:
                suppressed.add((src_pkg, dst_pkg))
    for waived in config.transitive_waivers:
        edges.pop(waived, None)
    return edges, suppressed


def _reach_edges(config: "Config", edges: EdgeMap,
                 suppressed: Set[Tuple[str, str]]) -> EdgeMap:
    """The subgraph the *reach* analysis walks.

    An edge qualifies if it is table-legal, or if some site of it
    carries an inline DOM201 suppression (paid for locally, but its
    transitive consequences still count).  An *unsuppressed* illegal
    edge is excluded: DOM201 already reports it, and walking through
    it would just duplicate that report transitively.
    """
    def legal(src: str, dst: str) -> bool:
        allowed = config.layers.get(src)
        if allowed is None:
            return False  # no table row: DOM202's report
        return "*" in allowed or dst in allowed

    return {
        pair: site for pair, site in edges.items()
        if legal(*pair) or pair in suppressed
    }


def _successors(edges: EdgeMap) -> Dict[str, List[str]]:
    succ: Dict[str, List[str]] = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
        succ.setdefault(dst, [])
    for dsts in succ.values():
        dsts.sort()
    return succ


def _sccs(succ: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's strongly connected components, iteratively."""
    order: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = 0

    for root in sorted(succ):
        if root in order:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                order[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            children = succ[node]
            advanced = False
            for index in range(child_index, len(children)):
                child = children[index]
                if child not in order:
                    work.append((node, index + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], order[child])
            if advanced:
                continue
            if low[node] == order[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def _allowed_closure(config: "Config") -> Dict[str, Optional[Set[str]]]:
    """Transitive closure of the layers DAG per package.

    ``None`` means unconstrained (the package, or something it may
    reach, declares ``"*"``).
    """
    closure: Dict[str, Optional[Set[str]]] = {}
    for package in config.layers:
        if "*" in config.layers[package]:
            closure[package] = None
            continue
        reached: Set[str] = set()
        frontier = list(config.layers[package])
        unconstrained = False
        while frontier:
            dep = frontier.pop()
            if dep == "*" or "*" in config.layers.get(dep, ()):
                unconstrained = True
                break
            if dep in reached:
                continue
            reached.add(dep)
            frontier.extend(config.layers.get(dep, ()))
        closure[package] = None if unconstrained else reached
    return closure


def _shortest_path(succ: Dict[str, List[str]], src: str,
                   dst: str) -> List[str]:
    parent: Dict[str, str] = {}
    frontier = [src]
    seen = {src}
    while frontier:
        nxt: List[str] = []
        for node in frontier:
            for child in succ.get(node, ()):
                if child in seen:
                    continue
                seen.add(child)
                parent[child] = node
                if child == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                nxt.append(child)
        frontier = nxt
    return [src, dst]  # unreachable by construction


def check_transitive(index: ProgramIndex,
                     config: "Config") -> List[Finding]:
    """Cycle and transitive-reach findings over the package graph."""
    edges, suppressed = _package_graph(index, config)
    succ = _successors(edges)
    findings: List[Finding] = []

    # -- cycles ---------------------------------------------------------
    scc_of: Dict[str, int] = {}
    for number, component in enumerate(_sccs(succ)):
        for member in component:
            scc_of[member] = number
        in_cycle = len(component) > 1 or (
            len(component) == 1
            and (component[0], component[0]) in edges)
        if not in_cycle:
            continue
        loop = " -> ".join([*component, component[0]])
        for (src, dst), (path, site) in sorted(edges.items()):
            if src in component and dst in component:
                findings.append(Finding(
                    path=path, line=site.lineno, col=site.col,
                    rule="DOM203",
                    message=(
                        f"import cycle between packages: {loop}; "
                        f"this edge ({src} -> {dst}"
                        f"{', lazy' if site.lazy else ''}) keeps the "
                        f"cycle alive — break it by moving the shared "
                        f"type down a layer, or waive the edge in "
                        f"[tool.dominolint] transitive-waivers"
                    ),
                ))

    # -- transitive reach beyond the allowed closure --------------------
    # Walked over the legal+suppressed subgraph only: unsuppressed
    # illegal edges are DOM201's report, not a corridor to traverse.
    reach_edges = _reach_edges(config, edges, suppressed)
    succ = _successors(reach_edges)
    closure = _allowed_closure(config)
    for package in sorted(succ):
        if package not in closure:
            continue  # no table row — DOM202's job
        allowed = closure[package]
        if allowed is None:
            continue  # unconstrained ("*" reachable)
        reached: Set[str] = set()
        frontier = list(succ.get(package, ()))
        while frontier:
            node = frontier.pop()
            if node in reached or node == package:
                continue
            reached.add(node)
            frontier.extend(succ.get(node, ()))
        for target in sorted(reached):
            if target in allowed or target == package:
                continue
            if scc_of.get(target) == scc_of.get(package):
                continue  # already reported as a cycle
            chain = _shortest_path(succ, package, target)
            if len(chain) == 2:
                continue  # a direct edge — DOM201/DOM202 own that
            path, site = edges[(chain[0], chain[1])]
            findings.append(Finding(
                path=path, line=site.lineno, col=site.col,
                rule="DOM203",
                message=(
                    f"'{package}' transitively reaches '{target}' "
                    f"({' -> '.join(chain)}) but the layers DAG only "
                    f"allows {sorted(allowed) or 'nothing'}; add the "
                    f"missing layers rows or break the chain"
                ),
            ))

    return sorted(findings)


__all__ = ["check_layering", "check_transitive"]
