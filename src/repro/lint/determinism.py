"""DOM103/DOM104 — the per-file determinism rules for sim-logic layers.

Everything the scheduler, MAC and event loop compute must be a pure
function of the seed.  Wall-clock and RNG values reaching sim code
(DOM101/DOM102) are judged from the module facts in
:mod:`repro.lint.taint`; the two patterns left here need only the
syntax of one file:

DOM103
    Iterating a bare ``set``/``frozenset`` (literals, constructors,
    set algebra).  Set order depends on insertion history and hash
    randomization of prior runs' object identities; feed iteration
    order into a scheduling decision and runs diverge.  Wrap the
    iterable in ``sorted(...)``.
DOM104
    ``==``/``!=`` between float sim timestamps.  Timestamps are sums
    of float durations; exact equality silently depends on summation
    order.  Compare with an epsilon, or order with ``<``/``<=``.
"""

from __future__ import annotations

import ast
from typing import List

from .findings import Finding

#: Attribute names with float-timestamp semantics in this codebase.
_TIMESTAMP_ATTRS = {"time", "now", "t", "timestamp", "deadline",
                    "start", "end", "t_us", "start_us", "end_us"}
_TIMESTAMP_NAMES = {"now", "t", "t0", "t1"}

#: Set-returning methods; only set/frozenset define these in stdlib.
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference"}


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically set-typed: literal, constructor, or set algebra."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and \
                node.func.id in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _SET_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_timestampish(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _TIMESTAMP_ATTRS
    if isinstance(node, ast.Name):
        return node.id in _TIMESTAMP_NAMES
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        ))

    # -- DOM103: unordered iteration ------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_iterable(self, iterable: ast.AST) -> None:
        if _is_set_expr(iterable):
            self._flag(
                iterable, "DOM103",
                "iterating a bare set: element order is not deterministic "
                "across runs; wrap the iterable in sorted(...)",
            )

    # -- DOM104: float timestamp equality -------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_timestampish(left) and _is_timestampish(right):
                self._flag(
                    node, "DOM104",
                    "exact ==/!= between float sim timestamps depends on "
                    "float summation order; compare with a tolerance or "
                    "order with < / <=",
                )
                break
        self.generic_visit(node)


def check_determinism(tree: ast.AST, path: str) -> List[Finding]:
    """DOM103/DOM104 findings for one sim-logic module."""
    visitor = _DeterminismVisitor(path)
    visitor.visit(tree)
    return visitor.findings
