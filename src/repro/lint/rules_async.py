"""DOM5xx — async/concurrency rules for the service and runner planes.

The online controller (:mod:`repro.service`) and the ops plane
(:mod:`repro.telemetry.ops`) are long-running asyncio programs whose
shared state — the engine handle, the registry, caches — must only
change inside the synchronous epoch/revision protocol.  The runner
hands work to a process pool.  Three failure modes recur in that kind
of code and are invisible to per-statement linting:

DOM501
    An ``async def`` in an async-package mutates ``self.<guarded>``
    state on a statement that may execute *after* an ``await`` has
    yielded the event loop.  Whatever was read before the await can be
    stale; the mutation races with every other coroutine.  Mutations
    lexically inside a ``with``/``async with`` whose context manager
    names a lock/guard/epoch are exempt — that is the sanctioned
    pattern.
DOM502
    ``asyncio.create_task(...)`` (or ``ensure_future``) as a bare
    expression statement: the returned task is dropped, so exceptions
    vanish and the task can be garbage-collected mid-flight.  Keep a
    reference or use a task group.
DOM503
    A lambda, nested function, or bound method handed to a process
    pool's ``submit``/``map``: closures over parent state either fail
    to pickle or silently snapshot mutable state at fork time.  Pool
    entry points must be module-level functions.

All three are file-local (cacheable per content hash); the await
analysis runs on the statement CFG from :mod:`repro.lint.cfg`.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, List, Optional, Set

from .callgraph import dotted_name
from .cfg import await_crossed, build_cfg, guarded_statements
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .config import Config

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "add", "remove", "pop", "clear", "update", "extend",
    "insert", "discard", "setdefault", "popitem", "appendleft",
}

#: Pool hand-off method names (concurrent.futures + multiprocessing).
_POOL_SUBMIT_METHODS = {
    "submit", "map", "apply", "apply_async", "map_async", "starmap",
    "starmap_async", "imap", "imap_unordered",
}

#: Receiver name fragments that identify a pool/executor object.
_POOL_RECEIVER_FRAGMENTS = ("pool", "executor")

#: Receiver name fragments for structured-concurrency task groups,
#: which own their tasks — ``tg.create_task(...)`` is fine bare.
_TASK_GROUP_FRAGMENTS = ("tg", "group", "nursery")


# ----------------------------------------------------------------------
# DOM501 — guarded-state mutation across an await boundary
# ----------------------------------------------------------------------
def _guarded_root(node: ast.AST, guarded: Set[str]) -> Optional[str]:
    """``self.registry[...] .x`` -> ``"registry"`` if guarded, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if (isinstance(parent, ast.Name) and parent.id == "self"
                and isinstance(node, ast.Attribute)):
            attr = node.attr.lstrip("_")
            for root in guarded:
                if attr == root or attr.startswith(root + "_") \
                        or attr.endswith("_" + root):
                    return node.attr
            return None
        node = parent
    return None


def _mutations(stmt: ast.stmt, guarded: Set[str]) -> List[str]:
    """Guarded ``self`` attrs this *simple* statement mutates."""
    hits: List[str] = []
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            stack = [target]
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.Tuple, ast.List)):
                    stack.extend(node.elts)
                    continue
                if isinstance(node, ast.Starred):
                    stack.append(node.value)
                    continue
                root = _guarded_root(node, guarded)
                if root is not None:
                    hits.append(root)
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _MUTATOR_METHODS:
            root = _guarded_root(func.value, guarded)
            if root is not None:
                hits.append(root)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            root = _guarded_root(target, guarded)
            if root is not None:
                hits.append(root)
    return hits


def _check_await_mutations(func: ast.AsyncFunctionDef, path: str,
                           guarded: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    cfg = build_cfg(func)
    crossed = await_crossed(cfg)
    guard_lines = guarded_statements(func)
    for node in sorted(crossed):
        stmt = cfg.stmts[node]
        if not isinstance(stmt, ast.stmt):
            continue
        if stmt.lineno in guard_lines:
            continue
        for attr in _mutations(stmt, guarded):
            findings.append(Finding(
                path=path, line=stmt.lineno, col=stmt.col_offset,
                rule="DOM501",
                message=(
                    f"'self.{attr}' is mutated on a path that crosses "
                    f"an await boundary; the event loop may interleave "
                    f"other coroutines between the read and this write "
                    f"— move the mutation inside the epoch/revision "
                    f"guard (a 'with ...lock/guard:' block) or before "
                    f"the first await"
                ),
            ))
    return findings


# ----------------------------------------------------------------------
# DOM502 — fire-and-forget create_task
# ----------------------------------------------------------------------
def _check_fire_and_forget(tree: ast.AST, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)):
            continue
        dotted = dotted_name(node.value.func)
        if dotted is None or "." not in dotted:
            continue
        receiver, _, method = dotted.rpartition(".")
        if method not in ("create_task", "ensure_future"):
            continue
        lowered = receiver.split(".")[-1].lower()
        if any(fragment in lowered for fragment in _TASK_GROUP_FRAGMENTS):
            continue  # task groups own their children
        findings.append(Finding(
            path=path, line=node.lineno, col=node.col_offset,
            rule="DOM502",
            message=(
                f"'{dotted}(...)' result is discarded: the task can be "
                f"garbage-collected mid-flight and its exceptions are "
                f"lost — retain the handle (and await/cancel it on "
                f"shutdown) or use a task group"
            ),
        ))
    return findings


# ----------------------------------------------------------------------
# DOM503 — unpicklable callables handed to a process pool
# ----------------------------------------------------------------------
def _nested_def_names(tree: ast.AST) -> Set[str]:
    """Names of functions defined inside other functions."""
    nested: Set[str] = set()

    def visit(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if depth > 0:
                    nested.add(child.name)
                visit(child, depth + 1)
            else:
                visit(child, depth)

    visit(tree, 0)  # depth = number of enclosing function scopes
    return nested


def _check_pool_handoff(tree: ast.AST, path: str) -> List[Finding]:
    findings: List[Finding] = []
    nested = _nested_def_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _POOL_SUBMIT_METHODS):
            continue
        receiver = dotted_name(func.value) or ""
        lowered = receiver.split(".")[-1].lower()
        if not any(fragment in lowered
                   for fragment in _POOL_RECEIVER_FRAGMENTS):
            continue
        if not node.args:
            continue
        target = node.args[0]
        reason: Optional[str] = None
        if isinstance(target, ast.Lambda):
            reason = "a lambda"
        elif isinstance(target, ast.Name) and target.id in nested:
            reason = f"nested function '{target.id}'"
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target) or target.attr
            if dotted.startswith("self."):
                reason = f"bound method '{dotted}'"
        if reason is None:
            continue
        findings.append(Finding(
            path=path, line=target.lineno, col=target.col_offset,
            rule="DOM503",
            message=(
                f"{reason} is handed to '{receiver}.{func.attr}': "
                f"closures and bound methods either fail to pickle or "
                f"snapshot mutable parent state at fork time — pool "
                f"entry points must be module-level functions taking "
                f"explicit picklable arguments"
            ),
        ))
    return findings


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def check_async(tree: ast.AST, module: str, path: str,
                config: "Config") -> List[Finding]:
    """All DOM5xx findings for one parsed module."""
    findings: List[Finding] = []
    if config.in_async_packages(module):
        guarded = set(config.async_guarded_attrs)
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                findings.extend(
                    _check_await_mutations(node, path, guarded))
        findings.extend(_check_fire_and_forget(tree, path))
    if config.in_pool_packages(module):
        findings.extend(_check_pool_handoff(tree, path))
    return sorted(findings)


__all__ = ["check_async"]
