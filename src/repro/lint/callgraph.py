"""Whole-tree module facts: imports, clock/RNG reads, functions, calls.

Every rule that asks "what does this module import?" or "where does it
read the clock or an RNG?" answers from one record:

* :class:`ModuleFacts` is everything the import, source and flow rules
  need from one module, extracted in a single AST pass by
  :class:`_FactsExtractor` — the only code in the linter that reads
  import statements or classifies clock/RNG calls.  Phase 1 hands
  the records to phase 2 in memory.
* :class:`ProgramIndex` is the assembled whole-program view: the
  module table (whose import sites, *lazy* function-level imports
  included, form the package graph of :mod:`repro.lint.layering`) and
  the function table with call edges, which the taint engine
  (:mod:`repro.lint.taint`) runs its fixpoint over.

Call resolution is deliberately best-effort static: direct calls to
names imported with ``from m import f``, ``m.f(...)`` through a module
alias, local functions, and ``self.method(...)`` within a class body.
Unresolved calls are treated as taint-free — the engine under-reports
rather than guessing, the same trade every static taint tool makes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .taint import intra_taint, source_kind


@dataclass
class ImportEdge:
    """One import site, first- or third-party."""

    target: str               # absolute dotted path; ``pkg.*`` for a star
    lineno: int
    col: int
    lazy: bool                # inside a function body (deferred)
    type_checking: bool       # under ``if TYPE_CHECKING:`` (never runs)
    gated: bool               # in a ``try`` that catches ImportError


@dataclass
class SourceCall:
    """One direct wall-clock/RNG read, at any scope."""

    source: str               # a :data:`repro.lint.taint.SOURCES` label
    raw: str                  # the source spelling (for messages)
    lineno: int
    col: int


@dataclass
class CallSite:
    """One call expression inside a function body."""

    callee: Optional[str]     # resolved dotted target, or None
    raw: str                  # the source spelling (for messages)
    lineno: int
    col: int


@dataclass
class FunctionFacts:
    """Taint-relevant summary of one function or method."""

    qname: str                          # module-qualified dotted name
    lineno: int
    calls: List[CallSite] = field(default_factory=list)
    #: Taint kinds ("wallclock"/"rng") the return value derives from
    #: *directly* (a source call flowing into a return).
    direct_return_taint: List[str] = field(default_factory=list)
    #: Resolved callees whose return value flows into this function's
    #: return value — the interprocedural propagation edges.
    return_deps: List[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the cross-file phases need from one module."""

    module: str
    path: str                           # root-relative, for findings
    imports: List[ImportEdge] = field(default_factory=list)
    sources: List[SourceCall] = field(default_factory=list)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)


class _Scope:
    """Name bindings visible to call resolution in one module."""

    def __init__(self, module: str):
        self.module = module
        self.root = module.split(".")[0]
        #: local alias -> absolute dotted target ("np" -> "numpy",
        #: "perf_counter" -> "time.perf_counter", ...).
        self.aliases: Dict[str, str] = {}
        #: names defined as functions/classes at module level.
        self.module_defs: Dict[str, str] = {}

    def resolve(self, dotted: str) -> str:
        """Expand the leading alias of ``a.b.c`` if one is bound."""
        head, sep, rest = dotted.partition(".")
        if head in self.aliases:
            return self.aliases[head] + (sep + rest if rest else "")
        if head in self.module_defs and not rest:
            return self.module_defs[head]
        return dotted


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_type_checking_test(test: ast.AST) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING`` as an if-test."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _catches_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        types = handler.type
        if types is None:
            return True               # bare except swallows ImportError
        names = types.elts if isinstance(types, ast.Tuple) else [types]
        for name in names:
            label = (name.id if isinstance(name, ast.Name)
                     else name.attr if isinstance(name, ast.Attribute)
                     else None)
            if label in ("ImportError", "ModuleNotFoundError"):
                return True
    return False


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: Optional[str]) -> Optional[str]:
    """Absolute module for a ``from ... import`` with ``level`` dots.

    ``module`` is the importing module's dotted name (``__init__``
    already stripped, so a package's ``__init__`` carries the package
    name itself — hence ``is_package``).  Returns ``None`` when the
    relative import escapes the tree.
    """
    if level == 0:
        return target
    # Relative imports resolve against the importer's __package__: the
    # module's own package for one dot, one component up per extra dot.
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    for _ in range(level - 1):
        if not parts:
            return None
        parts = parts[:-1]
    if target:
        parts = [*parts, *target.split(".")]
    return ".".join(parts) if parts else None


class _FactsExtractor(ast.NodeVisitor):
    """The one reader of import statements and clock/RNG calls.

    The visit records import sites, binds names and collects every
    call and top-level function; :meth:`finish` then classifies the
    calls and summarizes the functions against the module's complete
    bindings, so a call resolves against every import in the module,
    not just the ones lexically above it.  The first binding of a name
    wins.
    """

    def __init__(self, facts: ModuleFacts, is_package: bool):
        self.facts = facts
        self.is_package = is_package
        self.scope = _Scope(facts.module)
        self._func_depth = 0
        self._type_checking = 0
        self._gated = 0
        self._class_stack: List[str] = []
        self._calls: List[ast.Call] = []
        self._functions: List[Tuple[str, ast.AST, Optional[str]]] = []

    # -- imports --------------------------------------------------------
    def _record_import(self, node: ast.stmt, target: str) -> None:
        self.facts.imports.append(ImportEdge(
            target=target, lineno=node.lineno, col=node.col_offset,
            lazy=self._func_depth > 0,
            type_checking=self._type_checking > 0,
            gated=self._gated > 0,
        ))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record_import(node, alias.name)
            head = alias.name.split(".")[0]
            self.scope.aliases.setdefault(
                alias.asname or head, alias.name if alias.asname else head)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _resolve_relative(self.facts.module, self.is_package,
                                 node.level, node.module)
        if base is None:
            return
        for alias in node.names:
            # ``from repro import telemetry`` imports a *subpackage*, so
            # ``base.name`` is the real edge.  For attribute imports
            # (``from .engine import Simulator``) the extra leaf is
            # harmless — package mapping is prefix-based.
            target = f"{base}.{alias.name}"
            self._record_import(node, target)
            if alias.name != "*":
                self.scope.aliases.setdefault(alias.asname or alias.name,
                                              target)

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking += 1
            for child in node.body:
                self.visit(child)
            self._type_checking -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        if _catches_import_error(node):
            self._gated += 1
            for child in node.body:
                self.visit(child)
            self._gated -= 1
            for group in (node.handlers, node.orelse, node.finalbody):
                for child in group:
                    self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._calls.append(node)
        self.generic_visit(node)

    # -- definitions ----------------------------------------------------
    def _qualify(self, name: str) -> str:
        if self._class_stack:
            return ".".join([self.facts.module, *self._class_stack, name])
        return f"{self.facts.module}.{name}"

    def _define(self, node: Any) -> None:
        """Bind a module-level def; visit its header in outer scope."""
        if self._func_depth == 0 and not self._class_stack:
            self.scope.module_defs.setdefault(node.name,
                                              self._qualify(node.name))
        for name, value in ast.iter_fields(node):
            if name == "body":
                continue
            for child in (value if isinstance(value, list) else [value]):
                if isinstance(child, ast.AST):
                    self.visit(child)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._define(node)
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def _visit_func(self, node: Any) -> None:
        self._define(node)
        if self._func_depth == 0:
            self._functions.append((
                self._qualify(node.name), node,
                self._class_stack[-1] if self._class_stack else None))
        self._func_depth += 1
        for child in node.body:
            self.visit(child)
        self._func_depth -= 1

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- classification -------------------------------------------------
    def finish(self) -> None:
        """Classify source calls; summarize top-level functions."""
        sources: Dict[ast.Call, str] = {}
        for call in self._calls:
            raw = dotted_name(call.func)
            if raw is None:
                continue
            source = source_kind(self.scope.resolve(raw), call)
            if source is not None:
                sources[call] = source
                self.facts.sources.append(SourceCall(
                    source, raw, call.lineno, call.col_offset))
        for qname, node, cls in self._functions:
            self.facts.functions[qname] = summarize_function(
                qname, node, self.scope, cls, sources)


# ----------------------------------------------------------------------
# Function summaries (the intra-procedural half of the taint engine
# lives in taint.py; this records call sites for the call graph)
# ----------------------------------------------------------------------
def resolve_call(dotted: str, scope: _Scope,
                 cls: Optional[str]) -> Optional[str]:
    """Best-effort static target of one call spelling, or ``None``."""
    if dotted.startswith("self.") and cls is not None:
        method = dotted[len("self."):]
        if "." not in method:
            return f"{scope.module}.{cls}.{method}"
        return None
    resolved = scope.resolve(dotted)
    if resolved.split(".")[0] == scope.root:
        return resolved
    return None


def summarize_function(qname: str, node: ast.AST, scope: _Scope,
                       cls: Optional[str],
                       sources: Dict[ast.Call, str]) -> FunctionFacts:
    """Call sites + intra-procedural taint summary of one function."""
    facts = FunctionFacts(qname=qname, lineno=getattr(node, "lineno", 1))
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        dotted = dotted_name(child.func)
        if dotted is None:
            continue
        facts.calls.append(CallSite(
            callee=resolve_call(dotted, scope, cls), raw=dotted,
            lineno=child.lineno, col=child.col_offset))
    direct, ret_deps = intra_taint(node, scope, cls, sources)
    facts.direct_return_taint = sorted(direct)
    facts.return_deps = sorted(ret_deps)
    return facts


def extract_facts(tree: ast.AST, module: str, path: str,
                  is_package: bool) -> ModuleFacts:
    """All cross-file facts for one parsed module."""
    facts = ModuleFacts(module=module, path=path)
    extractor = _FactsExtractor(facts, is_package)
    extractor.visit(tree)
    extractor.finish()
    return facts


# ----------------------------------------------------------------------
# The assembled whole-program view
# ----------------------------------------------------------------------
class ProgramIndex:
    """Modules and functions of the whole src tree."""

    def __init__(self, modules: Dict[str, ModuleFacts]):
        self.modules = modules
        self.functions: Dict[str, FunctionFacts] = {}
        for facts in modules.values():
            self.functions.update(facts.functions)
        #: Modules with at least one child module (re-export hubs).
        self._packages = {module.rpartition(".")[0]
                          for module in modules} & set(modules)

    def module_of_function(self, qname: str) -> Optional[str]:
        """Longest known module prefix of a function qname."""
        parts = qname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    def resolve_function(self, target: str) -> Optional[FunctionFacts]:
        """A callee target to its function facts, if defined in-tree.

        Handles the ``package.attr`` spelling produced when a name is
        imported from a package ``__init__`` re-export hub by also
        trying the bare function name against every module that ends
        with the package path — cheap, and re-export hubs are few.
        """
        if target in self.functions:
            return self.functions[target]
        # ``pkg.sub.f`` where ``pkg.sub`` re-exports f from a child.
        module, _, name = target.rpartition(".")
        if module in self._packages:
            for facts in self.modules.values():
                if facts.module.startswith(module + "."):
                    candidate = f"{facts.module}.{name}"
                    if candidate in self.functions:
                        return self.functions[candidate]
        return None


def build_index(facts_list: Sequence[ModuleFacts]) -> ProgramIndex:
    return ProgramIndex({facts.module: facts for facts in facts_list})


__all__ = [
    "CallSite", "FunctionFacts", "ImportEdge", "ModuleFacts",
    "ProgramIndex", "SourceCall", "build_index", "dotted_name",
    "extract_facts", "summarize_function",
]
