"""DOM101/DOM102 — wall-clock and RNG values reaching sim code.

Everything the scheduler, MAC and event loop compute must be a pure
function of the seed: the digest tests (byte-identical JSONL per seed)
and everything built on them — conversion caching, parallel sweeps,
causal spans — depend on it.  One rule per hazard:

DOM101
    A wall-clock or process-unique value (``time.time``,
    ``perf_counter``, ``datetime.now``, ``uuid.uuid4``...) reaches sim
    code: a sim module imports ``time``/``uuid``, calls a source
    directly, or calls a first-party function whose return value
    derives from one — through any number of assignments, returns and
    call hops.  Profiling belongs in the telemetry layer
    (``repro.telemetry.wallclock``), never in sim logic.
DOM102
    The same for process-global or unseeded randomness (``random.*``
    module functions, ``random.Random()`` with no seed,
    ``np.random.*``).  Every stream must derive from ``Simulator.rng``
    or an explicit seed — the
    ``random.Random(sim.rng.getrandbits(64))`` ownership pattern.

Sources are classified once, by :func:`source_kind`, on the
alias-resolved spelling the facts extractor hands it: ``from time
import perf_counter as pc; pc()`` is a read, a sanitizer accessor
imported under a clock-like name is not.  Hop chains come from a
classic two-level summary analysis:

* **intra** (:func:`intra_taint`): per function, a flow-insensitive
  fixpoint over local assignments answers "does the return value
  derive from a direct source call, and/or from which callees'
  return values?"  Argument taint is folded into call results, so
  ``str(time.time())`` stays tainted.
* **inter** (:func:`propagate`): the summaries form a dependency
  graph; propagate source kinds along ``return_deps`` edges to a
  fixpoint.  Functions living in a configured *sanitizer* module
  (``taint-sanitizers``, canonically ``repro.telemetry.wallclock``)
  contribute nothing — that module is the one blessed clock boundary,
  and its contract (readings feed metrics, never sim state) is
  enforced by review, not dataflow.

Known under-approximations, on purpose: parameters are untainted
(taint enters sim code only through calls, which is where the finding
lands anyway), attribute stores are not tracked across objects, and
unresolvable calls are assumed clean.  A determinism linter must not
cry wolf; the runtime digest oracles remain the backstop.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .callgraph import ProgramIndex, _Scope
    from .config import Config

#: Taint kinds and the rule each maps to.
KIND_WALLCLOCK = "wallclock"
KIND_RNG = "rng"
KIND_RULES = {KIND_WALLCLOCK: "DOM101", KIND_RNG: "DOM102"}

#: Fully-resolved dotted calls that read the wall clock or mint
#: process-unique values.
_WALLCLOCK_SOURCES = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "uuid.uuid1", "uuid.uuid4",
}
#: ``<datetime-ish>.now()`` / ``.utcnow()`` / ``.today()`` receivers.
_DATETIME_ROOTS = {"datetime", "date"}
_DATETIME_METHODS = {"now", "utcnow", "today"}

#: ``random.<fn>`` names on the hidden process-global stream.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "sample", "shuffle", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
    "seed",
}

#: Source label (what :func:`source_kind` returns) -> (taint kind,
#: what the direct-read finding says after the call's spelling).
SOURCES: Dict[str, Tuple[str, str]] = {
    "clock": (KIND_WALLCLOCK,
              "reads the wall clock (or mints a process-unique id); sim "
              "logic must derive every value from sim.now or the seeded "
              "RNG"),
    "datetime": (KIND_WALLCLOCK,
                 "reads the wall clock; sim logic must use sim.now "
                 "(microseconds since run start)"),
    "global-rng": (KIND_RNG,
                   "uses the process-global RNG; derive an owned stream: "
                   "random.Random(sim.rng.getrandbits(64))"),
    "unseeded": (KIND_RNG,
                 "without a seed draws entropy from the OS; pass a seed "
                 "derived from Simulator.rng"),
    "numpy": (KIND_RNG,
              "uses numpy's process-global RNG state; use "
              "np.random.default_rng(seed) with an explicit seed or draw "
              "from a random.Random owned by the simulator"),
}

#: A taint token: a source kind, or a dependency on a callee's return.
Token = Union[str, Tuple[str, str]]


def source_kind(resolved: str, call: ast.Call) -> Optional[str]:
    """The :data:`SOURCES` label of a direct source call, or ``None``.

    ``resolved`` is the call's spelling with its leading import alias
    expanded, so the table only lists canonical names.
    """
    parts = resolved.split(".")
    if resolved in _WALLCLOCK_SOURCES:
        return "clock"
    if (len(parts) >= 2 and parts[-1] in _DATETIME_METHODS
            and parts[-2] in _DATETIME_ROOTS):
        return "datetime"
    if len(parts) == 2 and parts[0] == "random" \
            and parts[1] in _GLOBAL_RANDOM_FNS:
        return "global-rng"
    if resolved == "random.Random" and not call.args and not call.keywords:
        return "unseeded"
    if len(parts) >= 3 and parts[0] == "numpy" and parts[1] == "random":
        if parts[2] == "default_rng" and (call.args or call.keywords):
            return None  # explicitly seeded generator
        return "numpy"
    return None


def _banned_import(target: str) -> Optional[Tuple[str, str]]:
    """(rule, message) for a sim-module import of a source module."""
    head, _, name = target.partition(".")
    if target in ("time", "uuid"):
        return "DOM101", (
            f"sim-logic layers must not import '{target}': wall-clock "
            f"and process-unique values break the byte-identical-per-seed "
            f"contract (route timing through repro.telemetry instead)")
    if head == "time":
        return "DOM101", (
            "sim-logic layers must not import from 'time': wall-clock "
            "reads vary run to run (route timing through "
            "repro.telemetry instead)")
    if head == "uuid":
        return "DOM101", (
            "sim-logic layers must not import from 'uuid': uuids are "
            "process-unique and poison deterministic traces")
    if head == "random" and name in _GLOBAL_RANDOM_FNS:
        return "DOM102", (
            f"'from random import {name}' binds the process-global RNG "
            f"stream; derive a seeded random.Random from Simulator.rng "
            f"instead")
    return None


class _IntraTaint:
    """Flow-insensitive local taint environment for one function."""

    def __init__(self, scope: "_Scope", cls: Optional[str],
                 sources: Dict[ast.Call, str]):
        self.scope = scope
        self.cls = cls
        self.sources = sources
        self.env: Dict[str, Set[Token]] = {}
        self.returned: Set[Token] = set()

    # -- expressions ----------------------------------------------------
    def expr(self, node: Optional[ast.AST]) -> Set[Token]:
        if node is None:
            return set()
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            return self.expr(node.value)
        if isinstance(node, ast.Await):
            return self.expr(node.value)
        if isinstance(node, ast.BinOp):
            return self.expr(node.left) | self.expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.expr(node.operand)
        if isinstance(node, ast.BoolOp):
            out: Set[Token] = set()
            for value in node.values:
                out |= self.expr(value)
            return out
        if isinstance(node, ast.IfExp):
            return self.expr(node.body) | self.expr(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for elt in node.elts:
                out |= self.expr(elt)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for value in node.values:
                out |= self.expr(value)
            return out
        if isinstance(node, ast.Subscript):
            return self.expr(node.value)
        if isinstance(node, ast.Starred):
            return self.expr(node.value)
        if isinstance(node, ast.NamedExpr):
            taints = self.expr(node.value)
            if isinstance(node.target, ast.Name):
                self.env.setdefault(node.target.id, set()).update(taints)
            return taints
        return set()

    def _call(self, node: ast.Call) -> Set[Token]:
        from .callgraph import dotted_name, resolve_call

        out: Set[Token] = set()
        source = self.sources.get(node)
        if source is not None:
            out.add(SOURCES[source][0])
        else:
            dotted = dotted_name(node.func)
            callee = None if dotted is None \
                else resolve_call(dotted, self.scope, self.cls)
            if callee is not None:
                out.add(("dep", callee))
        # A function of a tainted value is tainted (str(), round(), ...).
        for arg in node.args:
            out |= self.expr(arg)
        for keyword in node.keywords:
            out |= self.expr(keyword.value)
        return out

    # -- statements -----------------------------------------------------
    def statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes summarize separately
        if isinstance(stmt, ast.Assign):
            taints = self.expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, taints)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taints = self.expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                taints |= self.env.get(stmt.target.id, set())
            self._bind(stmt.target, taints)
        elif isinstance(stmt, ast.Return):
            self.returned |= self.expr(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self.expr(stmt.iter))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(item.optional_vars,
                               self.expr(item.context_expr))
        elif isinstance(stmt, ast.Expr):
            self.expr(stmt.value)  # walrus side effects
        # Compound bodies are walked by the driver below.

    def _bind(self, target: ast.AST, taints: Set[Token]) -> None:
        if isinstance(target, ast.Name):
            if taints:
                self.env.setdefault(target.id, set()).update(taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taints)
        # Attribute/subscript stores are not tracked (see module doc).


def _body_statements(node: ast.AST) -> List[ast.stmt]:
    """All statements of a function, skipping nested scopes' bodies."""
    out: List[ast.stmt] = []
    frontier: List[ast.stmt] = list(getattr(node, "body", []))
    while frontier:
        stmt = frontier.pop(0)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        out.append(stmt)
        for field in ("body", "orelse", "finalbody"):
            frontier.extend(getattr(stmt, field, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            frontier.extend(handler.body)
        for case in getattr(stmt, "cases", []) or []:
            frontier.extend(case.body)
    return out


def intra_taint(func: ast.AST, scope: "_Scope", cls: Optional[str],
                sources: Dict[ast.Call, str],
                ) -> Tuple[Set[str], Set[str]]:
    """(direct source kinds, callee deps) flowing into the return.

    ``sources`` maps the module's source calls to their labels, as
    classified once by the facts extractor.

    Iterates the statement list to a fixpoint so use-before-def order
    and loops don't hide a flow; bounded to a handful of rounds — the
    lattice height is tiny.
    """
    statements = _body_statements(func)
    analysis = _IntraTaint(scope, cls, sources)
    for _ in range(8):
        before = {name: set(tokens)
                  for name, tokens in analysis.env.items()}
        returned_before = set(analysis.returned)
        for stmt in statements:
            analysis.statement(stmt)
        if analysis.env == before and analysis.returned == returned_before:
            break
    direct = {token for token in analysis.returned
              if isinstance(token, str)}
    deps = {token[1] for token in analysis.returned
            if isinstance(token, tuple)}
    return direct, deps


# ----------------------------------------------------------------------
# Interprocedural propagation + the sim-layer check
# ----------------------------------------------------------------------
def propagate(index: "ProgramIndex", config: "Config",
              ) -> Tuple[Dict[str, Set[str]], Dict[str, Dict[str, Optional[str]]]]:
    """Fixpoint of return-taint kinds over the call-dependency graph.

    Returns ``(kinds, provenance)`` where ``provenance[f][kind]`` is
    the callee the kind arrived through (``None`` for a direct source
    read) — enough to render the laundering chain in a finding.
    """
    kinds: Dict[str, Set[str]] = {}
    provenance: Dict[str, Dict[str, Optional[str]]] = {}

    def is_sanitized(qname: str) -> bool:
        module = index.module_of_function(qname)
        return module is not None and config.is_sanitizer(module)

    for qname, facts in index.functions.items():
        if is_sanitized(qname):
            kinds[qname] = set()
            continue
        kinds[qname] = set(facts.direct_return_taint)
        provenance[qname] = {kind: None
                             for kind in facts.direct_return_taint}

    changed = True
    while changed:
        changed = False
        for qname, facts in index.functions.items():
            if is_sanitized(qname):
                continue
            for dep in facts.return_deps:
                resolved = index.resolve_function(dep)
                if resolved is None or is_sanitized(resolved.qname):
                    continue
                for kind in kinds.get(resolved.qname, ()):
                    if kind not in kinds[qname]:
                        kinds[qname].add(kind)
                        provenance.setdefault(qname, {})[kind] = \
                            resolved.qname
                        changed = True
    return kinds, provenance


def _chain(qname: str, kind: str,
           provenance: Dict[str, Dict[str, Optional[str]]],
           limit: int = 6) -> List[str]:
    """The laundering path from ``qname`` down to the direct source."""
    path = [qname]
    current: Optional[str] = qname
    while current is not None and len(path) <= limit:
        nxt = provenance.get(current, {}).get(kind)
        if nxt is None:
            break
        path.append(nxt)
        current = nxt
    return path


_SOURCE_LABEL = {
    KIND_WALLCLOCK: "the wall clock",
    KIND_RNG: "the process-global/unseeded RNG",
}


def check_taint(index: "ProgramIndex", config: "Config") -> List[Finding]:
    """DOM101/DOM102 in sim modules: banned imports, direct source
    calls, and calls whose callee returns a tainted value."""
    kinds, provenance = propagate(index, config)
    sanitizers = ", ".join(config.taint_sanitizers) \
        or "a sanctioned telemetry accessor"
    findings: List[Finding] = []
    for module in sorted(index.modules):
        if not config.in_sim_packages(module):
            continue
        facts = index.modules[module]
        for edge in facts.imports:
            banned = _banned_import(edge.target)
            if banned is not None:
                findings.append(Finding(facts.path, edge.lineno, edge.col,
                                        *banned))
        for call in facts.sources:
            kind, reason = SOURCES[call.source]
            findings.append(Finding(facts.path, call.lineno, call.col,
                                    KIND_RULES[kind],
                                    f"'{call.raw}()' {reason}"))
        for qname in sorted(facts.functions):
            for site in facts.functions[qname].calls:
                if site.callee is None:
                    continue
                resolved = index.resolve_function(site.callee)
                if resolved is None:
                    continue
                callee_module = index.module_of_function(resolved.qname)
                if callee_module is None or \
                        config.is_sanitizer(callee_module):
                    continue
                for kind in sorted(kinds.get(resolved.qname, ())):
                    chain = _chain(resolved.qname, kind, provenance)
                    findings.append(Finding(
                        path=facts.path,
                        line=site.lineno,
                        col=site.col,
                        rule=KIND_RULES[kind],
                        message=(
                            f"'{site.raw}()' returns a value derived "
                            f"from {_SOURCE_LABEL[kind]} "
                            f"(via {' -> '.join(chain)}); sim logic "
                            f"must stay a pure function of the seed "
                            f"even across call hops — route the read "
                            f"through {sanitizers} or derive it from "
                            f"sim.now / the seeded RNG"
                        ),
                    ))
    return findings


__all__ = [
    "KIND_RNG", "KIND_RULES", "KIND_WALLCLOCK", "SOURCES", "check_taint",
    "intra_taint", "propagate", "source_kind",
]
