"""dominolint's CLI: discovery, the two lint phases, output, exit codes.

v2 runs in two phases:

1. **Per-file** — extraction of the module's facts (import sites,
   clock/RNG calls, function summaries; :mod:`repro.lint.callgraph`),
   the import rules read off those facts (DOM201/DOM202 layering,
   DOM401 deps) and the syntactic families (DOM103/DOM104
   determinism, DOM3xx telemetry, DOM5xx async/pool).  Each file is
   parsed exactly once per run.
2. **Whole-program** — DOM101/DOM102 (wall-clock and RNG values
   reaching sim code, directly or through call hops) over the
   :class:`ProgramIndex` built in memory from the phase-1 facts of
   *every* module under ``src-root``, regardless of which paths were
   requested; findings are then kept only on the requested files,
   through each file's phase-1 :class:`Suppressions`, so
   ``python -m repro.lint src/repro/sim`` still sees taint arriving
   from a helper in another package.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Set,
                    TextIO, Tuple)

from .callgraph import ModuleFacts, ProgramIndex, build_index, extract_facts
from .config import Config, ConfigError, load_config
from .deps import check_dependencies
from .determinism import check_determinism
from .findings import Finding, Suppressions
from .layering import check_layering
from .rules_async import check_async
from .sarif import render_sarif
from .schema import (SchemaError, SchemaRegistry, check_baseline,
                     check_emissions, load_registry, write_baseline)
from .taint import check_taint

#: Exit codes, matching the doctor CLI convention.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_BAD_INPUT = 2

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, deterministically ordered.

    Skipped directories are judged below each walked path only, so a
    checkout that itself sits under, say, ``.venv`` still lints.
    """
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        else:
            for candidate in sorted(path.rglob("*.py")):
                below = candidate.relative_to(path).parts
                if not _SKIP_DIRS.intersection(below):
                    yield candidate


def _relpath(path: Path, root: Path) -> str:
    try:
        return str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        return str(path)


def analyze_source(source: str, path: Path, config: Config,
                   registry: SchemaRegistry,
                   ) -> Tuple[List[Finding], Optional[ModuleFacts],
                              Suppressions]:
    """Phase-1 output for one file: findings, facts, suppressions.

    Findings come back post-suppression, except layering findings,
    which no comment silences; the file's :class:`Suppressions` come
    back too, so phase 2 filters its findings through the same object.
    Raises ``SyntaxError`` upward.
    """
    tree = ast.parse(source, filename=str(path))
    rel = _relpath(path, config.root)
    module = config.module_name(path)
    suppressions = Suppressions(source)
    findings: List[Finding] = []
    layering: List[Finding] = []
    facts: Optional[ModuleFacts] = None
    if module is not None:
        facts = extract_facts(tree, module, rel,
                              path.name == "__init__.py")
        if config.in_sim_packages(module):
            findings.extend(check_determinism(tree, rel))
            findings.extend(check_dependencies(facts, config))
        layering = check_layering(facts, config)
        findings.extend(check_emissions(tree, rel, registry))
        findings.extend(check_async(tree, module, rel, config))
    return [*suppressions.filter(findings), *layering], facts, suppressions


def _whole_program_findings(index: ProgramIndex, config: Config,
                            targets: Dict[str, Suppressions],
                            ) -> List[Finding]:
    """Phase 2, kept on the requested files through their suppressions.

    ``targets`` maps each requested file's root-relative path to the
    :class:`Suppressions` phase 1 read from it.
    """
    return [finding for finding in check_taint(index, config)
            if finding.path in targets
            and targets[finding.path].allows(finding)]


def lint_paths(paths: List[Path], config: Config,
               update_baseline: bool = False,
               stderr: Optional[TextIO] = None,
               output_format: str = "text",
               stdout: Optional[TextIO] = None) -> int:
    """Lint ``paths``; print findings; return exit code.

    Human output goes to ``stderr`` (the default format); with
    ``output_format="sarif"`` the findings render as one SARIF 2.1.0
    document on ``stdout`` instead, while diagnostics stay on stderr.
    A missing path, or paths holding no ``.py`` file, is bad input.
    """
    if stderr is None:  # bind at call time so capture/redirection works
        stderr = sys.stderr
    if stdout is None:
        stdout = sys.stdout
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"dominolint: no such path: {path}", file=stderr)
        return EXIT_BAD_INPUT
    target_files = list(iter_python_files(paths))
    if not target_files:
        listed = " ".join(str(path) for path in paths)
        print(f"dominolint: no Python files under {listed}", file=stderr)
        return EXIT_BAD_INPUT

    try:
        registry = load_registry(config)
    except SchemaError as exc:
        print(f"dominolint: {exc}", file=stderr)
        return EXIT_BAD_INPUT

    # Phase-1 worklist: requested files first, then the rest of the
    # src tree (facts only — the dataflow phase needs the whole view).
    seen: Set[Path] = set()
    worklist: List[Tuple[Path, bool]] = []
    for path in target_files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            worklist.append((path, True))
    if config.src_root.is_dir():
        for path in iter_python_files([config.src_root]):
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                worklist.append((path, False))

    findings: List[Finding] = []
    facts_list: List[ModuleFacts] = []
    targets: Dict[str, Suppressions] = {}
    bad_input = False
    for path, is_target in worklist:
        try:
            data = path.read_bytes()
        except OSError as exc:
            if is_target:
                print(f"dominolint: cannot read {path}: {exc}",
                      file=stderr)
                bad_input = True
            continue
        rel = _relpath(path, config.root)
        try:
            file_findings, facts, suppressions = analyze_source(
                data.decode(), path, config, registry)
        except (SyntaxError, UnicodeDecodeError) as exc:
            if is_target:
                lineno = getattr(exc, "lineno", None) or 0
                msg = getattr(exc, "msg", None) or str(exc)
                print(f"dominolint: cannot parse {rel}:"
                      f"{lineno}: {msg}", file=stderr)
                bad_input = True
            continue
        if facts is not None:
            facts_list.append(facts)
        if is_target:
            findings.extend(file_findings)
            targets[rel] = suppressions

    findings.extend(_whole_program_findings(
        build_index(facts_list), config, targets))

    if update_baseline:
        write_baseline(registry, config)
    else:
        rel_events = _relpath(config.schema_events, config.root)
        baseline_findings = check_baseline(registry, config, rel_events)
        events_suppressions = Suppressions(config.schema_events.read_text())
        findings.extend(events_suppressions.filter(baseline_findings))

    final = sorted(set(findings))
    if output_format == "sarif":
        print(render_sarif(final), file=stdout)
    else:
        for finding in final:
            print(finding.render(), file=stderr)
    if bad_input:
        return EXIT_BAD_INPUT
    return EXIT_FINDINGS if final else EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "dominolint: determinism, layering, telemetry-schema and "
            "async-safety checks for the DOMINO reproduction"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--format", choices=("text", "sarif"), default="text",
        help="findings output: human text on stderr (default) or one "
             "SARIF 2.1.0 document on stdout")
    parser.add_argument(
        "--update-schema-baseline", action="store_true",
        help="rewrite the committed schema fingerprint from the live "
             "events.py registry (run after a deliberate schema change)")
    args = parser.parse_args(argv)
    try:
        config = load_config()
    except ConfigError as exc:
        print(f"dominolint: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    paths = [Path(p) for p in args.paths]
    return lint_paths(paths, config,
                      update_baseline=args.update_schema_baseline,
                      output_format=args.format)
