"""dominolint — the repo's determinism & layering static-analysis pass.

The DOMINO reproduction's central invariant is that a simulator run is
a pure function of its seed: conversion caching, parallel sweeps and
causal spans (PRs 3-4) are only sound because two runs with the same
seed export byte-identical traces.  End-to-end digest tests catch a
broken invariant *after the fact*; dominolint rejects the source
patterns that break it *at commit time*:

* **Determinism rules (DOM1xx)** — wall-clock values (DOM101) and
  unseeded or process-global RNG values (DOM102) reaching the
  sim-logic layers, whether read directly or laundered through helper
  calls (per-function summaries over a module call graph track them, with
  ``repro.telemetry.wallclock`` as the blessed sanitizer); unordered
  ``set`` iteration (DOM103) and float-timestamp equality (DOM104).
* **Layering rules (DOM2xx)** — the allowed-dependency DAG between
  ``repro.*`` packages, declared in ``[tool.dominolint.layers]`` in
  ``pyproject.toml``; an import edge not in the table is an error
  (DOM201), and so is a package with no row (DOM202).  No inline
  comment silences them, and a table whose non-``"*"`` rows form a
  cycle or name a ``"*"`` package is bad input, so legal edges never
  chain into a cycle or a transitive escape.
* **Telemetry-schema rules (DOM3xx)** — every event emission in
  ``src/`` must name a kind registered in
  :mod:`repro.telemetry.events` with a matching shape, and changing an
  event's shape without bumping ``SCHEMA_VERSION`` is an error.
* **Dependency rules (DOM4xx)** — third-party imports in the sim
  packages must appear in ``[project] dependencies`` (or hide behind
  ``TYPE_CHECKING`` / a ``try/except ImportError`` gate), so a clean
  install can always import the simulation core.
* **Async/concurrency rules (DOM5xx)** — in the asyncio service
  packages, guarded controller/registry state must not mutate across
  an ``await`` boundary outside a lock/epoch guard (DOM501), task
  handles must be retained (DOM502), and only picklable module-level
  functions may cross the process-pool boundary (DOM503).

Every rule that looks at imports or clock/RNG calls reads them from one
per-module fact record (:class:`repro.lint.callgraph.ModuleFacts`),
extracted in one pass per file and handed to the whole-program rules
in memory.

Run it as ``python -m repro.lint [paths]`` (paths default to ``src``).
Findings go to stderr as ``path:line:col: RULE message``; exit code 0
means clean, 1 means findings, 2 means bad input (unreadable path, no
Python file under the paths, syntax error, broken config) — the same
convention as the doctor CLI.
``--format sarif`` renders the findings as one SARIF 2.1.0 document on
stdout for CI code-scanning.

Suppress a deliberate violation on its own line::

    if self.time != other.time:  # dominolint: disable=DOM104

Multiple rules comma-separate (``disable=DOM101,DOM104``); ``all``
silences every rule on the line except the layering rules, whose
only exceptions are layers-table rows.  Each suppression should carry
a justifying comment — the escape hatch exists for the handful of
spots where the pattern is deliberate, not as a bulk mute.

The implementation is stdlib-only (``ast`` + ``tomllib``) on purpose:
the linter guards the dependency floor, so it must not raise it.
"""

from .config import Config, ConfigError, load_config
from .findings import Finding, Suppressions
from .runner import lint_paths, main

__all__ = [
    "Config",
    "ConfigError",
    "Finding",
    "Suppressions",
    "lint_paths",
    "load_config",
    "main",
]
