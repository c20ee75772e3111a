"""dominolint configuration: the ``[tool.dominolint]`` pyproject table.

The config is declarative on purpose — the layering DAG especially is
a *reviewed artifact*: adding an edge means editing ``pyproject.toml``
in the same diff as the import that needs it, which is exactly the
conversation a layering violation should force.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

try:  # Python >= 3.11; the lint gate runs on 3.12 in CI.
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback path
    tomllib = None  # type: ignore[assignment]


class ConfigError(RuntimeError):
    """Raised for a missing or malformed ``[tool.dominolint]`` table."""


@dataclass(frozen=True)
class Config:
    """Parsed ``[tool.dominolint]`` settings.

    Attributes
    ----------
    root:
        Repository root (the directory holding ``pyproject.toml``);
        every other path below is resolved against it.
    src_root:
        Import root — file paths under it map to dotted module names.
    sim_packages:
        Packages under the determinism contract (DOM1xx applies).
        Everything else — runner progress bars, benchmarks, telemetry's
        own wall-clock plumbing — is exempt by omission.
    layers:
        Allowed-dependency DAG: package -> packages it may import
        (besides itself and the distribution root, which every
        package may import).  ``"*"`` marks a top layer that may
        import anything; :func:`load_config` rejects a table whose
        other rows form a cycle or name a ``"*"`` package.
    schema_events / schema_recorder / schema_baseline:
        The telemetry schema's source of truth, the typed-helper
        signatures, and the committed shape fingerprint for DOM303.
    declared_deps:
        Canonicalized distribution names from ``[project]
        dependencies`` in the same ``pyproject.toml`` — the dependency
        floor DOM401 holds sim packages to.
    async_packages:
        Packages under the async-state contract (DOM501/DOM502):
        long-running asyncio services whose shared controller/registry
        state must only mutate inside the synchronous epoch guard.
    async_guarded_attrs:
        ``self.<attr>`` roots DOM501 treats as shared controller or
        registry state (the default names the conventional roles).
    pool_packages:
        Packages that hand work to a process pool (DOM503): callables
        crossing the pool boundary must be picklable module-level
        functions, not closures over mutable parent state.
    taint_sanitizers:
        Modules whose calls are *blessed* wall-clock/RNG boundaries —
        taint (DOM101/DOM102 call hops) does not propagate through them.  The
        repo's one sanctioned example is ``repro.telemetry.wallclock``.
    """

    root: Path
    src_root: Path
    sim_packages: Tuple[str, ...]
    layers: Dict[str, Tuple[str, ...]]
    schema_events: Path
    schema_recorder: Path
    schema_baseline: Path
    declared_deps: Tuple[str, ...] = ()
    async_packages: Tuple[str, ...] = ()
    async_guarded_attrs: Tuple[str, ...] = (
        "engine", "registry", "state", "controller", "cache")
    pool_packages: Tuple[str, ...] = ()
    taint_sanitizers: Tuple[str, ...] = ()

    def dep_declared(self, top_module: str) -> bool:
        """Is the top-level import name covered by a declared dep?

        Distribution names are matched case-insensitively with ``-``
        and ``.`` folded to ``_`` (the import-name convention); close
        enough for the scientific stack this repo draws on, where
        distribution and import names coincide.
        """
        return _canonical_dep(top_module) in self.declared_deps

    def module_name(self, path: Path) -> Optional[str]:
        """Dotted module for ``path``, or ``None`` if outside src_root."""
        try:
            rel = path.resolve().relative_to(self.src_root.resolve())
        except ValueError:
            return None
        parts = list(rel.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) if parts else None

    def package_of(self, module: str) -> str:
        """The layering unit a module belongs to (longest table match)."""
        best = ""
        for package in self.layers:
            if module == package or module.startswith(package + "."):
                if len(package) > len(best):
                    best = package
        if best:
            return best
        # Fall back to the top two dotted components so DOM202 can name
        # the package that needs a table row.
        parts = module.split(".")
        return ".".join(parts[:2])

    def in_sim_packages(self, module: str) -> bool:
        return _in_any(module, self.sim_packages)

    def in_async_packages(self, module: str) -> bool:
        return _in_any(module, self.async_packages)

    def in_pool_packages(self, module: str) -> bool:
        return _in_any(module, self.pool_packages)

    def is_sanitizer(self, module: str) -> bool:
        return _in_any(module, self.taint_sanitizers)


def _in_any(module: str, packages: Tuple[str, ...]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in packages
    )


def _canonical_dep(name: str) -> str:
    """Fold a distribution/import name to a comparable key."""
    return name.lower().replace("-", "_").replace(".", "_")


def _requirement_name(spec: str) -> Optional[str]:
    """Distribution name of one PEP 508 requirement string.

    ``"numpy>=1.24"`` -> ``"numpy"``; extras, version specifiers and
    environment markers are irrelevant to the import check.
    """
    match = re.match(r"\s*([A-Za-z0-9][A-Za-z0-9._-]*)", spec)
    return match.group(1) if match else None


def _check_layers(layers: Dict[str, Tuple[str, ...]]) -> None:
    """Reject a table under which legal edges could leave the DAG.

    Rows without ``"*"`` must form a DAG that names no ``"*"`` row,
    counting the implicit edge from each package to its distribution
    root.  Then every edge DOM201 lets through stays inside the
    importer's allowed closure, and only ``"*"`` rows can share a
    cycle.
    """
    top = {pkg for pkg, allowed in layers.items() if "*" in allowed}
    edges: Dict[str, List[str]] = {}
    for package in sorted(set(layers) - top):
        root = package.split(".")[0]
        implicit = [] if root == package else [root]
        edges[package] = [*layers[package], *implicit]
        for dep in edges[package]:
            if dep in top:
                raise ConfigError(
                    f"[tool.dominolint.layers] {package} may import "
                    f"{dep}, whose row is \"*\"; only a \"*\" row may "
                    f"import a \"*\" package")
    done: Set[str] = set()
    path: List[str] = []

    def visit(package: str) -> None:
        path.append(package)
        for dep in edges.get(package, ()):
            if dep in path:
                loop = " -> ".join(path[path.index(dep):] + [dep])
                raise ConfigError(
                    f"[tool.dominolint.layers] rows form a cycle: {loop}")
            if dep not in done:
                visit(dep)
        path.pop()
        done.add(package)

    for package in edges:
        if package not in done:
            visit(package)


def find_pyproject(start: Path) -> Path:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start.resolve()
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    raise ConfigError(f"no pyproject.toml above {start}")


def load_config(start: Optional[Path] = None) -> Config:
    """Load ``[tool.dominolint]`` from the nearest ``pyproject.toml``."""
    if tomllib is None:
        raise ConfigError(
            "dominolint needs tomllib (Python >= 3.11) to read its "
            "pyproject.toml configuration"
        )
    pyproject = find_pyproject(start if start is not None else Path.cwd())
    root = pyproject.parent
    with open(pyproject, "rb") as fh:
        try:
            data = tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{pyproject}: {exc}") from exc
    table = data.get("tool", {}).get("dominolint")
    if table is None:
        raise ConfigError(f"{pyproject} has no [tool.dominolint] table")

    def _strings(key: str) -> List[str]:
        value = table.get(key, [])
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise ConfigError(f"[tool.dominolint] {key} must be a string list")
        return value

    def _path(key: str, default: str) -> Path:
        value = table.get(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"[tool.dominolint] {key} must be a string")
        return root / value

    layers_raw = table.get("layers", {})
    if not isinstance(layers_raw, dict):
        raise ConfigError("[tool.dominolint] layers must be a table")
    layers: Dict[str, Tuple[str, ...]] = {}
    for package, allowed in layers_raw.items():
        if not isinstance(allowed, list) or not all(
            isinstance(item, str) for item in allowed
        ):
            raise ConfigError(
                f"[tool.dominolint.layers] {package} must be a string list"
            )
        layers[str(package)] = tuple(allowed)

    _check_layers(layers)

    guarded = _strings("async-guarded-attrs")

    requirements = data.get("project", {}).get("dependencies", [])
    if not isinstance(requirements, list) or not all(
        isinstance(item, str) for item in requirements
    ):
        raise ConfigError("[project] dependencies must be a string list")
    declared = []
    for spec in requirements:
        name = _requirement_name(spec)
        if name is not None:
            declared.append(_canonical_dep(name))

    return Config(
        root=root,
        src_root=_path("src-root", "src"),
        sim_packages=tuple(_strings("sim-packages")),
        layers=layers,
        schema_events=_path(
            "schema-events", "src/repro/telemetry/events.py"),
        schema_recorder=_path(
            "schema-recorder", "src/repro/telemetry/recorder.py"),
        schema_baseline=_path(
            "schema-baseline", "src/repro/lint/schema_baseline.json"),
        declared_deps=tuple(declared),
        async_packages=tuple(_strings("async-packages")),
        async_guarded_attrs=(tuple(guarded) if guarded
                             else Config.async_guarded_attrs),
        pool_packages=tuple(_strings("pool-packages")),
        taint_sanitizers=tuple(_strings("taint-sanitizers")),
    )
