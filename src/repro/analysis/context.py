"""Per-module analysis context shared by every rule.

A :class:`ModuleContext` bundles the parsed AST with everything rules
repeatedly need: the import alias map (so ``np.random.rand`` and
``from numpy import random as nr; nr.rand`` resolve to the same
qualified name), the set of expressions opened as ``with`` items, and
the module's *role* — library code under ``src/repro`` is held to
stricter rules than tests or tooling.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set


def qualified_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted name through ``imports``.

    ``np.random.default_rng`` with ``{"np": "numpy"}`` yields
    ``"numpy.random.default_rng"``; a bare in-module name resolves to
    itself.  Returns ``None`` for dynamic receivers (calls, subscripts)
    whose origin a static pass cannot know.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path (best effort).

    ``src/repro/zigbee/receiver.py`` -> ``repro.zigbee.receiver``;
    ``tests/test_foo.py`` -> ``tests.test_foo``; paths without a
    recognizable package root fall back to their stem.
    """
    posix = path.replace("\\", "/")
    parts = [part for part in posix.split("/") if part not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src", "repro", "tests"):
        if anchor in parts:
            index = parts.index(anchor)
            if anchor == "src":
                index += 1
            return ".".join(parts[index:]) or (parts[-1] if parts else "")
    return parts[-1] if parts else ""


def _collect_imports(tree: ast.AST) -> Dict[str, str]:
    """Map every imported local name to its fully qualified origin."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


class ModuleContext:
    """One parsed module plus the precomputed facts rules query.

    Attributes:
        path: display path used in diagnostics (posix-style).
        module_name: dotted module name (see :func:`module_name_for_path`).
        source: full module source text.
        tree: the parsed ``ast.Module``.
        imports: local name -> qualified origin (see :func:`qualified_name`).
        is_library: under ``repro/`` and not a test — strictest rules.
        is_test: a ``tests/`` / ``test_*.py`` module.
        is_rng_module: ``repro/utils/rng.py`` itself, the one blessed home
            of unseeded generator construction.
        is_telemetry_module: under ``repro/telemetry/`` — the one blessed
            home of raw clock reads.
        is_cli_module: a ``cli.py`` / ``__main__.py`` entry point, where
            writing to stdout/stderr is the whole job.
        is_reporter_module: a designated rendering/sink module (report
            formatters, terminal plots, event sinks) allowed to own an
            output stream.
    """

    #: Module paths whose *purpose* is producing user-facing output —
    #: the blessed homes of print()/stream writes outside CLI entry
    #: points.  Everything else under ``src/repro`` must return strings
    #: or route output through :mod:`repro.telemetry.events` sinks.
    REPORTER_MODULES = (
        "repro/analysis/reporters.py",
        "repro/telemetry/report.py",
        "repro/telemetry/events.py",
        "repro/utils/terminal_plot.py",
    )

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path.replace("\\", "/")
        self.module_name = module_name_for_path(self.path)
        self.source = source
        self.tree = tree
        self.imports = _collect_imports(tree)
        self._with_items: Optional[Set[int]] = None

        posix = self.path
        name = posix.rsplit("/", 1)[-1]
        self.is_test = (
            "tests/" in posix
            or posix.startswith("tests")
            or name.startswith("test_")
            or name.startswith("conftest")
        )
        self.is_library = "repro/" in posix and not self.is_test
        self.is_rng_module = posix.endswith("repro/utils/rng.py")
        self.is_telemetry_module = "repro/telemetry/" in posix
        self.is_cli_module = name in ("cli.py", "__main__.py")
        self.is_reporter_module = any(
            posix.endswith(suffix) for suffix in self.REPORTER_MODULES
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Qualified dotted name of ``node`` through this module's imports."""
        return qualified_name(node, self.imports)

    def basename(self, node: ast.AST) -> Optional[str]:
        """Last component of :meth:`resolve` (``default_rng`` of any spelling)."""
        resolved = self.resolve(node)
        if resolved is None:
            return None
        return resolved.rsplit(".", 1)[-1]

    @property
    def with_item_expressions(self) -> Set[int]:
        """``id()`` of every expression opened as a ``with`` item.

        Rules use this to tell ``with telemetry.span(...):`` (fine) from
        ``handle = telemetry.span(...)`` (a leaked span).
        """
        if self._with_items is None:
            found: Set[int] = set()
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        found.add(id(item.context_expr))
            self._with_items = found
        return self._with_items
