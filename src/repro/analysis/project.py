"""Whole-program facts for the cross-module rule R011.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time.  One invariant spans files: a counter incremented anywhere in the
library must appear in the OBSERVABILITY.md catalogue, and every
catalogue entry must still be incremented somewhere (R011).  This
module extracts from each parsed file a compact :class:`ModuleSummary`
— the counters it increments — and assembles the summaries into a
:class:`ProjectIndex` the rule queries.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.context import ModuleContext


class ModuleSummary:
    """Everything the project phase needs to know about one file.

    Attributes:
        path: display path (posix) used in diagnostics.
        module_name: dotted module name (see
            :func:`~repro.analysis.context.module_name_for_path`).
        is_library: role flag from :class:`ModuleContext`.
        counters: telemetry counter increments — ``{"name", "line",
            "col"}`` for each literal ``telemetry.count("...")`` site.
    """

    def __init__(self, module: ModuleContext) -> None:
        self.path = module.path
        self.module_name = module.module_name
        self.is_library = module.is_library
        self.counters: List[Dict[str, Any]] = []


def _is_telemetry_receiver(module: ModuleContext, receiver: ast.AST) -> bool:
    """Does this receiver look like the telemetry metrics object?"""
    if isinstance(receiver, ast.Name):
        return "telemetry" in receiver.id.lower()
    if isinstance(receiver, ast.Call):
        return module.basename(receiver.func) == "get_telemetry"
    return False


class _SummaryVisitor(ast.NodeVisitor):
    """One pass over a module collecting every counter increment."""

    def __init__(self, module: ModuleContext, summary: ModuleSummary) -> None:
        self.module = module
        self.summary = summary

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "count"
            and _is_telemetry_receiver(self.module, func.value)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            self.summary.counters.append({
                "name": node.args[0].value,
                "line": node.lineno,
                "col": node.col_offset + 1,
            })
        self.generic_visit(node)


def summarize_module(module: ModuleContext) -> ModuleSummary:
    """Extract the whole-program facts from one parsed module."""
    summary = ModuleSummary(module)
    _SummaryVisitor(module, summary).visit(module.tree)
    return summary


def find_project_root(paths: Sequence[str]) -> Optional[str]:
    """Nearest ancestor of ``paths`` holding ``pyproject.toml`` or ``.git``."""
    real = [os.path.abspath(p) for p in paths if p]
    if not real:
        return None
    try:
        current = os.path.commonpath(real)
    except ValueError:
        return None
    if os.path.isfile(current):
        current = os.path.dirname(current)
    for _ in range(8):
        if any(
            os.path.exists(os.path.join(current, marker))
            for marker in ("pyproject.toml", ".git")
        ):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent
    return None


#: Matches the first backtick-quoted token on a catalogue bullet line.
_CATALOGUE_ENTRY = re.compile(r"^[*-]\s+`([A-Za-z0-9_.]+)`")


def parse_counter_catalogue(text: str) -> Dict[str, int]:
    """Counter names declared in a ``## Counter catalogue`` doc section.

    Returns ``name -> line number``.  Only bullet lines between the
    ``## Counter catalogue`` heading and the next ``## `` heading count,
    and only each bullet's *first* backticked token — descriptions may
    mention other names freely.
    """
    entries: Dict[str, int] = {}
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.lower().startswith("## counter catalogue"):
            in_section = True
            continue
        if in_section and stripped.startswith("## "):
            break
        if not in_section:
            continue
        match = _CATALOGUE_ENTRY.match(stripped)
        if match and match.group(1) not in entries:
            entries[match.group(1)] = lineno
    return entries


class ProjectIndex:
    """Summaries assembled into a queryable whole-program view.

    Args:
        summaries: one :class:`ModuleSummary` per analyzed file.
        root: the project root directory, when known — used to locate
            the out-of-tree OBSERVABILITY.md counter catalogue.
    """

    CATALOGUE_RELPATH = os.path.join("docs", "OBSERVABILITY.md")

    def __init__(
        self,
        summaries: Sequence[ModuleSummary],
        root: Optional[str] = None,
    ) -> None:
        self.summaries = list(summaries)
        self.root = root
        self.by_module: Dict[str, ModuleSummary] = {
            summary.module_name: summary for summary in self.summaries
        }
        self.library_summaries = [s for s in self.summaries if s.is_library]

    def counter_catalogue(self) -> Optional[Tuple[str, Dict[str, int]]]:
        """``(path, {name: line})`` of the documented counter catalogue."""
        if self.root is None:
            return None
        path = os.path.join(self.root, self.CATALOGUE_RELPATH)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
        display = os.path.relpath(path).replace("\\", "/")
        if display.startswith(".."):
            display = path.replace("\\", "/")
        return display, parse_counter_catalogue(text)
