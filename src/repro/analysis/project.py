"""Whole-program facts for the two cross-module rules (R008, R011).

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time.  Two invariants span files: a ``*_batch`` kernel in
``repro.zigbee`` pairs with a scalar twin and a differential test in
``tests/`` (R008), and a counter incremented in
``repro.experiments.engine`` must appear in the OBSERVABILITY.md
catalogue (R011).  This module extracts from each parsed file a compact
:class:`ModuleSummary` — what the file defines, references, and counts
— and assembles the summaries into a :class:`ProjectIndex` those two
rules query.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.context import ModuleContext


class ModuleSummary:
    """Everything the project phase needs to know about one file.

    Attributes:
        path: display path (posix) used in diagnostics.
        module_name: dotted module name (see
            :func:`~repro.analysis.context.module_name_for_path`).
        is_test / is_library: role flags from :class:`ModuleContext`.
        batch_defs: declared batch kernels/trials — each ``{"name",
            "owner", "line", "col", "kind"}`` where ``kind`` is
            ``"suffix"`` (``*_batch`` naming) or ``"trial"``
            (``@batch_trial``).
        scalar_pairs: explicit ``X.scalar_counterpart = Y`` declarations.
        defined_names: ``owner ("" or class name) -> [function names]``.
        references: every Name/Attribute basename the module mentions.
        counters: telemetry counter increments — ``{"name", "line",
            "col"}`` for each literal ``telemetry.count("...")`` site.
    """

    def __init__(self, module: ModuleContext) -> None:
        self.path = module.path
        self.module_name = module.module_name
        self.is_test = module.is_test
        self.is_library = module.is_library
        self.batch_defs: List[Dict[str, Any]] = []
        self.scalar_pairs: Dict[str, str] = {}
        self.defined_names: Dict[str, List[str]] = {}
        self.references: Set[str] = set()
        self.counters: List[Dict[str, Any]] = []


def _is_telemetry_receiver(module: ModuleContext, receiver: ast.AST) -> bool:
    """Does this receiver look like the telemetry metrics object?"""
    if isinstance(receiver, ast.Name):
        return "telemetry" in receiver.id.lower()
    if isinstance(receiver, ast.Call):
        return module.basename(receiver.func) == "get_telemetry"
    return False


class _SummaryVisitor(ast.NodeVisitor):
    """One pass over a module collecting every summary fact."""

    def __init__(self, module: ModuleContext, summary: ModuleSummary) -> None:
        self.module = module
        self.summary = summary
        self._depth = 0
        self._class: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class.append(node.name)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1
        self._class.pop()

    def _is_batch_trial_decorated(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if self.module.basename(target) == "batch_trial":
                return True
        return False

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        owner = self._class[-1] if self._class else ""
        self.summary.defined_names.setdefault(owner, []).append(node.name)
        is_trial = self._is_batch_trial_decorated(node)
        if is_trial or node.name.endswith("_batch"):
            self.summary.batch_defs.append({
                "name": node.name,
                "owner": owner,
                "line": node.lineno,
                "col": node.col_offset + 1,
                "kind": "trial" if is_trial else "suffix",
            })
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # A module-level X.scalar_counterpart = Y pairs a batch kernel.
        if not self._depth and isinstance(node.value, ast.Name):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "scalar_counterpart"
                    and isinstance(target.value, ast.Name)
                ):
                    self.summary.scalar_pairs[target.value.id] = node.value.id
        self.generic_visit(node)

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

    def visit_Name(self, node: ast.Name) -> None:
        self.summary.references.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.summary.references.add(node.attr)
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
        self.test_summaries = [s for s in self.summaries if s.is_test]
        self.test_references: Set[str] = set()
        for summary in self.test_summaries:
            self.test_references.update(summary.references)
        self.function_names: Set[str] = set()
        for summary in self.summaries:
            for names in summary.defined_names.values():
                self.function_names.update(names)

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


def iter_batch_pairs(
    summary: ModuleSummary,
) -> Iterator[Tuple[Dict[str, Any], Optional[str]]]:
    """Each batch def with its resolved scalar counterpart name (or None).

    Resolution order: an explicit ``X.scalar_counterpart = Y``
    declaration, then same-scope name conventions — ``foo`` /
    ``foo_once`` for ``foo_batch``, and the public ``foo`` for a
    private ``_foo_batch``.
    """
    for batch in summary.batch_defs:
        name = batch["name"]
        explicit = summary.scalar_pairs.get(name)
        if explicit is not None:
            yield batch, explicit
            continue
        if not name.endswith("_batch"):
            yield batch, None
            continue
        scope_names = set(summary.defined_names.get(batch["owner"], ()))
        stem = name[: -len("_batch")]
        for candidate in (stem, stem + "_once", stem.lstrip("_")):
            if candidate and candidate != name and candidate in scope_names:
                yield batch, candidate
                break
        else:
            yield batch, None
