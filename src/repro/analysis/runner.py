"""File discovery, rule execution, and suppression filtering.

Lint is one sequential pass over the files plus a small project phase.
The **per-file pass** parses each module once, runs every module-scope
rule, and extracts a :class:`~repro.analysis.project.ModuleSummary`.
The **project phase** assembles the summaries into a
:class:`~repro.analysis.project.ProjectIndex` and runs the two
cross-module rule (R011) over it; each resulting diagnostic is
filtered against the suppression comments of the file it *anchors* in
— which for a cross-module rule may not be the file that triggered the
analysis.
"""

from __future__ import annotations

import ast
import os
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis import rules as _rules  # noqa: F401 - registers the rule set
from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import Diagnostic, SuppressionIndex
from repro.analysis.project import (
    ModuleSummary,
    ProjectIndex,
    find_project_root,
    summarize_module,
)
from repro.analysis.project_rules import (  # noqa: F401 - registers R011
    module_rules,
    run_project_rules,
)
from repro.analysis.registry import all_rules

#: Directories never descended into.
SKIPPED_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build"}


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through verbatim)."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for directory, subdirs, files in os.walk(path):
            subdirs[:] = sorted(
                d for d in subdirs
                if d not in SKIPPED_DIRS and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def _runner_diagnostic(
    filename: str, line: int, column: int, code: str, message: str
) -> Diagnostic:
    return Diagnostic(
        path=filename.replace("\\", "/"), line=line, column=column,
        code=code, message=message,
    )


def _parse(source: str, filename: str) -> Union[ModuleContext, Diagnostic]:
    """The parsed module, or an ``E001`` diagnostic for a syntax error."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as error:
        return _runner_diagnostic(
            filename, error.lineno or 1, error.offset or 1, "E001",
            f"syntax error: {error.msg}",
        )
    return ModuleContext(filename, source, tree)


def _check_module(
    module: ModuleContext,
    suppressions: SuppressionIndex,
    checkers: Sequence[Any],
) -> List[Diagnostic]:
    """Module-scope diagnostics of one file, deduplicated and filtered."""
    found: List[Diagnostic] = []
    seen = set()
    for checker in checkers:
        for diagnostic in checker.check(module):
            key = (diagnostic.code, diagnostic.line, diagnostic.column)
            if key in seen or suppressions.is_suppressed(diagnostic):
                continue
            seen.add(key)
            found.append(diagnostic)
    return found


def check_source(
    source: str,
    filename: str = "<string>",
    rules: Optional[Iterable[Any]] = None,
) -> List[Diagnostic]:
    """Lint one source string with the module-scope rules.

    ``filename`` drives role classification (library vs test vs exempt
    module) exactly as an on-disk path would, so tests can exercise
    library-only rules on fixture snippets.  Project-scope rules need a
    whole file set and are run by :func:`run_lint` only.
    """
    checkers = module_rules(list(rules) if rules is not None else all_rules())
    parsed = _parse(source, filename)
    if isinstance(parsed, Diagnostic):
        return [parsed]
    suppressions = SuppressionIndex.from_source(source)
    return sorted(_check_module(parsed, suppressions, checkers))


def run_lint(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[List[Diagnostic], int]:
    """Lint every Python file under ``paths``.

    Args:
        paths: files or directories to analyze.
        select / ignore: rule-code filters (unknown codes raise
            ``KeyError`` from the registry).

    Returns ``(diagnostics, files_checked)``, diagnostics sorted by
    location; unreadable files surface as ``E002`` diagnostics rather
    than crashing the run.
    """
    active = all_rules(select=select, ignore=ignore)
    checkers = module_rules(active)
    diagnostics: List[Diagnostic] = []
    summaries: List[ModuleSummary] = []
    anchors: Dict[str, SuppressionIndex] = {}
    files_checked = 0
    for filename in iter_python_files(paths):
        files_checked += 1
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as error:
            diagnostics.append(_runner_diagnostic(
                filename, 1, 1, "E002", f"cannot read file: {error}",
            ))
            continue
        parsed = _parse(source, filename)
        if isinstance(parsed, Diagnostic):
            diagnostics.append(parsed)
            continue
        suppressions = SuppressionIndex.from_source(source)
        diagnostics.extend(_check_module(parsed, suppressions, checkers))
        summaries.append(summarize_module(parsed))
        anchors[parsed.path] = suppressions

    index = ProjectIndex(summaries, root=find_project_root(list(paths)))
    seen = set()
    for diagnostic in run_project_rules(active, index):
        anchor = anchors.get(diagnostic.path)
        if anchor is not None and anchor.is_suppressed(diagnostic):
            continue
        key = (
            diagnostic.path, diagnostic.line, diagnostic.column,
            diagnostic.code, diagnostic.message,
        )
        if key not in seen:
            seen.add(key)
            diagnostics.append(diagnostic)
    return sorted(diagnostics), files_checked
