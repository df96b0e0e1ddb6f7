"""File discovery, rule execution, and suppression filtering.

Lint is one sequential pass over the files: each module is parsed
once, every selected rule checks it, and the findings are filtered
against that file's own ``# reprolint: disable=`` comments.
"""

from __future__ import annotations

import ast
import os
from typing import (
    Any, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import Diagnostic, SuppressionIndex
from repro.analysis.rules import RULES, all_rules

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


def check_source(
    source: str,
    filename: str = "<string>",
    rules: Optional[Iterable[Any]] = None,
) -> List[Diagnostic]:
    """Lint one source string; a syntax error is one ``E001`` diagnostic.

    ``filename`` drives role classification (library vs test vs exempt
    module) exactly as an on-disk path would, so tests can exercise
    library-only rules on fixture snippets.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as error:
        return [_runner_diagnostic(
            filename, error.lineno or 1, error.offset or 1, "E001",
            f"syntax error: {error.msg}",
        )]
    module = ModuleContext(filename, source, tree)
    suppressions = SuppressionIndex.from_source(source)
    found: List[Diagnostic] = []
    seen: Set[Tuple[str, int, int]] = set()
    for checker in RULES if rules is None else rules:
        for diagnostic in checker.check(module):
            key = (diagnostic.code, diagnostic.line, diagnostic.column)
            if key in seen or suppressions.is_suppressed(diagnostic):
                continue
            seen.add(key)
            found.append(diagnostic)
    return sorted(found)


def run_lint(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[List[Diagnostic], int]:
    """Lint every Python file under ``paths``.

    Args:
        paths: files or directories to analyze.
        select / ignore: rule-code filters (unknown codes raise
            ``KeyError`` from :func:`~repro.analysis.rules.all_rules`).

    Returns ``(diagnostics, files_checked)``, diagnostics sorted by
    location; unreadable files surface as ``E002`` diagnostics rather
    than crashing the run.
    """
    checkers = all_rules(select=select, ignore=ignore)
    diagnostics: List[Diagnostic] = []
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
        diagnostics.extend(check_source(source, filename, checkers))
    return sorted(diagnostics), files_checked
