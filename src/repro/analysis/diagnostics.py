"""Diagnostic records and ``# reprolint: disable=`` suppression parsing."""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Set

#: Rule codes look like ``R001``; ``E``-prefixed codes are reserved for
#: the runner itself (syntax errors, unreadable files).
CODE_PATTERN = re.compile(r"^[ER]\d{3}$")

_SUPPRESS_PATTERN = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s*]+)"
)


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: where it is, which rule fired, and why.

    Sort order is (path, line, column, code) so reports read top to
    bottom through each file.
    """

    path: str
    line: int
    column: int
    code: str
    message: str = field(compare=False)

    def format(self) -> str:
        """The canonical one-line rendering: ``path:line:col: CODE msg``."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view (the JSON reporter's per-item schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "message": self.message,
        }


class SuppressionIndex:
    """Which rule codes are silenced on which lines of one file.

    ``# reprolint: disable=R001`` (or ``disable=R001,R004`` /
    ``disable=all``) silences the listed rules on the comment's own
    line; a comment standing alone on its line also covers the next
    line, so long flagged statements can carry the marker above them.
    ``# reprolint: disable-file=R004`` silences a rule everywhere in
    the file.  Comments are found with :mod:`tokenize`, so the markers
    inside string literals (e.g. lint-fixture snippets in tests) are
    ignored.
    """

    def __init__(self) -> None:
        self._by_line: Dict[int, Set[str]] = {}
        self._file_wide: Set[str] = set()

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        """Scan ``source`` for suppression comments."""
        index = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return index
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_PATTERN.search(token.string)
            if match is None:
                continue
            codes = {
                part.strip().upper()
                for part in match.group(2).split(",")
                if part.strip()
            }
            codes = {"*" if code in ("ALL", "*") else code for code in codes}
            if match.group(1) == "disable-file":
                index._file_wide.update(codes)
                continue
            line = token.start[0]
            index._by_line.setdefault(line, set()).update(codes)
            # A comment-only line shields the statement right below it.
            prefix = token.line[: token.start[1]]
            if not prefix.strip():
                index._by_line.setdefault(line + 1, set()).update(codes)
        return index

    def is_suppressed(self, diagnostic: Diagnostic) -> bool:
        """True when ``diagnostic`` is silenced by a comment."""
        for codes in (self._file_wide, self._by_line.get(diagnostic.line, ())):
            if "*" in codes or diagnostic.code in codes:
                return True
        return False
