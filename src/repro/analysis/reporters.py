"""Text and JSON renderings of a lint run."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.analysis.diagnostics import Diagnostic

#: Schema version of the JSON report; bump on breaking layout changes.
JSON_REPORT_VERSION = 3


def summarize(
    diagnostics: Sequence[Diagnostic], files_checked: int
) -> Dict[str, Any]:
    """Aggregate counts shared by both reporters."""
    by_code: Dict[str, int] = {}
    for diagnostic in diagnostics:
        by_code[diagnostic.code] = by_code.get(diagnostic.code, 0) + 1
    return {
        "files_checked": files_checked,
        "violations": len(diagnostics),
        "by_code": dict(sorted(by_code.items())),
    }


def render_text(diagnostics: Sequence[Diagnostic], files_checked: int) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: List[str] = [d.format() for d in diagnostics]
    summary = summarize(diagnostics, files_checked)
    if diagnostics:
        per_rule = ", ".join(
            f"{code}: {count}" for code, count in summary["by_code"].items()
        )
        lines.append("")
        lines.append(
            f"{summary['violations']} violation(s) in "
            f"{summary['files_checked']} file(s) ({per_rule})"
        )
    else:
        lines.append(f"OK: {files_checked} file(s), no violations")
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic], files_checked: int) -> str:
    """Machine-readable report (stable schema, see JSON_REPORT_VERSION)."""
    payload = {
        "version": JSON_REPORT_VERSION,
        "tool": "reprolint",
        "diagnostics": [d.to_dict() for d in diagnostics],
        "summary": summarize(diagnostics, files_checked),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
