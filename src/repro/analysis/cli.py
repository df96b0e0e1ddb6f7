"""``repro-lint`` console entry point (also ``python -m repro.analysis``).

Exit codes: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.registry import all_rules, known_codes
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import run_lint


def build_parser() -> argparse.ArgumentParser:
    """The lint argument parser, shared by ``repro-lint`` and the
    ``repro-experiments lint`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the Hide-and-Seek "
            "reproduction: RNG determinism, picklability, telemetry and "
            "dB-unit discipline, receive-chain dtypes, engine wiring, "
            "and counter-catalogue parity (rules R001-R007, R009, R011, "
            "R012; see docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES", default=None,
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_codes(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip().upper() for part in value.split(",") if part.strip()]


def _validate_codes(args: argparse.Namespace) -> Optional[str]:
    """The usage-error message for unknown --select/--ignore codes."""
    requested = set(_split_codes(args.select) or ()) | set(
        _split_codes(args.ignore) or ()
    )
    unknown = sorted(requested - known_codes())
    if unknown:
        return (
            f"unknown rule code(s): {', '.join(unknown)} "
            f"(see --list-rules)"
        )
    return None


def execute(args: argparse.Namespace) -> int:
    """Run a lint invocation from arguments parsed by :func:`build_parser`."""
    if args.list_rules:
        for checker in all_rules():
            print(f"{checker.code} {checker.name}")
            print(f"     {checker.rationale}")
        return 0
    usage_error = _validate_codes(args)
    if usage_error is not None:
        print(f"repro-lint: {usage_error}", file=sys.stderr)
        return 2
    diagnostics, files_checked = run_lint(
        args.paths,
        select=_split_codes(args.select),
        ignore=_split_codes(args.ignore),
    )
    if files_checked == 0:
        print("repro-lint: no Python files found under "
              + " ".join(args.paths), file=sys.stderr)
        return 2
    renderer = render_json if args.format == "json" else render_text
    print(renderer(diagnostics, files_checked))
    return 1 if diagnostics else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns a process exit code."""
    return execute(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
