"""The cross-module rule R011 over the whole-program ProjectIndex.

The per-file rules in :mod:`repro.analysis.rules` uphold invariants a
single module can prove about itself.  One convention spans files:
every counter incremented anywhere must appear in the OBSERVABILITY.md
catalogue.  Rules here declare
``scope = "project"`` and implement ``check_project(index)`` instead of
the per-module ``check(module)``; the runner executes them once over
the assembled :class:`~repro.analysis.project.ProjectIndex` and filters
each diagnostic against the suppression comments of the file it
*anchors* in — which, for a cross-module rule, may not be the file that
triggered it.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.project import ModuleSummary, ProjectIndex
from repro.analysis.registry import rule


class ProjectRule:
    """Base class for whole-program rules.

    ``check(module)`` exists so the registry contract (every rule is
    callable per module) holds, but yields nothing — the real work is
    ``check_project(index)``, run once after all files are summarized.
    """

    scope = "project"

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        raise NotImplementedError


def _diag(
    summary: ModuleSummary, line: int, col: int, code: str, message: str
) -> Diagnostic:
    return Diagnostic(
        path=summary.path, line=line, column=col, code=code, message=message
    )


@rule
class CounterCatalogue(ProjectRule):
    """R011: code counters and the OBSERVABILITY.md catalogue agree.

    Every ``telemetry.count("name", ...)`` site must name a counter
    documented under the ``## Counter catalogue`` heading of
    ``docs/OBSERVABILITY.md``, and every catalogue entry must still be
    incremented somewhere — stale entries mislead operators reading
    dashboards.  The stale-entry direction only runs when the analyzed
    set includes ``repro.experiments.engine`` (a proxy for a full
    ``src`` lint), so single-file lints don't false-positive the whole
    catalogue.
    """

    code = "R011"
    name = "counter-catalogue"
    rationale = (
        "counters are the operator-facing contract; an undocumented or "
        "stale name makes telemetry unreadable"
    )

    #: Presence of this module marks a lint broad enough to see every
    #: counter increment, enabling the stale-entry direction.
    FULL_LINT_SENTINEL = "repro.experiments.engine"

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        catalogue = index.counter_catalogue()
        if catalogue is None:
            return
        doc_path, documented = catalogue
        seen: Set[str] = set()
        for summary in index.library_summaries:
            for counter in summary.counters:
                name = counter["name"]
                seen.add(name)
                if name not in documented:
                    yield _diag(
                        summary, counter["line"], counter["col"], self.code,
                        f"counter '{name}' is not documented in the "
                        f"'## Counter catalogue' section of {doc_path}",
                    )
        if self.FULL_LINT_SENTINEL not in index.by_module:
            return
        for name, line in sorted(documented.items()):
            if name not in seen:
                yield Diagnostic(
                    path=doc_path, line=line, column=1, code=self.code,
                    message=(
                        f"catalogue entry '{name}' is not incremented "
                        f"anywhere under the analyzed modules; remove the "
                        f"stale entry or restore the counter"
                    ),
                )


def project_rules(rules: List[object]) -> List[ProjectRule]:
    """The project-scope subset of an ``all_rules()`` listing."""
    return [r for r in rules if getattr(r, "scope", "module") == "project"]


def module_rules(rules: List[object]) -> List[object]:
    """The per-module subset of an ``all_rules()`` listing."""
    return [r for r in rules if getattr(r, "scope", "module") != "project"]


def run_project_rules(
    rules: List[object], index: ProjectIndex
) -> List[Diagnostic]:
    """Execute every project-scope rule over the assembled index."""
    found: List[Diagnostic] = []
    for checker in project_rules(rules):
        found.extend(checker.check_project(index))
    return found


# Re-exported for rule authors writing fixtures.
__all__ = [
    "CounterCatalogue",
    "ProjectRule",
    "module_rules",
    "project_rules",
    "run_project_rules",
]
