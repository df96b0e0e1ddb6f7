"""Cross-module rules R008 and R011 over the whole-program ProjectIndex.

The per-file rules in :mod:`repro.analysis.rules` uphold invariants a
single module can prove about itself.  Two conventions span files: a
``*_batch`` kernel pairs with a scalar twin and a differential test
elsewhere, and every counter incremented anywhere must appear in the
OBSERVABILITY.md catalogue.  Rules here declare
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
from repro.analysis.project import (
    ModuleSummary,
    ProjectIndex,
    iter_batch_pairs,
)
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
class BatchScalarParity(ProjectRule):
    """R008: every batch kernel pairs with a scalar twin and a test.

    The batched fast path's bit-identity guarantee is only checkable
    while both halves of each pair exist and a differential test under
    ``tests/`` exercises them.  A ``*_batch`` function (or any
    ``@batch_trial`` function) must resolve a scalar counterpart —
    same-scope ``foo``/``foo_once`` naming, or an explicit module-level
    ``foo_batch.scalar_counterpart = foo`` declaration — and, for
    public kernels and all batch trials, both names must be referenced
    from at least one test module.
    """

    code = "R008"
    name = "batch-scalar-parity"
    rationale = (
        "a batch kernel without a scalar twin and a differential test "
        "has an unverifiable bit-identity claim"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        have_tests = bool(index.test_summaries)
        test_refs = index.test_references
        for summary in index.library_summaries:
            for batch, counterpart in iter_batch_pairs(summary):
                line, col = batch["line"], batch["col"]
                name = batch["name"]
                if counterpart is None:
                    hint = (
                        "define the scalar twin in the same scope or "
                        "declare it via "
                        f"'{name}.scalar_counterpart = <fn>'"
                    )
                    yield _diag(
                        summary, line, col, self.code,
                        f"batch function '{name}' has no resolvable "
                        f"scalar counterpart; {hint}",
                    )
                    continue
                if counterpart not in index.function_names:
                    yield _diag(
                        summary, line, col, self.code,
                        f"batch function '{name}' declares scalar "
                        f"counterpart '{counterpart}' which is not "
                        f"defined anywhere in the analyzed project",
                    )
                    continue
                needs_test = batch["kind"] == "trial" or not name.startswith("_")
                if not (have_tests and needs_test):
                    continue
                missing = [
                    ref for ref in (name, counterpart)
                    if ref not in test_refs
                ]
                if missing:
                    yield _diag(
                        summary, line, col, self.code,
                        f"batch/scalar pair '{name}'/'{counterpart}' is "
                        f"not exercised by any test under tests/ "
                        f"(unreferenced: {', '.join(missing)}); add a "
                        f"differential test pinning bit-identity",
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
    "BatchScalarParity",
    "CounterCatalogue",
    "ProjectRule",
    "module_rules",
    "project_rules",
    "run_project_rules",
]
