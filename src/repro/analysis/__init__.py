"""``reprolint`` — AST-based invariant checking for this reproduction.

The paper's defense rests on statistical separability of cumulant
features, so every reproduced number is only trustworthy if runs are
bit-reproducible and the parallel engine's picklability contract holds.
This package turns those review-time conventions into machine-checked
invariants:

* **R001** no legacy global-state RNG (``np.random.*`` free functions,
  stdlib ``random`` in library code);
* **R002** stochastic functions thread an ``rng`` parameter instead of
  constructing unseeded generators;
* **R003** trial callables handed to the Monte Carlo engine are
  module-level defs (the multiprocessing picklability contract);
* **R004** timing goes through ``repro.telemetry`` spans / stopwatches,
  never raw ``time.time()`` reads;
* **R005** dB/linear unit hygiene on names and conversions;
* **R006** no mutable default arguments, no bare or overbroad excepts
  in library code;
* **R007** no print()/stream writes in library code;
* **R009** explicit dtypes in the receive-chain kernel packages;
* **R012** engine wiring lives in the sweep runner.

Each rule sees one file; the fixed rule list is
:data:`repro.analysis.rules.RULES`.  The one cross-file convention,
counters in code matching the ``docs/OBSERVABILITY.md`` catalogue, is
a plain test (``tests/test_counter_catalogue.py``).

Run it as ``repro-lint src tests`` (console script), ``python -m
repro.analysis``, or ``repro-experiments lint``.  Diagnostics can be
silenced per line with ``# reprolint: disable=R001`` comments; the rule
catalogue lives in ``docs/STATIC_ANALYSIS.md``.

The package is deliberately stdlib-only (no numpy import) so CI can run
the lint gate without installing the scientific stack.
"""

from repro.analysis.context import ModuleContext, qualified_name
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import all_rules
from repro.analysis.runner import check_source, iter_python_files, run_lint

__all__ = [
    "Diagnostic",
    "ModuleContext",
    "all_rules",
    "check_source",
    "iter_python_files",
    "qualified_name",
    "render_json",
    "render_text",
    "run_lint",
]
