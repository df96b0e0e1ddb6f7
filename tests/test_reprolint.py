"""Tests for ``repro.analysis`` — the reprolint invariant checker.

Every rule R001-R007 gets at least one fixture that must fire and one
that must stay silent; suppression comments, the JSON reporter schema,
and a self-check over the real repository round out the contract in
``docs/STATIC_ANALYSIS.md``.

The fixture snippets live in string literals, which the AST-based rules
never mistake for code — the self-check below depends on that.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import (
    all_rules,
    check_source,
    iter_python_files,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.diagnostics import Diagnostic, SuppressionIndex
from repro.analysis.registry import rule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Role-carrying fixture paths (classification mirrors on-disk layout).
LIB = "src/repro/demo/module.py"
TEST = "tests/test_demo.py"


def codes(source, filename=LIB):
    """The set of rule codes check_source reports for one snippet."""
    return {d.code for d in check_source(textwrap.dedent(source), filename)}


class TestR001LegacyRng:
    def test_stdlib_random_import_fires_in_library(self):
        assert "R001" in codes("import random\n")
        assert "R001" in codes("from random import choice\n")

    def test_stdlib_random_usage_fires_in_library(self):
        assert "R001" in codes(
            """
            import random

            def pick(items):
                return random.choice(items)
            """
        )

    def test_stdlib_random_allowed_in_tests(self):
        assert codes("import random\n", filename=TEST) == set()

    def test_numpy_legacy_free_functions_fire_everywhere(self):
        snippet = """
            import numpy as np

            noise = np.random.rand(4)
        """
        assert "R001" in codes(snippet)
        assert "R001" in codes(snippet, filename=TEST)

    def test_numpy_legacy_from_import_fires(self):
        assert "R001" in codes("from numpy.random import rand\n")

    def test_numpy_random_module_alias_resolves(self):
        assert "R001" in codes(
            """
            from numpy import random as nr

            def shuffle(values):
                nr.shuffle(values)
            """
        )

    def test_seeded_generator_api_is_allowed(self):
        assert codes(
            """
            import numpy as np

            rng = np.random.default_rng(7)
            sequence = np.random.SeedSequence(7)
            generator = np.random.Generator(np.random.PCG64(7))
            """
        ) == set()


class TestR002RngThreading:
    def test_unseeded_default_rng_fires(self):
        assert "R002" in codes(
            """
            import numpy as np

            def sample():
                return np.random.default_rng()
            """
        )

    def test_zero_arg_ensure_rng_fires(self):
        assert "R002" in codes(
            """
            from repro.utils.rng import ensure_rng

            def sample():
                return ensure_rng()
            """
        )

    def test_public_function_without_rng_parameter_fires(self):
        assert "R002" in codes(
            """
            from repro.utils.rng import ensure_rng

            def sample_noise(count):
                generator = ensure_rng(42)
                return generator
            """
        )

    def test_threaded_rng_parameter_is_allowed(self):
        assert codes(
            """
            from repro.utils.rng import ensure_rng

            def sample_noise(count, rng=None):
                generator = ensure_rng(rng)
                return generator
            """
        ) == set()

    def test_rng_module_itself_is_exempt(self):
        assert codes(
            """
            import numpy as np

            def ensure_rng(rng=None):
                if rng is None:
                    return np.random.default_rng()
                return rng
            """,
            filename="src/repro/utils/rng.py",
        ) == set()


class TestR003TrialPicklability:
    def test_lambda_trial_fires(self):
        assert "R003" in codes(
            """
            def runner(session):
                return session.run(lambda c, a, r: 1, 10)
            """
        )

    def test_nested_def_trial_fires(self):
        assert "R003" in codes(
            """
            def runner(session):
                def trial(context, static_args, rng):
                    return 1
                return session.run(trial, 10)
            """
        )

    def test_lambda_assigned_name_fires(self):
        assert "R003" in codes(
            """
            def runner(engine_session):
                trial = lambda c, a, r: 1
                return engine_session.run(trial, 10)
            """
        )

    def test_module_level_trial_is_allowed(self):
        assert codes(
            """
            def trial(context, static_args, rng):
                return 1

            def runner(session):
                return session.run(trial, 10)
            """
        ) == set()

    def test_keyword_trial_argument_is_checked(self):
        assert "R003" in codes(
            """
            def runner(session):
                return session.run(count=10, trial=lambda c, a, r: 1)
            """
        )

    def test_unrelated_run_receivers_are_ignored(self):
        assert codes(
            """
            def start(app):
                return app.run(lambda: 1)
            """
        ) == set()


class TestR004TelemetryDiscipline:
    def test_raw_clock_reads_fire(self):
        assert "R004" in codes(
            """
            import time

            def measure():
                return time.time()
            """
        )
        assert "R004" in codes(
            """
            from time import perf_counter

            def measure():
                return perf_counter()
            """
        )

    def test_time_sleep_is_not_a_clock_read(self):
        assert codes(
            """
            import time

            def pause():
                time.sleep(0.1)
            """
        ) == set()

    def test_naked_span_call_fires(self):
        assert "R004" in codes(
            """
            from repro.telemetry import get_telemetry

            def leak():
                telemetry = get_telemetry()
                handle = telemetry.span("stage")
                return handle
            """
        )
        assert "R004" in codes(
            """
            from repro.telemetry import get_telemetry

            def leak():
                get_telemetry().span("stage")
            """
        )

    def test_with_span_is_allowed(self):
        assert codes(
            """
            from repro.telemetry import get_telemetry

            def timed():
                telemetry = get_telemetry()
                with telemetry.span("stage"):
                    pass
            """
        ) == set()

    def test_telemetry_package_owns_the_clock(self):
        assert codes(
            """
            import time

            def now():
                return time.perf_counter()
            """,
            filename="src/repro/telemetry/core.py",
        ) == set()


class TestR005DecibelHygiene:
    def test_missing_db_suffix_fires(self):
        assert "R005" in codes(
            """
            import numpy as np

            def budget(power):
                snr = 10.0 * np.log10(power)
                return snr
            """
        )

    def test_twenty_log10_and_attribute_targets_fire(self):
        assert "R005" in codes(
            """
            import math

            class Budget:
                def set_loss(self, d):
                    self.loss = 20.0 * math.log10(d)
            """
        )

    def test_suffixed_names_are_allowed(self):
        assert codes(
            """
            import numpy as np

            def budget(power, bandwidth):
                snr_db = 10.0 * np.log10(power)
                noise_dbm = 10.0 * np.log10(bandwidth) - 174.0
                return snr_db, noise_dbm
            """
        ) == set()

    def test_double_de_db_conversion_fires(self):
        assert "R005" in codes(
            """
            def broken(snr_db):
                return 10.0 ** ((10.0 ** (snr_db / 10.0)) / 10.0)
            """
        )

    def test_single_de_db_conversion_is_allowed(self):
        assert codes(
            """
            def to_linear(snr_db):
                return 10.0 ** (snr_db / 10.0)

            def to_amplitude(gain_db):
                return 10.0 ** (gain_db / 20.0)
            """
        ) == set()


class TestR006LibraryHygiene:
    def test_mutable_defaults_fire(self):
        assert "R006" in codes("def f(items=[]):\n    return items\n")
        assert "R006" in codes("def f(table={}):\n    return table\n")
        assert "R006" in codes("def f(seen=set()):\n    return seen\n")
        assert "R006" in codes(
            "def f(*, out=list()):\n    return out\n", filename=TEST
        )

    def test_bare_except_fires_everywhere(self):
        snippet = """
            def guarded():
                try:
                    return 1
                except:
                    return 0
        """
        assert "R006" in codes(snippet)
        assert "R006" in codes(snippet, filename=TEST)

    def test_overbroad_except_fires_in_library_only(self):
        snippet = """
            def guarded():
                try:
                    return 1
                except Exception:
                    return 0
        """
        assert "R006" in codes(snippet)
        assert codes(snippet, filename=TEST) == set()

    def test_specific_handlers_and_none_defaults_are_allowed(self):
        assert codes(
            """
            def guarded(items=None):
                try:
                    return list(items or ())
                except (TypeError, ValueError):
                    return []
            """
        ) == set()


class TestR007NoDirectOutput:
    def test_print_fires_in_library(self):
        assert "R007" in codes(
            """
            def describe(value):
                print(value)
            """
        )

    def test_stream_writes_fire_in_library(self):
        assert "R007" in codes(
            """
            import sys

            def describe(value):
                sys.stdout.write(str(value))
            """
        )
        assert "R007" in codes(
            """
            import sys

            def warn(message):
                sys.stderr.writelines([message])
            """
        )

    def test_tests_and_cli_modules_are_exempt(self):
        snippet = "print('hello')\n"
        assert codes(snippet, filename=TEST) == set()
        assert codes(snippet, filename="src/repro/cli.py") == set()
        assert codes(snippet, filename="src/repro/analysis/__main__.py") == set()

    def test_reporter_and_sink_modules_are_exempt(self):
        snippet = "import sys\nsys.stderr.write('x')\n"
        assert codes(snippet, filename="src/repro/telemetry/events.py") == set()
        assert codes(snippet, filename="src/repro/telemetry/report.py") == set()
        assert codes(
            snippet, filename="src/repro/analysis/reporters.py"
        ) == set()
        assert codes(
            snippet, filename="src/repro/utils/terminal_plot.py"
        ) == set()

    def test_returning_strings_is_the_blessed_path(self):
        assert codes(
            """
            def describe(value):
                return f"value: {value}"
            """
        ) == set()


class TestR012NoDirectEngineWiring:
    def test_import_fires_in_driver_modules(self):
        assert "R012" in codes(
            """
            from repro.experiments.engine import MonteCarloEngine
            """
        )
        assert "R012" in codes(
            """
            from repro.experiments.checkpoint import open_checkpoint_store
            """
        )
        assert "R012" in codes(
            """
            from repro.experiments.adaptive import AdaptiveSweep
            """
        )

    def test_attribute_access_fires(self):
        assert "R012" in codes(
            """
            from repro.experiments import engine

            def build():
                return engine.MonteCarloEngine()
            """
        )

    def test_blessed_homes_are_exempt(self):
        snippet = """
            from repro.experiments.engine import MonteCarloEngine

            def build():
                return MonteCarloEngine()
        """
        for home in (
            "src/repro/experiments/sweep.py",
            "src/repro/experiments/engine.py",
            "src/repro/experiments/checkpoint.py",
            "src/repro/experiments/adaptive.py",
            "src/repro/experiments/__init__.py",
        ):
            assert codes(snippet, filename=home) == set()

    def test_tests_are_exempt(self):
        assert codes(
            "from repro.experiments.engine import MonteCarloEngine\n",
            filename=TEST,
        ) == set()

    def test_spec_based_drivers_stay_silent(self):
        assert codes(
            """
            from repro.experiments.sweep import SweepSpec, run_sweep

            def run(rng=None):
                return run_sweep(SPEC, rng=rng)
            """
        ) == set()


class TestSuppression:
    def test_same_line_disable(self):
        assert codes("import random  # reprolint: disable=R001\n") == set()

    def test_standalone_comment_covers_next_line(self):
        assert codes(
            "# reprolint: disable=R001\nimport random\n"
        ) == set()

    def test_disable_all_and_disable_file(self):
        assert codes("import random  # reprolint: disable=all\n") == set()
        assert codes(
            "import random\n\n\n# reprolint: disable-file=R001\n"
        ) == set()

    def test_unrelated_code_still_fires(self):
        assert codes(
            "import random  # reprolint: disable=R004\n"
        ) == {"R001"}

    def test_marker_inside_string_is_ignored(self):
        diagnostics = check_source(
            'import random\nnote = "# reprolint: disable-file=R001"\n', LIB
        )
        assert {d.code for d in diagnostics} == {"R001"}


class TestReporters:
    def _sample(self):
        return check_source("import random\n", LIB)

    def test_text_report_lists_findings_and_summary(self):
        diagnostics = self._sample()
        report = render_text(diagnostics, files_checked=1)
        assert f"{LIB}:1:1: R001" in report
        assert "1 violation(s) in 1 file(s)" in report
        assert "OK:" in render_text([], files_checked=3)

    def test_json_report_schema(self):
        diagnostics = self._sample()
        payload = json.loads(render_json(diagnostics, files_checked=1))
        assert payload["version"] == 3
        assert payload["tool"] == "reprolint"
        assert payload["summary"] == {
            "files_checked": 1,
            "violations": 1,
            "by_code": {"R001": 1},
        }
        (item,) = payload["diagnostics"]
        assert set(item) == {"path", "line", "column", "code", "message"}
        assert item["path"] == LIB
        assert item["line"] == 1
        assert item["code"] == "R001"

    def test_diagnostics_sort_by_location(self):
        unsorted = [
            Diagnostic("b.py", 1, 1, "R001", "x"),
            Diagnostic("a.py", 9, 1, "R004", "x"),
            Diagnostic("a.py", 2, 1, "R006", "x"),
        ]
        ordered = sorted(unsorted)
        assert [(d.path, d.line) for d in ordered] == [
            ("a.py", 2), ("a.py", 9), ("b.py", 1),
        ]


class TestRunnerAndRegistry:
    def test_syntax_error_becomes_diagnostic(self):
        (diagnostic,) = check_source("def broken(:\n", LIB)
        assert diagnostic.code == "E001"

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "ok.cpython-311.py").write_text("")
        (tmp_path / "pkg" / "notes.txt").write_text("")
        found = list(iter_python_files([str(tmp_path)]))
        assert [os.path.basename(f) for f in found] == ["ok.py"]

    def test_run_lint_walks_directories(self, tmp_path):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        diagnostics, files_checked = run_lint([str(tmp_path)])
        assert files_checked == 1
        assert [d.code for d in diagnostics] == ["R001"]

    def test_select_and_ignore_filter_rules(self):
        source = "import random\n\ndef f(x=[]):\n    return x\n"
        all_codes = {d.code for d in check_source(source, LIB)}
        assert all_codes == {"R001", "R006"}
        only = {
            d.code
            for d in check_source(source, LIB, rules=all_rules(select=["R006"]))
        }
        assert only == {"R006"}
        ignored = {
            d.code
            for d in check_source(source, LIB, rules=all_rules(ignore=["R006"]))
        }
        assert ignored == {"R001"}

    def test_unknown_codes_raise(self):
        with pytest.raises(KeyError):
            all_rules(select=["R999"])

    def test_registry_rejects_malformed_rules(self):
        with pytest.raises(ValueError):
            @rule
            class MissingCode:
                name = "nameless"
                rationale = "no code attribute"

                def check(self, module):
                    return []

    def test_duplicate_codes_are_rejected(self):
        with pytest.raises(ValueError):
            @rule
            class DuplicateR001:
                code = "R001"
                name = "duplicate"
                rationale = "already taken"

                def check(self, module):
                    return []


class TestCliAndSelfCheck:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R002", "R003", "R004", "R005", "R006", "R007",
                     "R012"):
            assert code in out

    def test_violations_exit_1_with_text_report(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["violations"] == 0

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert lint_main([str(empty)]) == 2
        assert lint_main(["--select", "R999", str(empty)]) == 2
        capsys.readouterr()

    def test_repo_self_check_is_clean(self, capsys):
        """`repro-lint src tests` must exit 0 on this repository."""
        src = os.path.join(REPO_ROOT, "src")
        tests = os.path.join(REPO_ROOT, "tests")
        assert lint_main([src, tests]) == 0
        assert "no violations" in capsys.readouterr().out
