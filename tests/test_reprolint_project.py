"""Tests for reprolint's project layer (R011) and the R009 scope.

Every fixture is a miniature on-disk project: a ``pyproject.toml`` root
marker plus modules under ``src/repro/`` so role classification sees
library code.  Each rule gets one failing and one passing project, and
cross-module suppression and the JSON report are exercised through the
same public entry points CI uses.
"""

import json

import pytest

from repro.analysis.cli import build_parser, execute
from repro.analysis.runner import run_lint

PYPROJECT = "[project]\nname = 'lintdemo'\n"


def _write_project(root, files):
    (root / "pyproject.toml").write_text(PYPROJECT)
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def _lint(root, **kwargs):
    diagnostics, _ = run_lint([str(root / "src"), str(root / "tests")], **kwargs)
    return diagnostics


def _codes(diagnostics):
    return sorted({diag.code for diag in diagnostics})


class TestDtypePromotionHygiene:
    """R009: no implicit float64 defaults in the receive-chain packages."""

    FIXTURE = """\
import numpy as np

from repro.experiments.engine import batch_trial


def _make_buffer(count):
    return np.zeros(count{dtype})


@batch_trial
def draw_trial(context, args, rng):
    return _make_buffer(4)
"""

    FIXTURE_TEST = (
        "from repro.zigbee.kernels import _make_buffer, draw_trial\n\n\n"
        "def test_trial():\n"
        "    assert draw_trial is not None and _make_buffer is not None\n"
    )

    def test_dtypeless_allocation_on_trial_path_fails(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/zigbee/kernels.py": self.FIXTURE.format(dtype=""),
            "tests/test_kernels.py": self.FIXTURE_TEST,
        })
        diagnostics = _lint(tmp_path, select=["R009"])
        assert _codes(diagnostics) == ["R009"]
        assert "np.zeros()" in diagnostics[0].message

    def test_explicit_dtype_passes(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/zigbee/kernels.py": self.FIXTURE.format(
                dtype=", dtype=np.float64"
            ),
            "tests/test_kernels.py": self.FIXTURE_TEST,
        })
        diagnostics = _lint(tmp_path, select=["R009"])
        assert diagnostics == []

    def test_dtypeless_allocation_without_trial_root_fails(self, tmp_path):
        """A plain receiver method is in scope with no engine trial
        anywhere: kernels reached through ``StreamSpec(trial=...)`` have
        no ``@batch_trial`` root, so R009 must not depend on one."""
        _write_project(tmp_path, {
            "src/repro/zigbee/receiver.py": (
                "import numpy as np\n\n\n"
                "class ZigBeeReceiver:\n"
                "    def receive(self, samples):\n"
                "        soft = np.zeros(len(samples))\n"
                "        return soft\n"
            ),
        })
        diagnostics = _lint(tmp_path, select=["R009"])
        assert [(d.code, d.line) for d in diagnostics] == [("R009", 6)]

    def test_code_outside_the_kernel_packages_is_out_of_scope(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/experiments/table9.py": (
                "import numpy as np\n\n\n"
                "def rows(count):\n"
                "    return np.zeros(count)\n"
            ),
        })
        assert _lint(tmp_path, select=["R009"]) == []


class TestCounterCatalogue:
    """R011: counters incremented in code <-> documented catalogue."""

    CODE = (
        "def record(telemetry):\n"
        "    telemetry.count('engine.trials')\n"
    )

    @staticmethod
    def _catalogue(*names):
        lines = "\n".join(f"- `{name}` — documented." for name in names)
        return f"# Observability\n\n## Counter catalogue\n\n{lines}\n"

    def test_undocumented_counter_fails(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/engine.py": self.CODE,
            "docs/OBSERVABILITY.md": self._catalogue("engine.retries"),
        })
        diagnostics = _lint(tmp_path, select=["R011"])
        assert _codes(diagnostics) == ["R011"]
        messages = " ".join(d.message for d in diagnostics)
        assert "engine.trials" in messages

    def test_documented_counter_passes(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/engine.py": self.CODE,
            "docs/OBSERVABILITY.md": self._catalogue("engine.trials"),
        })
        diagnostics = _lint(tmp_path, select=["R011"])
        assert diagnostics == []


class TestCrossModuleSuppression:
    """Satellite: disable comments resolve against the anchor file."""

    def test_anchor_file_disable_suppresses_project_rule(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/engine.py": (
                "def record(telemetry):\n"
                "    telemetry.count('engine.trials')"
                "  # reprolint: disable=R011\n"
            ),
            "docs/OBSERVABILITY.md": TestCounterCatalogue._catalogue(
                "engine.retries"
            ),
        })
        diagnostics = _lint(tmp_path, select=["R011"])
        assert diagnostics == []

    def test_disable_in_another_file_does_not_leak(self, tmp_path):
        _write_project(tmp_path, {
            "src/repro/engine.py": TestCounterCatalogue.CODE,
            "src/repro/other.py": "# reprolint: disable=R011\n",
            "docs/OBSERVABILITY.md": TestCounterCatalogue._catalogue(
                "engine.retries"
            ),
        })
        diagnostics = _lint(tmp_path, select=["R011"])
        assert _codes(diagnostics) == ["R011"]


class TestCliSurface:
    """The flag plumbing: exit codes, JSON schema, unknown codes."""

    def _run(self, argv):
        return execute(build_parser().parse_args(argv))

    def test_unknown_select_code_exits_2(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        code = self._run([str(tmp_path), "--select", "R999"])
        assert code == 2
        assert "R999" in capsys.readouterr().err

    def test_unknown_ignore_code_exits_2(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        code = self._run([str(tmp_path), "--ignore", "R011,R999"])
        assert code == 2
        assert "R999" in capsys.readouterr().err

    def test_json_report_carries_cross_module_diagnostics(
        self, tmp_path, capsys
    ):
        _write_project(tmp_path, {
            "src/repro/engine.py": TestCounterCatalogue.CODE,
            "docs/OBSERVABILITY.md": TestCounterCatalogue._catalogue(
                "engine.retries"
            ),
        })
        code = self._run([
            str(tmp_path / "src"), "--select", "R011",
            "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 3
        assert payload["summary"]["violations"] == len(payload["diagnostics"])
        (diag,) = [d for d in payload["diagnostics"] if d["code"] == "R011"]
        assert diag["path"].endswith("engine.py")
        assert set(diag) >= {"path", "line", "column", "code", "message"}
        assert set(payload["summary"]) == {
            "files_checked", "violations", "by_code",
        }


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
