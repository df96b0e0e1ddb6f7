"""Counters in code and the ``docs/OBSERVABILITY.md`` catalogue agree.

Counters are the operator-facing contract: dashboards and the cross-run
regression gate key on their names.  Every literal
``telemetry.count("name")`` under ``src/repro`` must be listed under the
catalogue's ``## Counter catalogue`` heading, and every listed name
must still be incremented somewhere.  The scan always covers the whole
package, so both directions are checked on every run.
"""

import ast
import os
import re

from repro.analysis.context import ModuleContext

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO_ROOT, "src", "repro")
CATALOGUE = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")

#: The first backticked token of a catalogue bullet line.
_CATALOGUE_ENTRY = re.compile(r"^[*-]\s+`([A-Za-z0-9_.]+)`")


def _is_telemetry_receiver(module, receiver):
    """``telemetry``-named objects and ``get_telemetry()`` results."""
    if isinstance(receiver, ast.Name):
        return "telemetry" in receiver.id.lower()
    if isinstance(receiver, ast.Call):
        return module.basename(receiver.func) == "get_telemetry"
    return False


def counter_sites(package):
    """``{name: ["path:line", ...]}`` of every literal counter increment."""
    sites = {}
    for directory, _, files in os.walk(package):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            module = ModuleContext(path, source, ast.parse(source, path))
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "count"
                    and _is_telemetry_receiver(module, node.func.value)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    sites.setdefault(node.args[0].value, []).append(
                        f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}"
                    )
    return sites


def parse_counter_catalogue(text):
    """Names declared between ``## Counter catalogue`` and the next
    ``## `` heading: each bullet's first backticked token, so
    descriptions may mention other names freely."""
    entries = set()
    in_section = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.lower().startswith("## counter catalogue"):
            in_section = True
        elif in_section and stripped.startswith("## "):
            break
        elif in_section:
            match = _CATALOGUE_ENTRY.match(stripped)
            if match:
                entries.add(match.group(1))
    return entries


def catalogue_mismatches(package, catalogue_path):
    """``(undocumented, stale)``: counters missing from the catalogue
    with their sites, and catalogue entries nothing increments."""
    sites = counter_sites(package)
    with open(catalogue_path, encoding="utf-8") as handle:
        documented = parse_counter_catalogue(handle.read())
    undocumented = {
        name: where for name, where in sites.items() if name not in documented
    }
    return undocumented, sorted(documented - set(sites))


def test_code_counters_and_catalogue_agree():
    undocumented, stale = catalogue_mismatches(PACKAGE, CATALOGUE)
    assert undocumented == {}, (
        "counters missing from the '## Counter catalogue' section of "
        f"docs/OBSERVABILITY.md: {undocumented}"
    )
    assert stale == [], (
        f"catalogue entries no code increments (remove them or restore "
        f"the counter): {stale}"
    )


class TestCounterCatalogue:
    """The check on miniature packages: one fixture per direction."""

    CODE = (
        "from repro.telemetry import get_telemetry\n\n\n"
        "def record(telemetry, items):\n"
        "    telemetry.count('engine.trials')\n"
        "    get_telemetry().count('engine.retries')\n"
        "    items.count('not.a.counter')\n"
    )

    @staticmethod
    def _project(tmp_path, *documented):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "engine.py").write_text(TestCounterCatalogue.CODE)
        bullets = "\n".join(f"- `{name}` — documented." for name in documented)
        catalogue = tmp_path / "OBSERVABILITY.md"
        catalogue.write_text(
            "# Observability\n\n- `outside.section` — not an entry.\n\n"
            f"## Counter catalogue\n\n{bullets}\n\n## Next section\n\n"
            "- `after.section` — not an entry.\n"
        )
        return catalogue_mismatches(str(package), str(catalogue))

    def test_undocumented_counter_fails(self, tmp_path):
        undocumented, stale = self._project(tmp_path, "engine.retries")
        assert list(undocumented) == ["engine.trials"]
        assert undocumented["engine.trials"][0].endswith("engine.py:5")
        assert stale == []

    def test_documented_counter_passes(self, tmp_path):
        assert self._project(tmp_path, "engine.trials", "engine.retries") == (
            {}, []
        )

    def test_stale_entry_fails(self, tmp_path):
        undocumented, stale = self._project(
            tmp_path, "engine.trials", "engine.retries", "engine.gone"
        )
        assert undocumented == {}
        assert stale == ["engine.gone"]
