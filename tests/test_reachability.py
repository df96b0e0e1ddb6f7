"""Every ``src/repro`` module is reached from the CLI, or kept by name.

The paper's artifacts are the registered experiments, and the CLI is
how they run, so a module that no CLI entry point can import is code no
paper artifact needs.  This walk reads the sources with :mod:`ast` and
imports nothing:

* the roots are ``repro.cli``, ``repro.__main__`` and
  ``repro.analysis.__main__``;
* the edges are every ``import`` and ``from ... import`` in a
  non-``__init__`` module, function-level imports included;
  ``from repro.pkg import X`` is an edge to the module that defines
  ``X``, following the package ``__init__``'s re-exports;
* a package ``__init__`` is reached when any of its submodules is, but
  its own imports are not followed (re-exports reach nothing);
* a module that imports lazily by dotted name (the experiment registry)
  is listed in :data:`LAZY_TABLES` with the module-level table holding
  those names, and every string in that table that names a module is an
  edge.  A module named anywhere else (a docstring, a comment, an error
  message) stays unreached.

What stays unreached must be listed in :data:`KEPT` with its reason, so
a new dead module fails here, and so does a kept one that the CLI
starts to reach.
"""

import ast
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src")

ROOTS = ("repro.cli", "repro.__main__", "repro.analysis.__main__")

#: Module -> the module-level name of its table of lazily imported
#: dotted module names.
LAZY_TABLES = {"repro.experiments.registry": "_ENTRIES"}

#: Modules no CLI path imports, kept on purpose.
KEPT = {
    "repro.link.csma": "CSMA/CA + CCA model of the Sec. IV-B coexistence "
    "argument; tested, not a table or figure",
    "repro.wifi.convcode": "802.11g substrate: convolutional encoder and "
    "Viterbi decoder of the TX/RX chain",
    "repro.wifi.interleaver": "802.11g substrate: block interleaver of the "
    "TX/RX chain",
    "repro.wifi.preamble": "802.11g substrate: STF/LTF preamble of the TX/RX "
    "chain",
    "repro.wifi.receiver": "802.11g substrate: reference receiver that "
    "round-trips the transmitter",
    "repro.wifi.softdemap": "802.11g substrate: soft LLR demapping and "
    "Viterbi of the receiver",
    "repro.wifi.sync": "802.11g substrate: packet detection and CFO "
    "estimation of the receiver",
    "repro.wifi.transmitter": "802.11g substrate: the standard transmitter "
    "that the reference receiver round-trips",
}


def discover(source_root):
    """``{dotted module name: (path, is_package)}`` of every module."""
    modules = {}
    for directory, _, files in os.walk(os.path.join(source_root, "repro")):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            parts = os.path.relpath(path, source_root)[:-3].split(os.sep)
            is_package = parts[-1] == "__init__"
            if is_package:
                parts = parts[:-1]
            modules[".".join(parts)] = (path, is_package)
    return modules


def _package_of(name):
    return name.rsplit(".", 1)[0] if "." in name else None


class ImportGraph:
    """Module-level import edges of the ``repro`` sources."""

    def __init__(self, source_root):
        self.modules = discover(source_root)
        self._trees = {}

    def tree(self, name):
        if name not in self._trees:
            path = self.modules[name][0]
            with open(path, encoding="utf-8") as handle:
                self._trees[name] = ast.parse(handle.read(), path)
        return self._trees[name]

    def defining_module(self, module, symbol, seen=()):
        """The module that defines ``symbol`` as imported from ``module``."""
        submodule = f"{module}.{symbol}"
        if submodule in self.modules:
            return submodule
        if module not in self.modules or not self.modules[module][1]:
            return module
        if (module, symbol) in seen:
            return module
        for node in self.tree(module).body:
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if (alias.asname or alias.name) == symbol:
                        return self.defining_module(
                            node.module, alias.name, seen + ((module, symbol),)
                        )
        return module

    def edges(self, name):
        """Every ``repro`` module that ``name``'s imports resolve to."""
        targets = set()
        for node in ast.walk(self.tree(name)):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    targets.add(self.defining_module(node.module, alias.name))
        targets.update(self.lazy_edges(name))
        return {target for target in targets if target in self.modules}

    def lazy_edges(self, name):
        """Module names in ``name``'s :data:`LAZY_TABLES` table, if any."""
        table = LAZY_TABLES.get(name)
        for node in self.tree(name).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == table
                for target in node.targets
            ):
                return {
                    constant.value for constant in ast.walk(node.value)
                    if isinstance(constant, ast.Constant)
                    and constant.value in self.modules
                }
        return set()

    def reached(self, roots):
        reached = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in reached:
                continue
            reached.add(name)
            package = _package_of(name)
            while package is not None:
                reached.add(package)
                package = _package_of(package)
            if not self.modules[name][1]:
                stack.extend(self.edges(name) - reached)
        return reached


def unreached(source_root=SOURCE_ROOT):
    graph = ImportGraph(source_root)
    return set(graph.modules) - graph.reached(ROOTS)


def test_a_module_named_outside_the_table_stays_unreached(tmp_path):
    files = {
        "repro/__init__.py": "",
        "repro/__main__.py": "",
        "repro/analysis/__init__.py": "",
        "repro/analysis/__main__.py": "",
        "repro/cli.py": "import repro.experiments.registry\n",
        "repro/experiments/__init__.py": "",
        "repro/experiments/registry.py": (
            '"""Once listed repro.experiments.dead."""\n'
            '_ENTRIES = [("live", "repro.experiments.live")]\n'
            'OTHER = ["repro.experiments.dead"]\n'
        ),
        "repro/experiments/live.py": "",
        "repro/experiments/dead.py": "",
    }
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unreached(str(tmp_path)) == {"repro.experiments.dead"}


def test_only_the_kept_modules_are_unreached():
    dead = unreached()
    assert sorted(dead - set(KEPT)) == [], "modules no CLI path imports"
    assert sorted(set(KEPT) - dead) == [], "KEPT modules reached or gone"

