"""The per-module rules: determinism, picklability, telemetry, dtypes.

Each rule is an AST pass over one :class:`ModuleContext`.  They encode
the contracts the reproduction's correctness rests on — see
``docs/STATIC_ANALYSIS.md`` for the catalogue with full rationale.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.context import ModuleContext
from repro.analysis.diagnostics import Diagnostic

#: ``numpy.random`` attributes that construct or type seeded streams —
#: everything else on the module is legacy global-state API.
SEEDED_NUMPY_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Clock reads that bypass telemetry's span/stopwatch primitives.
RAW_CLOCK_READS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}

#: Stream write calls that bypass the event-stream/report layer.
DIRECT_STREAM_WRITES = {
    "sys.stdout.write",
    "sys.stdout.writelines",
    "sys.stderr.write",
    "sys.stderr.writelines",
}

#: Engine-wiring primitives owned by the sweep runner (see R012).
ENGINE_WIRING_NAMES = {
    "MonteCarloEngine",
    "open_checkpoint_store",
    "AdaptiveSweep",
}

#: Path suffixes allowed to touch the engine-wiring primitives: the
#: sweep runner itself, the layers it is built from, and the package
#: facade that re-exports the public names.
ENGINE_WIRING_HOMES = (
    "repro/experiments/sweep.py",
    "repro/experiments/engine.py",
    "repro/experiments/checkpoint.py",
    "repro/experiments/adaptive.py",
    "repro/experiments/__init__.py",
)

#: Parameter names that count as "accepts a seedable stream".
RNG_PARAMETER_NAMES = {"rng", "rngs", "seed", "seeds"}

#: Helpers from :mod:`repro.utils.rng` that thread caller streams.
RNG_THREADING_HELPERS = {"ensure_rng", "spawn_rngs", "spawn_seeds"}

#: numpy array constructors whose default dtype is float64.
FLOAT_DEFAULT_ALLOCATORS = ("zeros", "empty", "ones", "full")

#: numpy converters that inherit their input's dtype when none is given.
DTYPE_INHERITING_CONVERTERS = ("asarray", "array", "ascontiguousarray")

#: Package prefixes of the receive-chain kernels R009 holds to explicit
#: dtypes (a module matches when its dotted name plus ``.`` does).
KERNEL_PACKAGE_PREFIXES = (
    "repro.zigbee.",
    "repro.wifi.",
    "repro.defense.",
    "repro.utils.signal_ops.",
)


def _diag(module: ModuleContext, node: ast.AST, code: str, message: str) -> Diagnostic:
    return Diagnostic(
        path=module.path,
        line=getattr(node, "lineno", 1),
        column=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
    )


def _function_parameter_names(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda],
) -> Set[str]:
    """Every parameter name of a function def, including * and **."""
    args = node.args
    names = {
        arg.arg
        for arg in (
            list(getattr(args, "posonlyargs", []))
            + list(args.args)
            + list(args.kwonlyargs)
        )
    }
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


class NoLegacyGlobalRng:
    """R001 — only seeded ``numpy`` generator streams, no stdlib ``random``."""

    code = "R001"
    name = "no-legacy-global-rng"
    rationale = (
        "Global-state RNGs (np.random free functions, stdlib random) make "
        "results depend on call order and process boundaries, breaking the "
        "engine's bit-identical serial/parallel guarantee."
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random" and module.is_library:
                        yield _diag(
                            module, node, self.code,
                            "stdlib 'random' is banned in library code; "
                            "use numpy default_rng via repro.utils.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue
                if module.is_library and node.module.split(".")[0] == "random":
                    yield _diag(
                        module, node, self.code,
                        "stdlib 'random' is banned in library code; "
                        "use numpy default_rng via repro.utils.rng",
                    )
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in SEEDED_NUMPY_RANDOM | {"*"}:
                            yield _diag(
                                module, node, self.code,
                                f"legacy global-state RNG "
                                f"'numpy.random.{alias.name}'; use "
                                f"default_rng / Generator streams",
                            )
            elif isinstance(node, ast.Attribute):
                resolved = module.resolve(node)
                if resolved is None:
                    continue
                if resolved.startswith("numpy.random."):
                    first = resolved[len("numpy.random."):].split(".")[0]
                    if first and first not in SEEDED_NUMPY_RANDOM:
                        yield _diag(
                            module, node, self.code,
                            f"legacy global-state RNG '{resolved}'; use "
                            f"default_rng / Generator streams",
                        )
                elif module.is_library and (
                    resolved == "random" or resolved.startswith("random.")
                ):
                    yield _diag(
                        module, node, self.code,
                        f"stdlib RNG '{resolved}' is banned in library "
                        f"code; use numpy default_rng via repro.utils.rng",
                    )


class RngMustBeThreaded:
    """R002 — stochastic functions accept and thread an ``rng``."""

    code = "R002"
    name = "rng-threading"
    rationale = (
        "An unseeded generator constructed inside a function cannot be "
        "pinned by callers, so any result flowing through it is "
        "unreproducible; streams must enter through an rng parameter and "
        "ensure_rng/spawn_seeds."
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if module.is_rng_module:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_call(
        self, module: ModuleContext, node: ast.Call
    ) -> Iterator[Diagnostic]:
        basename = module.basename(node.func)
        if basename == "default_rng" and not node.args and not node.keywords:
            yield _diag(
                module, node, self.code,
                "unseeded default_rng(); accept an rng parameter and pass "
                "it through repro.utils.rng.ensure_rng",
            )
        elif basename == "ensure_rng" and not node.args and not node.keywords:
            yield _diag(
                module, node, self.code,
                "ensure_rng() without a stream silently builds an unseeded "
                "generator; thread the caller's rng through",
            )

    def _check_function(
        self,
        module: ModuleContext,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    ) -> Iterator[Diagnostic]:
        if not module.is_library or node.name.startswith("_"):
            return
        parameters = _function_parameter_names(node)
        if parameters & RNG_PARAMETER_NAMES or "kwargs" in parameters:
            return
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            if module.basename(inner.func) not in RNG_THREADING_HELPERS:
                continue
            # Threading state held on the instance (self.rng) is fine.
            if inner.args and isinstance(inner.args[0], ast.Attribute):
                continue
            yield _diag(
                module, inner, self.code,
                f"public function '{node.name}' derives random streams but "
                f"accepts no rng/seed parameter to pin them",
            )
            return


class _TrialScope:
    """One lexical function scope: which local names are unpicklable."""

    __slots__ = ("unpicklable",)

    def __init__(self) -> None:
        # name -> "nested def" | "lambda"
        self.unpicklable = {}


class EngineTrialsMustPickle:
    """R003 — engine trial callables are module-level defs."""

    code = "R003"
    name = "engine-trial-picklability"
    rationale = (
        "MonteCarloEngine ships trial callables to worker processes by "
        "pickling; lambdas, closures, and nested defs pickle by qualified "
        "name and fail (or silently force the sequential fallback)."
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        self._visit(module, module.tree, [], diagnostics)
        yield from diagnostics

    # -- scope-tracking walk ------------------------------------------

    def _visit(
        self,
        module: ModuleContext,
        node: ast.AST,
        scopes: List[_TrialScope],
        out: List[Diagnostic],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if scopes:  # a def nested inside a function
                scopes[-1].unpicklable[node.name] = "nested def"
            scopes = scopes + [_TrialScope()]
        elif isinstance(node, ast.Assign) and scopes:
            if isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        scopes[-1].unpicklable[target.id] = "lambda"
        if isinstance(node, ast.Call):
            self._check_run_call(module, node, scopes, out)
        for child in ast.iter_child_nodes(node):
            self._visit(module, child, scopes, out)

    def _check_run_call(
        self,
        module: ModuleContext,
        node: ast.Call,
        scopes: List[_TrialScope],
        out: List[Diagnostic],
    ) -> None:
        if not isinstance(node.func, ast.Attribute) or node.func.attr != "run":
            return
        if not self._is_engine_session(module, node.func.value):
            return
        trial = node.args[0] if node.args else None
        if trial is None:
            for keyword in node.keywords:
                if keyword.arg == "trial":
                    trial = keyword.value
        if trial is None:
            return
        if isinstance(trial, ast.Lambda):
            out.append(_diag(
                module, trial, self.code,
                "lambda passed as an engine trial; trials must be "
                "module-level defs so worker processes can unpickle them",
            ))
        elif isinstance(trial, ast.Name):
            for scope in reversed(scopes):
                kind = scope.unpicklable.get(trial.id)
                if kind is not None:
                    out.append(_diag(
                        module, trial, self.code,
                        f"{kind} '{trial.id}' passed as an engine trial; "
                        f"trials must be module-level defs so worker "
                        f"processes can unpickle them",
                    ))
                    break

    @staticmethod
    def _is_engine_session(
        module: ModuleContext, receiver: ast.AST
    ) -> bool:
        """Heuristic: does ``receiver.run(...)`` target the MC engine?"""
        if isinstance(receiver, ast.Name):
            lowered = receiver.id.lower()
            return "session" in lowered or "engine" in lowered
        if isinstance(receiver, ast.Call):
            func = receiver.func
            return isinstance(func, ast.Attribute) and func.attr == "session"
        if isinstance(receiver, ast.Attribute):
            return "session" in receiver.attr.lower()
        return False


class TelemetryDiscipline:
    """R004 — spans open via ``with``/``@traced``; no raw clock reads."""

    code = "R004"
    name = "telemetry-discipline"
    rationale = (
        "A span() handle that never enters a with-block corrupts the span "
        "stack, and ad-hoc time.time() deltas bypass the aggregated span "
        "tree that makes runs comparable; repro.telemetry owns the clock."
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if module.is_telemetry_module:
            return
        with_items = module.with_item_expressions
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func)
            if resolved in RAW_CLOCK_READS:
                yield _diag(
                    module, node, self.code,
                    f"raw clock read '{resolved}()'; time through "
                    f"repro.telemetry span()/stopwatch() instead",
                )
                continue
            if self._is_span_call(module, node) and id(node) not in with_items:
                yield _diag(
                    module, node, self.code,
                    "span() outside a with-statement leaks an open span; "
                    "use 'with telemetry.span(...):' or @traced",
                )

    @staticmethod
    def _is_span_call(module: ModuleContext, node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "span":
            return False
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return "telemetry" in receiver.id.lower()
        if isinstance(receiver, ast.Call):
            return module.basename(receiver.func) == "get_telemetry"
        return False


class DecibelUnitHygiene:
    """R005 — dB-valued names carry ``_db``/``_dbm``; no double de-dB."""

    code = "R005"
    name = "db-unit-hygiene"
    rationale = (
        "SNR/RSSI columns mix dB and linear power; a missing _db suffix "
        "or a double 10**(x/10) conversion shifts every threshold the "
        "detector ROC sweeps over, silently skewing reproduced figures."
    )

    _LOG_FACTORS = (10, 20)

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_assignment(module, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                yield from self._check_de_db(module, node)

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _is_constant(node: ast.AST, values: Tuple[float, ...]) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and float(node.value) in values
        )

    @classmethod
    def _is_db_expression(cls, node: ast.AST) -> bool:
        """Does the expression contain a ``10*log10(...)`` style product?"""
        for candidate in ast.walk(node):
            if not (
                isinstance(candidate, ast.BinOp)
                and isinstance(candidate.op, ast.Mult)
            ):
                continue
            operands = cls._flatten_product(candidate)
            has_factor = any(
                cls._is_constant(operand, (10.0, 20.0)) for operand in operands
            )
            has_log = any(
                isinstance(inner, ast.Call)
                and isinstance(
                    inner.func, (ast.Name, ast.Attribute)
                )
                and (
                    inner.func.attr
                    if isinstance(inner.func, ast.Attribute)
                    else inner.func.id
                )
                == "log10"
                for operand in operands
                for inner in ast.walk(operand)
            )
            if has_factor and has_log:
                return True
        return False

    @staticmethod
    def _flatten_product(node: ast.BinOp) -> List[ast.AST]:
        """Operands of a left-leaning multiplication chain."""
        operands: List[ast.AST] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, ast.BinOp) and isinstance(current.op, ast.Mult):
                stack.extend((current.left, current.right))
            else:
                operands.append(current)
        return operands

    @staticmethod
    def _has_db_suffix(name: str) -> bool:
        lowered = name.lower()
        return (
            lowered.endswith(("_db", "_dbm", "_db_hz", "_dbm_hz"))
            or lowered in ("db", "dbm")
        )

    def _check_assignment(
        self,
        module: ModuleContext,
        node: Union[ast.Assign, ast.AnnAssign],
    ) -> Iterator[Diagnostic]:
        value = node.value
        if value is None or not self._is_db_expression(value):
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is not None and not self._has_db_suffix(name):
                yield _diag(
                    module, node, self.code,
                    f"'{name}' is assigned a 10*log10/20*log10 expression "
                    f"but lacks a _db/_dbm suffix",
                )

    def _is_de_db(self, node: ast.AST) -> bool:
        """Matches ``10 ** (x / 10)`` (and the ``/ 20`` amplitude form)."""
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and self._is_constant(node.left, (10.0,))
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Div)
            and self._is_constant(node.right.right, (10.0, 20.0))
        )

    def _check_de_db(
        self, module: ModuleContext, node: ast.BinOp
    ) -> Iterator[Diagnostic]:
        if not self._is_de_db(node) or not isinstance(node.right, ast.BinOp):
            return
        operand = node.right.left
        for inner in ast.walk(operand):
            if inner is not node and self._is_de_db(inner):
                yield _diag(
                    module, node, self.code,
                    "nested 10**(x/10): the operand is already linear; "
                    "converting a _db value out of dB twice",
                )
                return


class NoSloppyLibraryCode:
    """R006 — no mutable defaults; no bare/overbroad excepts in library."""

    code = "R006"
    name = "library-hygiene"
    rationale = (
        "Mutable defaults alias state across calls (and across engine "
        "worker lifetimes); bare/overbroad excepts swallow the "
        "ConfigurationError contract and mask real failures as silent "
        "fallbacks."
    )

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}
    _OVERBROAD = {"Exception", "BaseException"}

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from self._check_defaults(module, node)
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(module, node)

    def _check_defaults(
        self,
        module: ModuleContext,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda],
    ) -> Iterator[Diagnostic]:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CALLS
                and not default.args
                and not default.keywords
            )
            if mutable:
                label = getattr(node, "name", "<lambda>")
                yield _diag(
                    module, default, self.code,
                    f"mutable default argument in '{label}'; default to "
                    f"None and build the container inside",
                )

    def _check_handler(
        self, module: ModuleContext, node: ast.ExceptHandler
    ) -> Iterator[Diagnostic]:
        if node.type is None:
            yield _diag(
                module, node, self.code,
                "bare 'except:' catches SystemExit/KeyboardInterrupt; name "
                "the exception types this site can actually handle",
            )
            return
        if not module.is_library:
            return
        names = []
        candidates = (
            node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                names.append(candidate.id)
        for name in names:
            if name in self._OVERBROAD:
                yield _diag(
                    module, node, self.code,
                    f"overbroad 'except {name}' in library code; catch the "
                    f"specific exception types this site can handle",
                )
                return


class NoDirectEngineWiring:
    """R012 — engine/checkpoint/adaptive wiring lives in the sweep runner."""

    code = "R012"
    name = "no-direct-engine-wiring"
    rationale = (
        "Experiment drivers that hand-wire MonteCarloEngine, checkpoint "
        "stores, or AdaptiveSweep re-implement the sweep runner's "
        "fingerprinting, RNG-slot, and telemetry contracts and drift out "
        "of them; drivers declare a SweepSpec and let run_sweep own the "
        "wiring."
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not module.is_library or module.path.endswith(ENGINE_WIRING_HOMES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in ENGINE_WIRING_NAMES:
                        yield _diag(
                            module, node, self.code,
                            f"direct engine wiring: '{alias.name}' is owned "
                            f"by repro.experiments.sweep; declare a "
                            f"SweepSpec and call run_sweep instead",
                        )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                resolved = module.resolve(node)
                if resolved is None:
                    continue
                if resolved.rsplit(".", 1)[-1] in ENGINE_WIRING_NAMES:
                    yield _diag(
                        module, node, self.code,
                        f"direct engine wiring: '{resolved}' is owned by "
                        f"repro.experiments.sweep; declare a SweepSpec "
                        f"and call run_sweep instead",
                    )


class NoDirectOutput:
    """R007 — library code never prints or writes stdout/stderr itself."""

    code = "R007"
    name = "no-direct-output"
    rationale = (
        "A print() buried in library code corrupts --json output, "
        "interleaves garbage into worker-process logs, and is invisible "
        "to the event stream; user-facing output belongs to CLI entry "
        "points, report renderers, and telemetry event sinks."
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if (
            not module.is_library
            or module.is_cli_module
            or module.is_reporter_module
        ):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield _diag(
                    module, node, self.code,
                    "print() in library code; return strings, or emit "
                    "through repro.telemetry.events sinks",
                )
                continue
            resolved = module.resolve(func)
            if resolved in DIRECT_STREAM_WRITES:
                yield _diag(
                    module, node, self.code,
                    f"direct stream write '{resolved}()' in library code; "
                    f"route output through an event sink or a renderer",
                )


class _DtypeChecker:
    """Per-function dtype/promotion hygiene pass behind R009."""

    COMPLEX_DTYPES = {"complex", "complex128", "cdouble", "complex_"}
    COMPLEX64_DTYPES = {"complex64", "csingle", "singlecomplex"}
    FLOAT_DTYPES = {"float", "float64", "float32", "double"}

    def __init__(self, module: ModuleContext, out: List[Diagnostic]) -> None:
        self.module = module
        self.out = out
        self.dtypes: Dict[str, str] = {}

    # -- dtype inference ----------------------------------------------

    def _dtype_tag(self, node: Optional[ast.AST]) -> Optional[str]:
        """Classify a ``dtype=`` argument expression."""
        if node is None:
            return None
        name = None
        if isinstance(node, (ast.Name, ast.Attribute)):
            resolved = self.module.basename(node)
            name = resolved.lower() if resolved else None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.lower()
        if name is None:
            return "unknown"
        if name in self.COMPLEX64_DTYPES:
            return "complex64"
        if name in self.COMPLEX_DTYPES:
            return "complex128"
        if name in self.FLOAT_DTYPES:
            return "float"
        return "unknown"

    def _infer(self, node: ast.AST) -> Optional[str]:
        """Best-effort dtype of an expression within this function."""
        if isinstance(node, ast.Name):
            return self.dtypes.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in ("real", "imag"):
            return "float"
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            return "complex128"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                for arg in node.args[:1]:
                    return self._dtype_tag(arg)
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        return self._dtype_tag(keyword.value)
            basename = self.module.basename(func)
            if basename in FLOAT_DEFAULT_ALLOCATORS + DTYPE_INHERITING_CONVERTERS:
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        return self._dtype_tag(keyword.value)
                if basename in FLOAT_DEFAULT_ALLOCATORS:
                    return "float_default"
                return None
        if isinstance(node, ast.BinOp):
            left = self._infer(node.left)
            right = self._infer(node.right)
            for tag in ("complex128", "complex64"):
                if left == tag or right == tag:
                    return tag
            return left or right
        return None

    def _is_complexish(self, node: ast.AST) -> bool:
        """Does the expression clearly produce complex values?"""
        inferred = self._infer(node)
        if inferred in ("complex128", "complex64"):
            return True
        if inferred is not None and inferred != "unknown":
            # A trusted real-valued inference (e.g. ``z.real``) wins
            # over the conservative name walk below.
            return False
        for inner in ast.walk(node):
            if isinstance(inner, ast.Constant) and isinstance(inner.value, complex):
                return True
            if isinstance(inner, ast.Name) and (
                self.dtypes.get(inner.id) in ("complex128", "complex64")
            ):
                return True
        return False

    # -- the checks ----------------------------------------------------

    def _emit(self, node: ast.AST, message: str) -> None:
        self.out.append(_diag(self.module, node, "R009", message))

    def _numpy_call_basename(self, node: ast.Call) -> Optional[str]:
        resolved = self.module.resolve(node.func)
        if resolved is not None and resolved.startswith("numpy."):
            return resolved.rsplit(".", 1)[-1]
        return None

    @staticmethod
    def _has_dtype_keyword(node: ast.Call) -> bool:
        return any(keyword.arg == "dtype" for keyword in node.keywords)

    def _check_allocation(self, node: ast.Call) -> None:
        basename = self._numpy_call_basename(node)
        if basename in FLOAT_DEFAULT_ALLOCATORS and not self._has_dtype_keyword(node):
            self._emit(
                node,
                f"dtype-less np.{basename}() defaults to float64; pass an "
                f"explicit dtype so complex/real intent survives the "
                f"batched kernels",
            )

    def _check_converter_feeding_kernel(self, call: ast.Call) -> None:
        """Flag dtype-less asarray/array passed straight into a kernel."""
        callee = self.module.resolve(call.func)
        if callee is None or not callee.startswith(KERNEL_PACKAGE_PREFIXES):
            return
        for arg in call.args:
            if not isinstance(arg, ast.Call):
                continue
            basename = self._numpy_call_basename(arg)
            if (
                basename in DTYPE_INHERITING_CONVERTERS
                and not self._has_dtype_keyword(arg)
            ):
                self._emit(
                    arg,
                    f"dtype-less np.{basename}() flows into receive-chain "
                    f"kernel '{callee.rsplit('.', 1)[-1]}'; pass dtype= "
                    f"explicitly",
                )

    def _check_store(self, node: Union[ast.Assign, ast.AugAssign]) -> None:
        """Complex value stored into a float-dtyped (or default) buffer."""
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            if not isinstance(target.value, ast.Name):
                continue
            tag = self.dtypes.get(target.value.id)
            if tag in ("float", "float_default") and self._is_complexish(node.value):
                self._emit(
                    node,
                    f"complex value stored into real-dtyped buffer "
                    f"'{target.value.id}'; the imaginary part is silently "
                    f"discarded — allocate the buffer as complex",
                )

    def _check_mixing(self, node: ast.BinOp) -> None:
        tags = {self._infer(node.left), self._infer(node.right)}
        if "complex64" in tags and "complex128" in tags:
            self._emit(
                node,
                "complex64/complex128 mixing promotes silently to "
                "complex128; unify the dtypes in this receive-chain kernel",
            )

    def run(self, function: ast.AST) -> None:
        """Infer local dtypes, then check every node of one function."""
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
                isinstance(node.targets[0], ast.Name)
            ):
                inferred = self._infer(node.value)
                if inferred is not None:
                    self.dtypes[node.targets[0].id] = inferred
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                self._check_allocation(node)
                self._check_converter_feeding_kernel(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._check_store(node)
            elif isinstance(node, ast.BinOp):
                self._check_mixing(node)


class DtypePromotionHygiene:
    """R009 — receive-chain kernels state their dtypes explicitly."""

    code = "R009"
    name = "dtype-promotion-hygiene"
    rationale = (
        "Implicit float64 defaults and silent complex promotion in the "
        "receive-chain kernels are where a row drifts by one ulp between "
        "batch sizes, breaking the kernels' row-independence contract."
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not module.is_library or not (module.module_name + ".").startswith(
            KERNEL_PACKAGE_PREFIXES
        ):
            return
        found: List[Diagnostic] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _DtypeChecker(module, found).run(node)
        yield from found


#: The rule set, in code order.  A new rule is one class above plus one
#: entry here.
RULES: Tuple[Any, ...] = (
    NoLegacyGlobalRng(),
    RngMustBeThreaded(),
    EngineTrialsMustPickle(),
    TelemetryDiscipline(),
    DecibelUnitHygiene(),
    NoSloppyLibraryCode(),
    NoDirectOutput(),
    DtypePromotionHygiene(),
    NoDirectEngineWiring(),
)


def all_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Any]:
    """:data:`RULES`, optionally filtered.

    Args:
        select: when given, only these codes run.
        ignore: codes to drop after selection.

    Raises:
        KeyError: a code in ``select`` or ``ignore`` names no rule.
    """
    selected = set(select) if select else None
    ignored = set(ignore or ())
    unknown = (set(selected or ()) | ignored) - {r.code for r in RULES}
    if unknown:
        raise KeyError(f"unknown rule codes: {', '.join(sorted(unknown))}")
    return [
        r for r in RULES
        if (selected is None or r.code in selected) and r.code not in ignored
    ]
