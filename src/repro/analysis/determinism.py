"""Determinism lint rules.

The paper's rate-0 guarantee — and every bit-identity test in this repo
— assumes the pipeline is a deterministic function of (inputs, seed).
These AST rules flag the three classic ways Python code silently breaks
that:

``unseeded-random``
    Calls into the stdlib ``random`` module's *global* generator (or an
    unseeded ``random.Random()``).  All randomness must flow through an
    explicitly seeded generator.

``numpy-legacy-random``
    Calls into NumPy's legacy global RNG (``np.random.rand``,
    ``np.random.seed``, ...).  Use ``np.random.default_rng(seed)`` or a
    keyed ``SeedSequence`` (see ``repro.faults.injector``).

``unseeded-default-rng``
    ``np.random.default_rng()`` with no seed — fresh OS entropy on
    every call.

``wall-clock``
    Direct clock reads (``time.time``, ``time.perf_counter``,
    ``datetime.now``, ...).  Benchmark code must go through the
    :mod:`repro.util.clock` shim (one audited access point); *model and
    simulator* code (``model/``, ``simulate/``) must not read clocks at
    all — simulated time is a model output, never a host measurement —
    so there even the shim is flagged.

``unordered-iteration``
    ``for``-loops, comprehensions, or ``sum()`` over a ``set`` /
    ``frozenset``.  Set iteration order depends on insertion history
    and hash seeding; when it feeds floating-point accumulation or
    schedule construction, runs stop being reproducible.  Wrap the set
    in ``sorted(...)`` or suppress with a pragma if order provably
    cannot matter.

``bsp-reduction-order``
    Augmented accumulation inside a loop over a dict view
    (``.items()`` / ``.values()`` / ``.keys()``) not wrapped in
    ``sorted(...)`` — the floating-point sum would follow insertion
    order.  (``unordered-iteration`` covers sets only.)
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.core import Finding, Rule, register

#: Stdlib ``random`` module-level functions backed by the global RNG.
RANDOM_MODULE_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "randbytes",
        "seed",
    }
)

#: NumPy legacy global-RNG functions (np.random.<fn>).
NUMPY_LEGACY_FNS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "get_state",
        "set_state",
        "standard_normal",
        "standard_cauchy",
        "standard_exponential",
        "uniform",
        "normal",
        "binomial",
        "poisson",
        "exponential",
        "beta",
        "gamma",
        "bytes",
    }
)

#: ``time`` module clock functions.
TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock",
    }
)

#: ``datetime.datetime`` constructors that read the host clock.
DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: Path fragments of *pure* model/simulator code where even the
#: audited clock shim is disallowed.
CLOCK_FREE_DIRS = ("model", "simulate")


class _ImportMap:
    """Aliases under which the interesting modules/names are visible."""

    def __init__(self, tree: ast.AST) -> None:
        self.random_aliases: Set[str] = set()
        self.numpy_aliases: Set[str] = set()
        self.numpy_random_aliases: Set[str] = set()  # from numpy import random
        self.time_aliases: Set[str] = set()
        self.datetime_mod_aliases: Set[str] = set()  # import datetime
        self.datetime_cls_aliases: Set[str] = set()  # from datetime import datetime
        self.clock_shim_aliases: Set[str] = set()  # from repro.util import clock
        # Bare names from from-imports: local name -> (module, original).
        self.from_names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_aliases.add(local)
                    elif alias.name == "numpy":
                        self.numpy_aliases.add(local)
                    elif alias.name == "numpy.random" and alias.asname:
                        self.numpy_random_aliases.add(local)
                    elif alias.name == "time":
                        self.time_aliases.add(local)
                    elif alias.name == "datetime":
                        self.datetime_mod_aliases.add(local)
                    elif alias.name == "repro.util.clock" and alias.asname:
                        self.clock_shim_aliases.add(local)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "numpy" and alias.name == "random":
                        self.numpy_random_aliases.add(local)
                    elif node.module == "datetime" and alias.name == "datetime":
                        self.datetime_cls_aliases.add(local)
                    elif node.module == "repro.util" and alias.name == "clock":
                        self.clock_shim_aliases.add(local)
                    else:
                        self.from_names[local] = (node.module, alias.name)


def _call_name(node: ast.Call) -> Tuple[str, ...]:
    """Dotted name of the called object, innermost first (may be empty)."""
    parts: List[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    else:
        return ()
    return tuple(reversed(parts))


def _finding(rule: str, path: str, node: ast.AST, message: str) -> Finding:
    return Finding(
        rule=rule,
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


@register
class UnseededRandomRule(Rule):
    name = "unseeded-random"
    description = (
        "stdlib `random` global-RNG call; use an explicitly seeded generator"
    )

    def check_python(self, path, source, tree):
        imports = _ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if not dotted:
                continue
            # random.shuffle(...), r.random(), ...
            if (
                len(dotted) == 2
                and dotted[0] in imports.random_aliases
                and dotted[1] in RANDOM_MODULE_FNS
            ):
                yield _finding(
                    self.name,
                    path,
                    node,
                    f"call to global-RNG `random.{dotted[1]}`; seed a "
                    "`random.Random(seed)` (or use numpy's default_rng)",
                )
            # random.Random() / random.SystemRandom()
            elif (
                len(dotted) == 2
                and dotted[0] in imports.random_aliases
                and dotted[1] in ("Random", "SystemRandom")
            ):
                if dotted[1] == "SystemRandom":
                    yield _finding(
                        self.name,
                        path,
                        node,
                        "`random.SystemRandom` draws OS entropy and can "
                        "never be seeded",
                    )
                elif not node.args and not node.keywords:
                    yield _finding(
                        self.name,
                        path,
                        node,
                        "`random.Random()` without a seed; pass one",
                    )
            # from random import shuffle; shuffle(...)
            elif len(dotted) == 1:
                origin = imports.from_names.get(dotted[0])
                if origin == ("random", dotted[0]) or (
                    origin is not None
                    and origin[0] == "random"
                    and origin[1] in RANDOM_MODULE_FNS
                ):
                    yield _finding(
                        self.name,
                        path,
                        node,
                        f"call to global-RNG `random.{origin[1]}` "
                        f"(imported as `{dotted[0]}`)",
                    )


@register
class NumpyLegacyRandomRule(Rule):
    name = "numpy-legacy-random"
    description = (
        "NumPy legacy global-RNG call; use np.random.default_rng(seed)"
    )

    def check_python(self, path, source, tree):
        imports = _ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if (
                len(dotted) == 3
                and dotted[0] in imports.numpy_aliases
                and dotted[1] == "random"
                and dotted[2] in NUMPY_LEGACY_FNS
            ) or (
                len(dotted) == 2
                and dotted[0] in imports.numpy_random_aliases
                and dotted[1] in NUMPY_LEGACY_FNS
            ):
                fn = dotted[-1]
                yield _finding(
                    self.name,
                    path,
                    node,
                    f"legacy global-RNG `np.random.{fn}`; draw from "
                    "`np.random.default_rng(seed)` instead",
                )
            elif len(dotted) == 1:
                origin = imports.from_names.get(dotted[0])
                if (
                    origin is not None
                    and origin[0] in ("numpy.random",)
                    and origin[1] in NUMPY_LEGACY_FNS
                ):
                    yield _finding(
                        self.name,
                        path,
                        node,
                        f"legacy global-RNG `numpy.random.{origin[1]}` "
                        f"(imported as `{dotted[0]}`)",
                    )


@register
class UnseededDefaultRngRule(Rule):
    name = "unseeded-default-rng"
    description = "np.random.default_rng() with no seed (fresh OS entropy)"

    def check_python(self, path, source, tree):
        imports = _ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            dotted = _call_name(node)
            unseeded = (
                len(dotted) == 3
                and dotted[0] in imports.numpy_aliases
                and dotted[1] == "random"
                and dotted[2] == "default_rng"
            )
            unseeded = unseeded or (
                len(dotted) == 2
                and dotted[0] in imports.numpy_random_aliases
                and dotted[1] == "default_rng"
            )
            unseeded = unseeded or (
                len(dotted) == 1
                and imports.from_names.get(dotted[0])
                in (("numpy.random", "default_rng"),)
            )
            if unseeded:
                yield _finding(
                    self.name,
                    path,
                    node,
                    "`default_rng()` without a seed draws fresh OS entropy; "
                    "pass an explicit seed",
                )


@register
class WallClockRule(Rule):
    name = "wall-clock"
    description = (
        "direct clock read; use repro.util.clock (forbidden entirely in "
        "model/ and simulate/)"
    )

    @staticmethod
    def _is_clock_free(path: str) -> bool:
        parts = os.path.normpath(path).split(os.sep)
        return any(part in CLOCK_FREE_DIRS for part in parts)

    def check_python(self, path, source, tree):
        imports = _ImportMap(tree)
        clock_free = self._is_clock_free(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if not dotted:
                continue
            # time.perf_counter(), t.time(), ...
            if (
                len(dotted) == 2
                and dotted[0] in imports.time_aliases
                and dotted[1] in TIME_FNS
            ):
                yield _finding(
                    self.name,
                    path,
                    node,
                    f"direct `time.{dotted[1]}()` read; route timing "
                    "through `repro.util.clock`",
                )
            # datetime.datetime.now() / datetime.now()
            elif (
                len(dotted) == 3
                and dotted[0] in imports.datetime_mod_aliases
                and dotted[1] == "datetime"
                and dotted[2] in DATETIME_FNS
            ) or (
                len(dotted) == 2
                and dotted[0] in imports.datetime_cls_aliases
                and dotted[1] in DATETIME_FNS
            ):
                yield _finding(
                    self.name,
                    path,
                    node,
                    f"`datetime.{dotted[-1]}()` reads the host clock",
                )
            # from time import perf_counter; perf_counter()
            elif len(dotted) == 1:
                origin = imports.from_names.get(dotted[0])
                if origin is not None and origin[0] == "time" and origin[1] in TIME_FNS:
                    yield _finding(
                        self.name,
                        path,
                        node,
                        f"direct `time.{origin[1]}()` read (imported as "
                        f"`{dotted[0]}`); route timing through "
                        "`repro.util.clock`",
                    )
                elif clock_free and origin is not None and origin[0] == "repro.util.clock":
                    yield _finding(
                        self.name,
                        path,
                        node,
                        "model/simulator code must be clock-free: simulated "
                        "time is a model output, not a host measurement",
                    )
            # clock.now() in model/simulate
            elif (
                clock_free
                and len(dotted) == 2
                and dotted[0] in imports.clock_shim_aliases
            ):
                yield _finding(
                    self.name,
                    path,
                    node,
                    "model/simulator code must be clock-free: simulated "
                    "time is a model output, not a host measurement",
                )


class _SetScope:
    """Names bound to set-typed values within one lexical scope."""

    def __init__(self) -> None:
        self.names: Set[str] = set()


class _SetIterVisitor(ast.NodeVisitor):
    """Finds iteration over statically set-typed expressions."""

    #: ``sorted`` (and order-independent reducers) neutralize set order.
    _ORDER_SAFE_WRAPPERS = frozenset({"sorted", "len", "min", "max", "any", "all"})

    def __init__(self, rule: "UnorderedIterationRule", path: str) -> None:
        self.rule = rule
        self.path = path
        self.findings: List[Finding] = []
        self.scopes: List[_SetScope] = [_SetScope()]

    # -- set-typedness inference ------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope.names for scope in reversed(self.scopes))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
                "copy",
            ):
                return self._is_set_expr(func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _flag(self, node: ast.AST, context: str) -> None:
        self.findings.append(
            _finding(
                self.rule.name,
                self.path,
                node,
                f"{context} iterates a set in nondeterministic order; wrap "
                "in sorted(...) or pragma-suppress if order cannot matter",
            )
        )

    # -- scope management --------------------------------------------------

    def _visit_scoped(self, node: ast.AST) -> None:
        self.scopes.append(_SetScope())
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_scoped
    visit_AsyncFunctionDef = _visit_scoped
    visit_Lambda = _visit_scoped
    visit_ClassDef = _visit_scoped

    # -- binding tracking --------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.scopes[-1].names.add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.scopes[-1].names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            node.value is not None
            and isinstance(node.target, ast.Name)
            and self._is_set_expr(node.value)
        ):
            self.scopes[-1].names.add(node.target.id)
        self.generic_visit(node)

    # -- iteration contexts ------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for-loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:
            if self._is_set_expr(gen.iter):
                self._flag(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "sum"
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            self._flag(node.args[0], "sum()")
        self.generic_visit(node)


@register
class UnorderedIterationRule(Rule):
    name = "unordered-iteration"
    description = (
        "iteration over a set feeds downstream order-dependent computation"
    )

    def check_python(self, path, source, tree):
        visitor = _SetIterVisitor(self, path)
        visitor.visit(tree)
        return visitor.findings


@register
class BspReductionOrderRule(Rule):
    name = "bsp-reduction-order"
    description = (
        "accumulation inside dict-view iteration; wrap the iterable in "
        "sorted(...) so the reduction order is deterministic"
    )

    def check_python(self, path, source, tree):
        for node in ast.walk(tree):
            if not isinstance(node, ast.For):
                continue
            it = node.iter
            if not (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in ("items", "values", "keys")
            ):
                continue
            for child in ast.walk(node):
                if isinstance(child, ast.AugAssign):
                    yield _finding(
                        self.name,
                        path,
                        child,
                        "augmented accumulation inside iteration over "
                        f"`.{it.func.attr}()`; the reduction order follows "
                        "dict insertion order — wrap the iterable in "
                        "sorted(...)",
                    )
