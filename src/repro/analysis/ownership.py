"""BSP ownership discipline: annotation vocabulary + static rules.

The superstep engine is correct only while every PE touches exactly the
data the ownership map and exchange schedule allow: compute writes stay
inside the writer's own slot of the per-PE arrays, cross-PE writes
happen only inside the exchange, ghost entries are read only *after*
the exchange that fills them, and floating-point reductions never
depend on dict/set iteration order.  This module gives those rules a
machine-checkable form.

**Annotation vocabulary** (zero runtime cost — the decorators only
attach metadata):

``@owns("y_locals", pe="pe")``
    The function writes only slot ``pe`` (a parameter name) of the
    named per-PE arrays.  Lint accepts stores indexed by that
    parameter and rejects everything else.

``@exchange_phase("y_locals")``
    The function implements (part of) the exchange and may perform
    cross-PE writes into the named arrays.  This is the *only* legal
    home for writes indexed by another PE's id.

``@reads_ghosts("y_locals")``
    The function deliberately reads pre-exchange partial sums (ghost
    entries) — e.g. ``apply_rounds`` summing the snapshotted partials.
    Suppresses the ``ghost-read`` ordering rule.

**Static rules** (registered with the ``repro-lint`` engine):

``bsp-ownership``
    Stores into a per-PE array (a name ending in ``_locals`` or one
    declared via ``@owns``) indexed by anything other than the owned
    ``pe`` parameter or an enclosing ``for ... in range(...)`` loop
    variable, outside an ``@exchange_phase`` function.

``ghost-read``
    Subscript *reads* of a per-PE array before the exchange call
    (``sum_deliveries`` / ``apply_rounds`` / ``communication_phase``)
    inside the same function, unless annotated ``@reads_ghosts``.

``exchange-buffer-mutation``
    In-place mutation of a message payload (``msg.payload[...] =``,
    augmented stores, or in-place mutator calls).  Payloads are
    snapshots of the sender's partials; middleware must copy, never
    mutate.

``bsp-reduction-order``
    Augmented accumulation inside a loop iterating a dict view
    (``.items()`` / ``.values()`` / ``.keys()``) that is not wrapped in
    ``sorted(...)`` — the floating-point sum would depend on insertion
    order.

See DESIGN.md section 12 for the ownership/happens-before model.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Finding, Rule, register

# --------------------------------------------------------------------------
# Runtime annotation vocabulary (metadata only; no behavior change).
# --------------------------------------------------------------------------


def owns(*arrays: str, pe: str = "pe"):
    """Declare that a function writes only slot ``pe`` of ``arrays``."""

    def mark(fn):
        fn.__bsp_owns__ = tuple(arrays)
        fn.__bsp_pe_param__ = pe
        return fn

    return mark


def exchange_phase(*arrays: str):
    """Declare a function as (part of) the exchange: cross-PE writes OK."""

    def mark(fn):
        fn.__bsp_exchange__ = tuple(arrays) or ("*",)
        return fn

    return mark


def reads_ghosts(*arrays: str):
    """Declare deliberate pre-exchange reads of ghost/partial entries."""

    def mark(fn):
        fn.__bsp_reads_ghosts__ = tuple(arrays) or ("*",)
        return fn

    return mark


#: Decorator names the static rules recognize on function definitions.
_DECORATORS = ("owns", "exchange_phase", "reads_ghosts")

#: In-place ndarray mutators relevant to per-PE slot / payload buffers.
_MUTATORS = frozenset(
    {"fill", "sort", "resize", "put", "partition", "setflags"}
)

#: Calls that perform (part of) the exchange for ghost-freshness order.
_EXCHANGE_CALLS = frozenset(
    {"sum_deliveries", "apply_rounds", "communication_phase"}
)


def _dotted_tail(func: ast.AST) -> Optional[str]:
    """Last component of a call target (``a.b.c(...)`` -> ``"c"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _decorator_info(fn: ast.AST) -> Tuple[Set[str], Optional[str], Set[str], Set[str]]:
    """Parse the BSP decorators on a function definition.

    Returns ``(owned_arrays, pe_param, exchange_arrays, ghost_arrays)``
    where string-constant decorator arguments name the arrays; a bare
    ``@exchange_phase()`` / ``@reads_ghosts()`` yields ``{"*"}``.
    """
    owned: Set[str] = set()
    pe_param: Optional[str] = None
    exchange: Set[str] = set()
    ghosts: Set[str] = set()
    for deco in getattr(fn, "decorator_list", []):
        if not isinstance(deco, ast.Call):
            continue
        name = _dotted_tail(deco.func)
        if name not in _DECORATORS:
            continue
        arrays = {
            arg.value
            for arg in deco.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        }
        if name == "owns":
            owned |= arrays
            pe_param = "pe"
            for kw in deco.keywords:
                if (
                    kw.arg == "pe"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    pe_param = kw.value.value
        elif name == "exchange_phase":
            exchange |= arrays or {"*"}
        else:
            ghosts |= arrays or {"*"}
    return owned, pe_param, exchange, ghosts


def _functions(tree: ast.AST) -> Iterable[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_body_walk(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _slot_store(target: ast.AST) -> Optional[Tuple[str, ast.AST]]:
    """If ``target`` stores through ``NAME[idx]...``, return (NAME, idx).

    Peels trailing subscripts/attributes so ``y_locals[j][dofs] = v``
    and ``y_locals[j].real += v`` both resolve to ``("y_locals", j)``.
    """
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        inner = node.value
        if isinstance(node, ast.Subscript) and isinstance(inner, ast.Name):
            return inner.id, node.slice
        node = inner
    return None


def _range_loop_vars(fn: ast.AST) -> Set[str]:
    """Names bound by deterministic loops (``range``/``enumerate``/``sorted``)."""
    out: Set[str] = set()
    for node in _own_body_walk(fn):
        if not isinstance(node, ast.For):
            continue
        if not (
            isinstance(node.iter, ast.Call)
            and _dotted_tail(node.iter.func) in ("range", "enumerate", "sorted")
        ):
            continue
        targets = (
            node.target.elts
            if isinstance(node.target, ast.Tuple)
            else [node.target]
        )
        for tgt in targets:
            if isinstance(tgt, ast.Name):
                out.add(tgt.id)
    return out


def _is_per_pe(name: str, declared: Set[str]) -> bool:
    return name.endswith("_locals") or name in declared


def _index_repr(idx: ast.AST) -> str:
    try:
        return ast.unparse(idx)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<index>"


@register
class BspOwnershipRule(Rule):
    name = "bsp-ownership"
    description = (
        "write to a per-PE array slot not owned by the writer; cross-PE "
        "writes belong in @exchange_phase functions"
    )

    def check_python(self, path, source, tree):
        for fn in _functions(tree):
            owned, pe_param, exchange, _ = _decorator_info(fn)
            loop_vars = _range_loop_vars(fn)
            declared = (owned | exchange) - {"*"}
            for node in _own_body_walk(fn):
                targets: List[ast.AST] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                    and isinstance(node.func.value, ast.Subscript)
                ):
                    targets = [node.func.value]
                for target in targets:
                    store = _slot_store(target)
                    if store is None:
                        continue
                    array, idx = store
                    if not _is_per_pe(array, declared):
                        continue
                    if "*" in exchange or array in exchange:
                        continue
                    if isinstance(idx, ast.Name) and (
                        idx.id == pe_param or idx.id in loop_vars
                    ):
                        continue
                    yield Finding(
                        rule=self.name,
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"write to per-PE array "
                            f"`{array}[{_index_repr(idx)}]` outside the "
                            "owned slot; cross-PE writes must live in an "
                            "@exchange_phase function (or declare the "
                            "owned index with @owns)"
                        ),
                    )


@register
class GhostReadRule(Rule):
    name = "ghost-read"
    description = (
        "per-PE array read before the exchange that fills its ghost "
        "entries in the same function (@reads_ghosts exempts)"
    )

    def check_python(self, path, source, tree):
        for fn in _functions(tree):
            owned, _, exchange, ghosts = _decorator_info(fn)
            if "*" in ghosts:
                continue
            exchange_lines = [
                node.lineno
                for node in _own_body_walk(fn)
                if isinstance(node, ast.Call)
                and _dotted_tail(node.func) in _EXCHANGE_CALLS
            ]
            if not exchange_lines:
                continue
            first_exchange = min(exchange_lines)
            declared = (owned | exchange) - {"*"}
            for node in _own_body_walk(fn):
                if not (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                ):
                    continue
                array = node.value.id
                if not _is_per_pe(array, declared):
                    continue
                if array in ghosts:
                    continue
                if node.lineno < first_exchange:
                    yield Finding(
                        rule=self.name,
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"read of `{array}[...]` on line {node.lineno} "
                            f"precedes the exchange on line "
                            f"{first_exchange}; ghost entries are stale "
                            "until the exchange completes (annotate "
                            "@reads_ghosts if the partial sums are "
                            "intended)"
                        ),
                    )


@register
class ExchangeBufferMutationRule(Rule):
    name = "exchange-buffer-mutation"
    description = (
        "in-place mutation of a message payload; payloads are "
        "snapshots and middleware must copy"
    )

    def _payload_root(self, node: ast.AST) -> Optional[ast.Attribute]:
        """Innermost ``<expr>.payload`` attribute under ``node``, if any."""
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Attribute) and node.attr == "payload":
                return node
            node = node.value
        return None

    def check_python(self, path, source, tree):
        for node in ast.walk(tree):
            suspects: List[Tuple[ast.AST, str]] = []
            if isinstance(node, ast.Assign):
                suspects = [(t, "store through") for t in node.targets]
            elif isinstance(node, ast.AugAssign):
                suspects = [(node.target, "augmented store through")]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                suspects = [(node.func.value, f"{node.func.attr}() on")]
            for target, verb in suspects:
                payload = self._payload_root(target)
                if payload is None:
                    continue
                # A bare rebinding `send.payload = ...` is also a
                # mutation of the message, so flag the attribute itself.
                yield Finding(
                    rule=self.name,
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{verb} `.payload`: message payloads are "
                        "snapshots of the sender's partials; copy before "
                        "modifying"
                    ),
                )
                break


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
                    yield Finding(
                        rule=self.name,
                        path=path,
                        line=child.lineno,
                        col=child.col_offset,
                        message=(
                            "augmented accumulation inside iteration "
                            f"over `.{it.func.attr}()`; the reduction "
                            "order follows dict insertion order — wrap "
                            "the iterable in sorted(...)"
                        ),
                    )
