"""API-boundary lint rules.

``prepare-purity``
    In-place mutation of a ``Kernel.prepare`` result outside a
    ``product``/``prepare`` method.  Prepared states are shared across
    supersteps and (in the threaded backend) across worker threads, so
    any post-``prepare`` mutation is both a cache-poisoning and a race
    hazard.  Complements the runtime cache-invalidation contract:
    this rule catches the write sites statically.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Finding, Rule, register

#: Methods allowed to touch prepared state (the kernel protocol's own).
_PURE_EXEMPT_METHODS = frozenset({"product", "prepare"})

#: In-place mutators that poison a shared prepared state.
_STATE_MUTATORS = frozenset(
    {
        "fill",
        "sort",
        "sort_indices",
        "setdiag",
        "resize",
        "eliminate_zeros",
        "sum_duplicates",
        "prune",
        "setflags",
        "put",
        "partition",
    }
)


def _is_prepare_expr(node: ast.AST) -> bool:
    """Whether an expression's value originates from ``*.prepare(...)``."""
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "prepare"
        )
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return _is_prepare_expr(node.elt)
    if isinstance(node, (ast.List, ast.Tuple)):
        return any(_is_prepare_expr(elt) for elt in node.elts)
    if isinstance(node, ast.Starred):
        return _is_prepare_expr(node.value)
    return False


def _root_chain(node: ast.AST) -> Tuple[Optional[str], bool, int]:
    """Resolve a store/mutation target to its root.

    Returns ``(root, via_self, depth)`` where ``root`` is the base name
    (or the attribute name for ``self.<attr>...``), ``via_self`` marks
    the latter form, and ``depth`` counts subscript/attribute hops
    below the root (0 = plain rebinding, which is always legal).
    """
    depth = 0
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr, True, depth
        depth += 1
        node = node.value
    if isinstance(node, ast.Name):
        return node.id, False, depth
    return None, False, depth


def _function_defs(tree: ast.AST) -> Iterable[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_body(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class PreparePurityRule(Rule):
    name = "prepare-purity"
    description = (
        "Kernel.prepare results mutated outside product/prepare; "
        "prepared states are shared and must stay immutable"
    )

    def _prepared_roots(self, tree: ast.AST) -> Tuple[Set[str], Set[str]]:
        """Names/attrs anywhere in the file bound to prepare results."""
        names: Set[str] = set()
        self_attrs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if not _is_prepare_expr(node.value):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self_attrs.add(target.attr)
        return names, self_attrs

    def check_python(self, path, source, tree):
        names, self_attrs = self._prepared_roots(tree)
        if not names and not self_attrs:
            return
        for fn in _function_defs(tree):
            if fn.name in _PURE_EXEMPT_METHODS:
                continue
            for node in _own_body(fn):
                suspects: List[Tuple[ast.AST, str, bool]] = []
                if isinstance(node, ast.Assign):
                    suspects = [
                        (t, "store into", False) for t in node.targets
                    ]
                elif isinstance(node, ast.AugAssign):
                    suspects = [(node.target, "augmented store into", False)]
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _STATE_MUTATORS
                ):
                    suspects = [
                        (node.func.value, f"{node.func.attr}() on", True)
                    ]
                for target, verb, is_call in suspects:
                    root, via_self, depth = _root_chain(target)
                    # A plain rebinding (depth 0) is legal; an in-place
                    # mutator call is a mutation at any depth.
                    if root is None or (depth == 0 and not is_call):
                        continue
                    tracked = (
                        root in self_attrs if via_self else root in names
                    )
                    if not tracked:
                        continue
                    shown = f"self.{root}" if via_self else root
                    yield Finding(
                        rule=self.name,
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{verb} `{shown}`, a Kernel.prepare "
                            "result; prepared states are shared across "
                            "supersteps and threads — mutate only "
                            "inside product/prepare, or re-prepare"
                        ),
                    )
