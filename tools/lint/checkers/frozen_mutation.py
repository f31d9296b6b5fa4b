"""RL101 — frozen index storage is never mutated outside its builders.

The gap-skipping probes (paper §IV) are only sound on *sorted* inverted
lists, and the array index goes further: ``offsets``/``values``/``keyed``
must stay exactly as built or the globally-sorted composite-key invariant
(one ``searchsorted`` answering any probe batch) silently breaks. The only
code allowed to write those structures is the pair of builder modules —
``index/storage.py`` (CSR construction and unpickling) and ``index/inverted.py``
(sequential build and monotone ``append_set``).

Everywhere else this checker flags, on any expression rooted at one of the
frozen attribute names (``offsets``, ``values``, ``keyed``, ``lists``,
``universe``):

* stores — ``idx.offsets = x``, ``idx.values[i] = x``, ``del idx.lists[e]``,
  augmented assignments (``idx.keyed += 1`` is an in-place numpy op);
* mutator method calls — ``idx.lists[e].append(...)``, ``idx.values.sort()``,
  ``idx.keyed.fill(0)`` and friends;
* numpy ``out=``/``where=`` aliasing — ``np.cumsum(xs, out=idx.offsets)``.

Reads (including ``dict.values()`` *calls*, which are not in the mutator
set) never trigger. Suppress a deliberate exception with
``# lint: frozen-mutation-ok (why)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..base import Checker, Finding, LintedFile

CODE = "RL101"
MARKER = "frozen-mutation-ok"

#: Attributes that constitute frozen index storage once built.
FROZEN_ATTRS = frozenset({"offsets", "values", "keyed", "lists", "universe"})

#: Methods that mutate a list / dict / ndarray receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "fill",
        "resize",
        "put",
        "partition",
        "setfield",
        "setflags",
        "byteswap",
    }
)

#: Modules allowed to write frozen storage: the builders themselves.
BUILDER_MODULES = ("index/storage.py", "index/inverted.py")

#: Methods in which a class legitimately initialises its *own* attributes
#: (``self.values = ...`` in ``__init__`` is construction, not mutation).
_CONSTRUCTORS = frozenset({"__init__", "__new__", "__setstate__", "__post_init__"})


def _is_builder_module(rel: str) -> bool:
    return rel.endswith(BUILDER_MODULES)


def _is_self_init_store(linted: LintedFile, target: ast.AST) -> bool:
    """True for ``self.<attr> = ...`` directly inside a constructor."""
    if not (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return False
    func = linted.enclosing_function(target)
    return func is not None and func.name in _CONSTRUCTORS


def _roots_at_frozen_attr(node: ast.AST) -> bool:
    """True if the access chain ``node`` passes through a frozen attribute.

    Walks down ``Attribute``/``Subscript``/``Starred`` wrappers, e.g.
    ``idx.lists[e][0]`` → Subscript → Subscript → Attribute(``lists``).
    """
    cur = node
    while True:
        if isinstance(cur, ast.Attribute):
            if cur.attr in FROZEN_ATTRS:
                return True
            cur = cur.value
        elif isinstance(cur, (ast.Subscript, ast.Starred)):
            cur = cur.value
        else:
            return False


def _store_targets(node: ast.AST) -> Iterator[ast.AST]:
    """The target expressions written by an assignment-like statement."""
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target
    elif isinstance(node, ast.Delete):
        yield from node.targets
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.target
    elif isinstance(node, ast.withitem) and node.optional_vars is not None:
        yield node.optional_vars


def _flatten_targets(targets: Iterator[ast.AST]) -> Iterator[ast.AST]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(iter(target.elts))
        else:
            yield target


def check(linted: LintedFile) -> List[Finding]:
    if _is_builder_module(linted.rel):
        return []
    findings: List[Finding] = []
    for node in ast.walk(linted.tree):
        # Stores (plain, augmented, annotated, del, loop targets).
        for target in _flatten_targets(_store_targets(node)):
            if (
                _roots_at_frozen_attr(target)
                and not _is_self_init_store(linted, target)
                and not linted.suppressed(node, MARKER)
            ):
                findings.append(
                    linted.finding(
                        node,
                        CODE,
                        "write to frozen index storage "
                        f"({ast.unparse(target)}); only the builder modules "
                        f"{BUILDER_MODULES} may mutate it",
                    )
                )
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # Mutator method calls on a frozen-rooted receiver.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and _roots_at_frozen_attr(func.value)
            and not linted.suppressed(node, MARKER)
        ):
            findings.append(
                linted.finding(
                    node,
                    CODE,
                    f"in-place mutation of frozen index storage "
                    f"({ast.unparse(func)}(...)); rebuild instead",
                )
            )
        # numpy kwargs that alias the output into frozen storage.
        for kw in node.keywords:
            if kw.arg in ("out", "where") and _roots_at_frozen_attr(kw.value):
                if not linted.suppressed(node, MARKER):
                    findings.append(
                        linted.finding(
                            node,
                            CODE,
                            f"numpy {kw.arg}= aliases frozen index storage "
                            f"({ast.unparse(kw.value)})",
                        )
                    )
    return findings


CHECKER = Checker(
    code=CODE,
    name="frozen-mutation",
    description="no mutation of frozen index storage outside the builder modules",
    run=check,
    marker=MARKER,
)
