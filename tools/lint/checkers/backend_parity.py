"""RL401 — public ``backend=`` functions dispatch every registered backend.

``backend="python" | "hybrid"`` is a contract: both backends
produce the identical pair set and every public entry point that accepts
the parameter must either handle the array cases or validate-and-forward
it. The failure mode this guards against is a new public API that grows a
``backend`` parameter, silently ignores it, and returns python-backend
results for an array backend — type checkers cannot see that, tests only
catch it if someone remembers to parametrise them.

A public function (name without a leading underscore) with a ``backend``
parameter passes if its body shows *evidence of dispatch*, any of:

* a comparison or membership test against the ``"hybrid"`` /
  ``"python"`` literals or the ``BACKENDS`` registry (``backend ==
  "hybrid"``, ``backend not in BACKENDS``);
* forwarding — a ``backend=`` keyword argument whose value names
  ``backend`` (``f(r, backend=backend)``), or a ``kwargs["backend"] =``
  subscript store. Passing the name positionally (``f(r, backend)``) is
  not evidence: the callee's parameter at that position cannot be
  checked, so write the keyword form.

Otherwise the parameter is decoration, and RL401 fires on the ``def``.
Suppress with ``# lint: backend-agnostic (why)`` for a function whose
parameter is genuinely documentation-only.
"""

from __future__ import annotations

import ast
from typing import List, Union

from ..base import Checker, Finding, LintedFile

CODE = "RL401"
MARKER = "backend-agnostic"

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_BACKEND_LITERALS = {"python", "hybrid"}


def _has_backend_param(func: _FunctionNode) -> bool:
    args = func.args
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    return any(arg.arg == "backend" for arg in every)


def _mentions_backend(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == "backend" for sub in ast.walk(node)
    )


def _dispatch_evidence(func: _FunctionNode) -> bool:
    for node in ast.walk(func):
        # backend == "hybrid" / backend != "python" / backend in BACKENDS ...
        if isinstance(node, ast.Compare) and _mentions_backend(node):
            for comp in node.comparators:
                if isinstance(comp, ast.Constant) and comp.value in _BACKEND_LITERALS:
                    return True
                if isinstance(comp, ast.Name) and comp.id == "BACKENDS":
                    return True
        # f(..., backend=backend) forwarding.
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "backend" and _mentions_backend(kw.value):
                    return True
        # kwargs["backend"] = backend style forwarding.
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and target.slice.value == "backend"
                ):
                    return True
    return False


def check(linted: LintedFile) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(linted.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue
        if not _has_backend_param(node):
            continue
        if linted.suppressed(node, MARKER):
            continue
        if not _dispatch_evidence(node):
            findings.append(
                linted.finding(
                    node,
                    CODE,
                    f"public function `{node.name}` takes backend= but never "
                    "dispatches or forwards it; handle the registered "
                    "backends (or validate against BACKENDS) so the "
                    "parameter is not silently ignored",
                )
            )
    return findings


CHECKER = Checker(
    code=CODE,
    name="backend-parity",
    description="public backend= functions dispatch every registered backend",
    run=check,
    marker=MARKER,
)
