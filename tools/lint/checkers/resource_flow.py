"""RL702 — acquired resources reach their release on every CFG path.

RL702 answers one question: *starting from the acquisition, does every
control-flow path release the resource before the function can exit?*
It runs on the statement-level CFG from :mod:`tools.lint.cfg`, so early
returns, loop breaks, and exception edges inside ``try`` bodies are all
real paths — the class of leak a syntactic pattern check cannot see (a
pipe fd closed on one branch and returned-but-forgotten on the other).

Tracked acquisitions (simple-name assignment targets only — a resource
stored straight into ``self.x`` belongs to the object's lifecycle, not
this function's):

===========================  ============================================
acquired by                  released by
===========================  ============================================
``SharedMemory(...)``        ``name.close()``
``os.pipe()`` (tuple bind)   ``os.close(name)`` per fd
``os.open(...)``             ``os.close(name)``
``tempfile.mkstemp(...)``    ``os.close(fd)`` for the fd element
``open(path, "w"/"a"/...)``  ``name.close()`` (write modes only — read
                             handles leak nothing durable)
===========================  ============================================

Ownership transfers end tracking on that path: returning or yielding the
resource, storing it into an attribute/subscript/another name, passing
it as a call argument (``register(shm)``, ``np.ndarray(buffer=...)``),
or entering it as a ``with`` context. ``os`` fd *uses* (``os.write``,
``os.read``, ...) are neither releases nor transfers. The checker is
path-sensitive but alias-blind by design; the one-sided approximations
in the CFG mean a clean bill is trustworthy and a phantom-path finding
is dismissed with ``# lint: resource-flow (why)`` on the acquire line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..base import Checker, Finding, LintedFile
from ..cfg import EXIT, FuncCFG, Node, build_cfg, header_exprs

CODE = "RL702"
MARKER = "resource-flow"

#: ``os.<attr>(fd)`` calls that merely use an fd (not release, not transfer).
_FD_USES = frozenset(
    {
        "write",
        "read",
        "lseek",
        "fsync",
        "fstat",
        "ftruncate",
        "isatty",
        "set_blocking",
        "get_blocking",
        "set_inheritable",
        "pread",
        "pwrite",
    }
)

#: open() mode strings that create/mutate state worth tracking.
_WRITE_MODE_CHARS = frozenset("wax+")


@dataclass(frozen=True)
class _Resource:
    name: str
    kind: str  #: "shm" | "fd" | "file"
    release_hint: str
    acquire: ast.stmt


def _call_chain(call: ast.Call) -> str:
    parts: List[str] = []
    cur: ast.expr = call.func
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    return ".".join(reversed(parts))


def _is_write_open(call: ast.Call) -> bool:
    """``open(path, "w")``-style call with a literal write-ish mode."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    return bool(_WRITE_MODE_CHARS & set(mode.value))


def _acquisitions(stmt: ast.stmt) -> Iterator[_Resource]:
    """Resources bound by one assignment statement."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return
    target = stmt.targets[0]
    value = stmt.value
    if not isinstance(value, ast.Call):
        return
    chain = _call_chain(value)
    tail = chain.rsplit(".", 1)[-1]

    if isinstance(target, ast.Name):
        if tail == "SharedMemory":
            yield _Resource(target.id, "shm", "close()", stmt)
        elif chain == "os.open":
            yield _Resource(target.id, "fd", "os.close()", stmt)
        elif chain == "open" and _is_write_open(value):
            yield _Resource(target.id, "file", "close()", stmt)
    elif isinstance(target, ast.Tuple):
        names = [
            el.id if isinstance(el, ast.Name) else None for el in target.elts
        ]
        if chain == "os.pipe" and len(names) == 2:
            for name in names:
                if name is not None:
                    yield _Resource(name, "fd", "os.close()", stmt)
        elif chain in ("tempfile.mkstemp", "mkstemp") and names and names[0]:
            yield _Resource(names[0], "fd", "os.close()", stmt)


def _mentions(tree_nodes: List[ast.AST], name: str) -> bool:
    for root in tree_nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and node.id == name:
                return True
    return False


def _releases(stmt: ast.stmt, res: _Resource) -> bool:
    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if res.kind == "fd":
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "close"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == res.name
                ):
                    return True
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == res.name
                and func.attr == "close"
            ):
                return True
    return False


def _escapes(stmt: ast.stmt, res: _Resource) -> bool:
    """Ownership leaves this function's hands at ``stmt``."""
    name = res.name
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and _mentions([stmt.value], name)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return any(_mentions([item.context_expr], name) for item in stmt.items)
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        value = stmt.value
        if value is not None and value is not res.acquire and _mentions([value], name):
            return True  # aliased / stored; alias-blind, so stop tracking
    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None and _mentions([node.value], name):
                    return True
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # ``os.use(fd)`` reads don't transfer ownership.
            if (
                res.kind == "fd"
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
                and func.attr in _FD_USES
            ):
                continue
            args: List[ast.expr] = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            if any(_mentions([arg], name) for arg in args):
                return True
    return False


def _none_check_branch(node: Node, res: _Resource) -> Optional[List[object]]:
    """Successors consistent with *holding* the resource at an If node.

    On a path where the resource was acquired, ``if res is not None:``
    takes its true branch and ``if res is None:`` its false branch — the
    ubiquitous guarded-cleanup idiom. Returns None for any other test.
    """
    if not isinstance(node.stmt, ast.If):
        return None
    test = node.stmt.test
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == res.name
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.IsNot):
            return list(node.true_succ) + list(node.exc)
        return list(node.false_succ) + list(node.exc)
    return None


def _leaks(cfg: FuncCFG, res: _Resource) -> bool:
    """True if some path from the acquisition reaches EXIT unreleased."""
    start = cfg.main_node(res.acquire)
    frontier: List[object] = list(start.succ)  # normal edge only: the
    # acquire's own exception edge means the constructor failed and
    # nothing was acquired.
    visited = set()
    while frontier:
        target = frontier.pop()
        if target is EXIT:
            return True
        assert isinstance(target, Node)
        if id(target) in visited:
            continue
        visited.add(id(target))
        if _releases(target.stmt, res) or _escapes(target.stmt, res):
            continue
        if target.stmt is res.acquire:
            continue  # looped back to a re-acquisition; fresh resource
        branch = _none_check_branch(target, res)
        frontier.extend(branch if branch is not None else target.targets())
    return False


def _functions(linted: LintedFile) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(linted.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def check(linted: LintedFile) -> List[Finding]:
    findings: List[Finding] = []
    for func in _functions(linted):
        cfg: Optional[FuncCFG] = None
        acquired: List[Tuple[_Resource, ast.stmt]] = []
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign):
                continue
            if linted.enclosing_function(stmt) is not func:
                continue
            for res in _acquisitions(stmt):
                acquired.append((res, stmt))
        if not acquired:
            continue
        cfg = build_cfg(func)
        for res, stmt in acquired:
            if linted.suppressed(stmt, MARKER):
                continue
            if stmt not in cfg.by_stmt:
                continue  # unreachable code
            if _leaks(cfg, res):
                findings.append(
                    linted.finding(
                        stmt,
                        CODE,
                        f"{res.kind} resource `{res.name}` may not reach "
                        f"{res.release_hint} on every path out of "
                        f"`{func.name}`; release it in a finally/context "
                        "manager or mark `# lint: resource-flow (why)`",
                    )
                )
    return findings


CHECKER = Checker(
    code=CODE,
    name="resource-flow",
    description="acquired resources (shm, fds, write handles) released on all CFG paths",
    run=check,
    marker=MARKER,
)
