"""RL701 — fork- and signal-safety across module boundaries.

Two whole-program invariants, both rooted in how the parallel driver
actually fails in the field:

**Signal handlers stay async-signal-safe.** Any function registered via
``signal.signal(sig, handler)`` is analysed together with its transitive
call closure over the project call graph. Inside that closure the
checker flags

* allocation-heavy or re-entrant operations — ``print``/``open``/
  ``input``, ``logging.*``, ``warnings.warn``, ``subprocess.*``,
  ``time.sleep``, lock ``.acquire()`` — which can deadlock or corrupt
  state when the signal lands inside the allocator or the same lock;
* ``.unlink()`` calls (shared-memory or filesystem) **unless** the
  closure carries a pid guard (an ``os.getpid()`` call): a handler that
  unlinks ``/dev/shm`` segments without checking *which* process it is
  running in will, after ``fork``, destroy the driver's segments from a
  worker. The guard to write is an ``owner == os.getpid()`` comparison
  in front of every unlink. The one handler registered in ``src/repro``
  today, ``core/runlog.py``'s ``signal_cancellation``, only sets a flag
  and writes one byte to a pipe, so it unlinks nothing.

**Worker entrypoints don't scribble on module globals.** Functions
handed to ``Process(target=...)`` run on the far side of a fork (or
spawn); mutating a module-global dict/list/set there silently diverges
from the parent's copy — the classic "works under fork, breaks under
spawn, corrupts under neither-but-looks-fine" bug. Mutations guarded by
an ``os.getpid()`` check in the same function are exempt, as pid-guarded
unlinks are above.

Both halves anchor findings at the offending call/statement; suppress
with ``# lint: fork-signal-safety (why)`` there or at the
registration/dispatch site.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..base import Finding
from ..project import FunctionInfo, Project, ProjectChecker

CODE = "RL701"
MARKER = "fork-signal-safety"

#: Bare-name calls that are never async-signal-safe.
_UNSAFE_NAMES = frozenset({"print", "open", "input", "exec", "eval"})

#: Dotted prefixes that allocate, lock, or re-enter arbitrary code.
_UNSAFE_PREFIXES = (
    "logging.",
    "warnings.",
    "subprocess.",
    "shutil.",
    "threading.",
)

#: Exact dotted calls that are unsafe.
_UNSAFE_DOTTED = frozenset({"time.sleep", "os.system", "os.popen"})

#: Method names that are unsafe on any receiver (locks, blocking queues).
_UNSAFE_METHODS = frozenset({"acquire", "write_text", "write_bytes"})


def _pid_guarded(func: FunctionInfo) -> bool:
    """True if the function consults ``os.getpid()`` anywhere."""
    for node in ast.walk(func.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "getpid"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
        ):
            return True
    return False


def _handler_registrations(
    project: Project,
) -> Iterable[Tuple[ast.Call, str, Tuple[str, ...]]]:
    """Yield ``(registration call, rel, handler qualnames)`` triples."""
    for rel, linted in project.files.items():
        for node in ast.walk(linted.tree):
            if not isinstance(node, ast.Call) or len(node.args) < 2:
                continue
            func = node.func
            is_signal = (
                isinstance(func, ast.Attribute)
                and func.attr == "signal"
                and isinstance(func.value, ast.Name)
                and func.value.id == "signal"
            ) or (isinstance(func, ast.Name) and func.id == "signal")
            if not is_signal:
                continue
            handler = node.args[1]
            if not isinstance(handler, ast.Name):
                continue  # SIG_DFL/SIG_IGN attributes, saved-previous vars
            owner = linted.enclosing_function(node)
            owner_info = _info_for_node(project, rel, owner)
            resolved: Tuple[str, ...] = ()
            if owner_info is not None:
                resolved = project.resolve_call(
                    owner_info,
                    ast.Call(func=handler, args=[], keywords=[]),
                )
            if not resolved:
                resolved = project.function_for_name(rel, handler.id)
            if resolved:
                yield node, rel, resolved


def _info_for_node(
    project: Project, rel: str, func: Optional[ast.AST]
) -> Optional[FunctionInfo]:
    if func is None:
        return None
    for info in project.functions.values():
        if info.rel == rel and info.node is func:
            return info
    return None


def _worker_entrypoints(project: Project) -> Iterable[Tuple[ast.Call, str, Tuple[str, ...]]]:
    """Functions dispatched via ``Process(target=...)``."""
    for rel, linted in project.files.items():
        for node in ast.walk(linted.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name != "Process":
                continue
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    resolved = project.function_for_name(rel, kw.value.id)
                    if resolved:
                        yield node, rel, resolved


def _unsafe_calls_in(
    func: FunctionInfo, project: Project, pid_guard: bool
) -> Iterable[Tuple[ast.Call, str]]:
    """(call node, why) pairs for unsafe operations inside ``func``."""
    for site in project.callsites(func):
        chain = site.name_chain
        if chain in _UNSAFE_NAMES:
            yield site.node, f"calls `{chain}()` (allocates/re-enters the interpreter)"
        elif chain in _UNSAFE_DOTTED or chain.startswith(_UNSAFE_PREFIXES):
            yield site.node, f"calls `{chain}()` (not async-signal-safe)"
        elif isinstance(site.node.func, ast.Attribute):
            attr = site.node.func.attr
            if attr in _UNSAFE_METHODS:
                yield site.node, f"calls `.{attr}()` (may block or allocate)"
            elif attr == "unlink" and not pid_guard:
                yield (
                    site.node,
                    "calls `.unlink()` without an `os.getpid()` guard in the "
                    "handler closure — after fork this destroys segments the "
                    "handler's process did not create",
                )


def _module_global_mutations(
    func: FunctionInfo, project: Project
) -> Iterable[Tuple[ast.stmt, str]]:
    """Statements in ``func`` that mutate a module-level global."""
    mod_globals = project.module_globals.get(func.rel, set())
    declared_global: Set[str] = set()
    local_names: Set[str] = set()
    args = func.node.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        local_names.add(arg.arg)
    for node in ast.walk(func.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local_names.add(node.id)

    mutators = {"append", "add", "update", "pop", "setdefault", "extend", "clear"}
    for node in ast.walk(func.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Name)
                    and tgt.id in declared_global
                    and tgt.id in mod_globals
                ):
                    yield node, f"rebinds module global `{tgt.id}`"
                elif (
                    isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id in mod_globals
                    and tgt.value.id not in local_names
                ):
                    yield node, f"mutates module global `{tgt.value.id}`"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in mutators
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in mod_globals
            and node.func.value.id not in local_names
        ):
            yield node, f"mutates module global `{node.func.value.id}`"


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()

    def emit(rel: str, node: ast.AST, message: str) -> None:
        linted = project.files[rel]
        key = (rel, getattr(node, "lineno", 0), message)
        if key in seen or linted.suppressed(node, MARKER):
            return
        seen.add(key)
        findings.append(linted.finding(node, CODE, message))

    # -- half 1: signal handlers ------------------------------------------
    for reg_node, reg_rel, handlers in _handler_registrations(project):
        reg_linted = project.files[reg_rel]
        if reg_linted.suppressed(reg_node, MARKER):
            continue
        closure = project.transitive_closure(list(handlers), loose=True)
        pid_guard = any(
            _pid_guarded(project.functions[q]) for q in closure
        )
        where = f"{reg_rel}:{reg_node.lineno}"
        for qual in closure:
            func = project.functions[qual]
            for call, why in _unsafe_calls_in(func, project, pid_guard):
                emit(
                    func.rel,
                    call,
                    f"signal handler `{handlers[0].split('::')[-1]}` "
                    f"(registered at {where}) reaches `{func.name}`, which "
                    f"{why}; keep handlers async-signal-safe or mark "
                    "`# lint: fork-signal-safety (why)`",
                )

    # -- half 2: worker entrypoints ---------------------------------------
    for disp_node, disp_rel, entries in _worker_entrypoints(project):
        disp_linted = project.files[disp_rel]
        if disp_linted.suppressed(disp_node, MARKER):
            continue
        closure = project.transitive_closure(list(entries), loose=False)
        where = f"{disp_rel}:{disp_node.lineno}"
        for qual in closure:
            func = project.functions[qual]
            if _pid_guarded(func):
                continue
            for stmt, why in _module_global_mutations(func, project):
                emit(
                    func.rel,
                    stmt,
                    f"worker entrypoint `{entries[0].split('::')[-1]}` "
                    f"(dispatched at {where}) reaches `{func.name}`, which "
                    f"{why} without a pid guard — worker-side writes "
                    "diverge from the parent after fork; guard with "
                    "os.getpid() or mark `# lint: fork-signal-safety (why)`",
                )

    return findings


CHECKER = ProjectChecker(
    code=CODE,
    name="fork-signal-safety",
    description="signal handlers stay async-signal-safe; worker entrypoints don't mutate globals",
    run=check,
    marker=MARKER,
)
