"""Tests for the whole-program analysis engine behind repro-lint.

Covers the layers the per-file tests in ``test_lint.py`` cannot: the
statement-level CFG (``tools.lint.cfg``), the project symbol table and
call graph (``tools.lint.project``), the four whole-program checkers
(RL701/RL702/RL801/RL901), and the driver plumbing around them —
finding cache, output formats, and the baseline workflow.

The seeded-bug tests at the bottom are the acceptance gate from the
engine's design: a leaked pipe fd and an unsafe signal handler, caught by
the CFG and call-graph checkers.
"""

from __future__ import annotations

import ast
import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.lint.base import LintedFile, lint_file  # noqa: E402
from tools.lint.cfg import EXIT, build_cfg  # noqa: E402
from tools.lint.checkers import EVERY_CHECKER  # noqa: E402
from tools.lint.checkers.catalogue_drift import CHECKER as CATALOGUE_DRIFT  # noqa: E402
from tools.lint.checkers.exception_contract import CHECKER as EXCEPTION_CONTRACT  # noqa: E402
from tools.lint.checkers.fork_signal_safety import CHECKER as FORK_SIGNAL_SAFETY  # noqa: E402
from tools.lint.checkers.frozen_mutation import CHECKER as FROZEN_MUTATION  # noqa: E402
from tools.lint.checkers.resource_flow import CHECKER as RESOURCE_FLOW  # noqa: E402
from tools.lint.cli import main as lint_main  # noqa: E402
from tools.lint.engine import lint_tree  # noqa: E402
from tools.lint.output import render_json, render_sarif  # noqa: E402
from tools.lint.project import Project  # noqa: E402


def _write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def _project(root: Path, files: dict) -> Project:
    _write_tree(root, files)
    parsed = {}
    for rel in files:
        path = root / rel
        parsed[rel] = LintedFile(
            path, path.read_text(encoding="utf-8"), root=root
        )
    return Project(parsed)


def _codes(findings) -> list:
    return [f.code for f in findings]


# -- the CFG builder -------------------------------------------------------


def _cfg(source):
    func = ast.parse(textwrap.dedent(source)).body[0]
    return build_cfg(func), func


class TestCfg:
    def test_linear_flow_reaches_exit(self):
        cfg, func = _cfg(
            """
            def f():
                a = g()
                return a
            """
        )
        first = cfg.main_node(func.body[0])
        assert cfg.entry == (first,)
        ret = first.succ[0]
        assert ret.stmt is func.body[1]
        assert ret.succ == [EXIT]
        # Outside any try there are no exception edges.
        assert first.exc == []

    def test_return_routes_through_finally(self):
        cfg, func = _cfg(
            """
            def f(x):
                try:
                    return x
                finally:
                    release()
            """
        )
        try_stmt = func.body[0]
        ret = cfg.main_node(try_stmt.body[0])
        fin = ret.succ[0]
        assert fin.stmt is try_stmt.finalbody[0]
        assert "finally-exit" in fin.role
        assert fin.succ == [EXIT]

    def test_break_routes_through_finally(self):
        cfg, func = _cfg(
            """
            def f(items):
                for i in items:
                    try:
                        if i:
                            break
                    finally:
                        release()
                done()
            """
        )
        for_stmt = func.body[0]
        try_stmt = for_stmt.body[0]
        brk = try_stmt.body[0].body[0]
        brk_node = cfg.main_node(brk)
        fin = brk_node.succ[0]
        assert fin.stmt is try_stmt.finalbody[0]
        assert "finally-break" in fin.role
        assert fin.succ[0].stmt is func.body[1]  # done()

    def test_if_successors_are_branch_labelled(self):
        cfg, func = _cfg(
            """
            def f(x):
                if x is None:
                    a()
                else:
                    b()
            """
        )
        if_node = cfg.main_node(func.body[0])
        assert if_node.true_succ[0].stmt is func.body[0].body[0]
        assert if_node.false_succ[0].stmt is func.body[0].orelse[0]

    def test_exception_edges_are_selective(self):
        cfg, func = _cfg(
            """
            def f():
                try:
                    x = "literal"
                    risky()
                except ValueError:
                    handle()
            """
        )
        try_stmt = func.body[0]
        try_node = cfg.main_node(try_stmt)
        assert try_node.exc == []  # the header executes nothing
        safe = cfg.main_node(try_stmt.body[0])
        assert safe.exc == []  # constant-to-name assignment cannot raise
        risky = cfg.main_node(try_stmt.body[1])
        handler_entry = risky.exc[0]
        assert handler_entry.stmt is try_stmt.handlers[0].body[0]

    def test_raise_reaches_handler_and_exit(self):
        cfg, func = _cfg(
            """
            def f():
                try:
                    raise ValueError("boom")
                except ValueError:
                    handle()
            """
        )
        try_stmt = func.body[0]
        raise_node = cfg.main_node(try_stmt.body[0])
        stmts = {t.stmt for t in raise_node.succ if t is not EXIT}
        assert try_stmt.handlers[0].body[0] in stmts
        assert EXIT in raise_node.succ


# -- the project symbol table and call graph -------------------------------


class TestProjectGraph:
    def test_imported_function_resolution(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "pkg/util.py": """
                    def helper():
                        return 1
                    """,
                "pkg/main.py": """
                    from pkg.util import helper


                    def caller():
                        return helper()
                    """,
            },
        )
        caller = project.functions["pkg/main.py::caller"]
        (site,) = project.callsites(caller)
        assert site.callees == ("pkg/util.py::helper",)

    def test_self_method_resolves_through_base_class(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "m.py": """
                    class Base:
                        def close(self):
                            pass


                    class Impl(Base):
                        def run(self):
                            self.close()
                    """,
            },
        )
        run = project.functions["m.py::Impl.run"]
        (site,) = project.callsites(run)
        assert site.callees == ("m.py::Base.close",)

    def test_constructor_resolves_to_init(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "m.py": """
                    class Widget:
                        def __init__(self):
                            pass


                    def make():
                        return Widget()
                    """,
            },
        )
        make = project.functions["m.py::make"]
        (site,) = project.callsites(make)
        assert site.callees == ("m.py::Widget.__init__",)

    def test_transitive_closure_loose_fans_out(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "a.py": """
                    class Worker:
                        def go(self):
                            pass


                    def handler(signum, frame):
                        obj.go()
                    """,
            },
        )
        strict = project.transitive_closure(["a.py::handler"], loose=False)
        assert strict == ["a.py::handler"]
        loose = project.transitive_closure(["a.py::handler"], loose=True)
        assert "a.py::Worker.go" in loose


# -- RL702: CFG resource flow ----------------------------------------------


def _lint_source(tmp_path, source, checkers, rel="module.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, checkers, root=tmp_path)


class TestResourceFlow:
    def test_pipe_fd_leaked_on_one_branch(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os


            def ship(payload, fast):
                r, w = os.pipe()
                os.write(w, payload)
                if fast:
                    return r
                os.close(r)
                os.close(w)
                return None
            """,
            [RESOURCE_FLOW],
        )
        assert _codes(findings) == ["RL702"]
        assert "`w`" in findings[0].message

    def test_both_fds_closed_in_finally_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os


            def ok(payload):
                r, w = os.pipe()
                try:
                    os.write(w, payload)
                finally:
                    os.close(r)
                    os.close(w)
            """,
            [RESOURCE_FLOW],
        )
        assert findings == []

    def test_early_return_leaks_write_handle(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def leak(path, flag):
                handle = open(path, "w")
                if flag:
                    return None
                handle.close()
            """,
            [RESOURCE_FLOW],
        )
        assert _codes(findings) == ["RL702"]

    def test_read_mode_open_untracked(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def ok(path, flag):
                handle = open(path)
                if flag:
                    return None
                handle.close()
            """,
            [RESOURCE_FLOW],
        )
        assert findings == []

    def test_guarded_cleanup_idiom_clean(self, tmp_path):
        # The guarded idiom: handle = None, acquire inside try,
        # `if handle is not None: handle.close()` in the finally. The
        # predicate-aware walk must take the cleanup branch.
        findings = _lint_source(
            tmp_path,
            """
            from multiprocessing.shared_memory import SharedMemory


            def ok(n, fail):
                handle = None
                try:
                    handle = SharedMemory(create=True, size=n)
                    step(fail)
                finally:
                    if handle is not None:
                        handle.close()
            """,
            [RESOURCE_FLOW],
        )
        assert findings == []

    def test_ownership_transfer_ends_tracking(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os
            from multiprocessing.shared_memory import SharedMemory


            def exported(n):
                shm = SharedMemory(create=True, size=n)
                return shm


            def registered(path, registry):
                fd = os.open(path, 0)
                registry.adopt(fd)
            """,
            [RESOURCE_FLOW],
        )
        assert findings == []

    def test_marker_suppresses(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os


            def custom(flag):
                # lint: resource-flow (test fixture: paired close lives in the caller)
                r, w = os.pipe()
                if flag:
                    return r
                return w
            """,
            [RESOURCE_FLOW],
        )
        assert findings == []


# -- RL701: fork/signal safety ---------------------------------------------


class TestForkSignalSafety:
    def _run(self, tmp_path, files):
        _write_tree(tmp_path, files)
        return lint_tree(
            [tmp_path], [], [FORK_SIGNAL_SAFETY], root=tmp_path
        )

    def test_handler_calling_unsafe_helper_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "mod.py": """
                    import signal


                    def helper():
                        print("dying")


                    def handler(signum, frame):
                        helper()


                    def install():
                        signal.signal(signal.SIGTERM, handler)
                    """,
            },
        )
        assert _codes(findings) == ["RL701"]
        assert "`handler`" in findings[0].message
        assert "`helper`" in findings[0].message
        assert "print" in findings[0].message

    def test_unlink_without_pid_guard_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "mod.py": """
                    import signal

                    LIVE = []


                    def emergency(signum, frame):
                        for seg in LIVE:
                            seg.unlink()


                    def arm():
                        signal.signal(signal.SIGTERM, emergency)
                    """,
            },
        )
        assert _codes(findings) == ["RL701"]
        assert "getpid" in findings[0].message

    def test_pid_guarded_unlink_clean(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "mod.py": """
                    import os
                    import signal

                    LIVE = []
                    OWNER = 0


                    def emergency(signum, frame):
                        if OWNER == os.getpid():
                            for seg in LIVE:
                                seg.unlink()


                    def arm():
                        signal.signal(signal.SIGTERM, emergency)
                    """,
            },
        )
        assert findings == []

    def test_worker_entrypoint_global_mutation_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "mod.py": """
                    from multiprocessing import Process

                    _CACHE = {}


                    def worker(item):
                        _CACHE[item] = True


                    def dispatch(item):
                        proc = Process(target=worker, args=(item,))
                        proc.start()
                        return proc
                    """,
            },
        )
        assert _codes(findings) == ["RL701"]
        assert "_CACHE" in findings[0].message

    def test_pid_guarded_worker_clean(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "mod.py": """
                    import os
                    from multiprocessing import Process

                    _CACHE = {}


                    def worker(item):
                        if os.getpid() not in _CACHE:
                            _CACHE[os.getpid()] = item


                    def dispatch(item):
                        return Process(target=worker, args=(item,))
                    """,
            },
        )
        assert findings == []

    def test_marker_at_registration_suppresses_closure(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "mod.py": """
                    import signal


                    def handler(signum, frame):
                        print("dying")


                    def install():
                        # lint: fork-signal-safety (test fixture)
                        signal.signal(signal.SIGTERM, handler)
                    """,
            },
        )
        assert findings == []


# -- RL801: exception contracts --------------------------------------------


ERRORS_PY = """
    class ReproError(Exception):
        pass


    class InvalidParameterError(ReproError, ValueError):
        pass
"""


class TestExceptionContract:
    def _run(self, tmp_path, api_source, extra=None):
        files = {"src/repro/errors.py": ERRORS_PY}
        files["src/repro/core/api.py"] = api_source
        files.update(extra or {})
        _write_tree(tmp_path, files)
        return lint_tree(
            [tmp_path], [], [EXCEPTION_CONTRACT], root=tmp_path
        )

    def test_bare_builtin_raise_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            """
            def join(x):
                if x < 0:
                    raise ValueError("negative")
                return x
            """,
        )
        assert _codes(findings) == ["RL801"]
        assert "`join`" in findings[0].message
        assert "ValueError" in findings[0].message

    def test_errors_py_subclass_clean(self, tmp_path):
        findings = self._run(
            tmp_path,
            """
            from ..errors import InvalidParameterError


            def join(x):
                if x < 0:
                    raise InvalidParameterError("negative")
                return x
            """,
        )
        assert findings == []

    def test_propagated_raise_flagged_with_witness(self, tmp_path):
        findings = self._run(
            tmp_path,
            """
            from .inner import fetch


            def lookup(d, k):
                return fetch(d, k)
            """,
            extra={
                "src/repro/core/inner.py": """
                    def fetch(d, k):
                        if k not in d:
                            raise KeyError(k)
                        return d[k]
                    """,
            },
        )
        assert _codes(findings) == ["RL801"]
        assert "KeyError" in findings[0].message
        assert "fetch" in findings[0].message

    def test_caught_and_converted_clean(self, tmp_path):
        findings = self._run(
            tmp_path,
            """
            from .inner import fetch
            from ..errors import ReproError


            def lookup(d, k):
                try:
                    return fetch(d, k)
                except KeyError:
                    raise ReproError(str(k))
            """,
            extra={
                "src/repro/core/inner.py": """
                    def fetch(d, k):
                        if k not in d:
                            raise KeyError(k)
                        return d[k]
                    """,
            },
        )
        assert findings == []

    def test_control_flow_builtins_allowed(self, tmp_path):
        findings = self._run(
            tmp_path,
            """
            def bail(code):
                raise SystemExit(code)
            """,
        )
        assert findings == []

    def test_private_functions_exempt(self, tmp_path):
        findings = self._run(
            tmp_path,
            """
            def _internal(x):
                raise ValueError(x)
            """,
        )
        assert findings == []

    def test_marker_suppresses(self, tmp_path):
        findings = self._run(
            tmp_path,
            """
            # lint: exception-contract (test fixture)
            def join(x):
                raise ValueError(x)
            """,
        )
        assert findings == []


# -- RL901: catalogue drift ------------------------------------------------


class TestCatalogueDrift:
    def _run(self, tmp_path, files):
        _write_tree(tmp_path, files)
        return lint_tree(
            [tmp_path], [], [CATALOGUE_DRIFT], root=tmp_path
        )

    def test_uncatalogued_emission_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "obs/catalogue.py": """
                    SPAN_CATALOGUE = frozenset({"join.run"})
                    COUNTER_CATALOGUE = {"join.results": "results"}
                    """,
                "core/stats.py": """
                    class JoinStats:
                        __slots__ = ("results",)
                    """,
                "app.py": """
                    def run(reg, trace_span):
                        with trace_span("join.run"):
                            reg.inc("join.results", 1)
                            reg.inc("probe.unknown", 1)
                    """,
            },
        )
        assert _codes(findings) == ["RL901"]
        assert "probe.unknown" in findings[0].message
        assert findings[0].path == "app.py"

    def test_bridge_slot_missing_from_catalogue_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "obs/catalogue.py": """
                    SPAN_CATALOGUE = frozenset({"join.run"})
                    COUNTER_CATALOGUE = {"join.results": "results"}
                    """,
                "core/stats.py": """
                    class JoinStats:
                        __slots__ = ("results", "rounds")
                    """,
                "app.py": """
                    def run(reg, trace_span):
                        with trace_span("join.run"):
                            reg.inc("join.results", 1)
                    """,
            },
        )
        assert _codes(findings) == ["RL901"]
        assert "join.rounds" in findings[0].message
        assert findings[0].path == "obs/catalogue.py"

    def test_dead_counter_and_span_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "obs/catalogue.py": """
                    SPAN_CATALOGUE = frozenset({"tree.build"})
                    COUNTER_CATALOGUE = {"dead.counter": "never emitted"}
                    """,
                "app.py": """
                    def run():
                        return 0
                    """,
            },
        )
        assert _codes(findings) == ["RL901", "RL901"]
        messages = " ".join(f.message for f in findings)
        assert "dead.counter" in messages
        assert "tree.build" in messages

    def test_indirect_string_constant_keeps_counter_live(self, tmp_path):
        # The supervisor's _OUTCOME_COUNTERS idiom: the name only ever
        # appears as a dict value, never as an inc() literal.
        findings = self._run(
            tmp_path,
            {
                "obs/catalogue.py": """
                    SPAN_CATALOGUE = frozenset()
                    COUNTER_CATALOGUE = {"supervisor.ok": "ok attempts"}
                    """,
                "app.py": """
                    _OUTCOMES = {"ok": "supervisor.ok"}


                    def emit(reg, outcome):
                        reg.inc(_OUTCOMES[outcome], 1)
                    """,
            },
        )
        assert findings == []

    def test_marker_on_catalogue_entry_suppresses(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "obs/catalogue.py": """
                    SPAN_CATALOGUE = frozenset()
                    COUNTER_CATALOGUE = {
                        # lint: catalogue-drift (reserved for the next release)
                        "dead.counter": "never emitted",
                    }
                    """,
            },
        )
        assert findings == []

    def test_fixture_trees_without_catalogue_skipped(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "app.py": """
                    def run(reg):
                        reg.inc("anything.goes", 1)
                    """,
            },
        )
        assert findings == []


# -- seeded bugs: what the old per-file heuristics provably miss -----------


class TestSeededBugs:
    PIPE_LEAK = """
        import os


        def ship(payload, fast):
            r, w = os.pipe()
            os.write(w, payload)
            if fast:
                return r
            os.close(r)
            os.close(w)
            return None
    """

    UNSAFE_HANDLER = {
        "mod.py": """
            import signal

            LIVE = []


            def emergency(signum, frame):
                for seg in LIVE:
                    seg.unlink()


            def arm():
                signal.signal(signal.SIGTERM, emergency)
            """,
    }

    def test_rl702_catches_pipe_leak(self, tmp_path):
        new = _lint_source(tmp_path, self.PIPE_LEAK, [RESOURCE_FLOW])
        assert _codes(new) == ["RL702"]

    def test_rl701_catches_unsafe_handler(self, tmp_path):
        _write_tree(tmp_path, self.UNSAFE_HANDLER)
        new = lint_tree([tmp_path], [], [FORK_SIGNAL_SAFETY], root=tmp_path)
        assert _codes(new) == ["RL701"]


# -- the finding cache -----------------------------------------------------


BAD_SOURCE = "def f(index):\n    index.values[0] = 1\n"


class TestFindingCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "bad.py").write_text(BAD_SOURCE, encoding="utf-8")
        cache = tmp_path / "cache.json"

        first = lint_tree([root], [FROZEN_MUTATION], root=root, cache_path=cache)
        assert _codes(first) == ["RL101"]
        assert cache.is_file()

        # Tamper with the cached message: if the second run returns the
        # tampered text, it provably came from the cache, not a re-check.
        raw = json.loads(cache.read_text(encoding="utf-8"))
        raw["files"]["bad.py"]["findings"][0][4] = "tampered"
        cache.write_text(json.dumps(raw), encoding="utf-8")

        second = lint_tree([root], [FROZEN_MUTATION], root=root, cache_path=cache)
        assert [f.message for f in second] == ["tampered"]

    def test_edited_file_invalidates_entry(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        target = root / "bad.py"
        target.write_text(BAD_SOURCE, encoding="utf-8")
        cache = tmp_path / "cache.json"

        lint_tree([root], [FROZEN_MUTATION], root=root, cache_path=cache)
        target.write_text("def f(index):\n    return index.values\n", encoding="utf-8")
        after = lint_tree([root], [FROZEN_MUTATION], root=root, cache_path=cache)
        assert after == []

    def test_checker_selection_salts_the_cache(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "bad.py").write_text(BAD_SOURCE, encoding="utf-8")
        cache = tmp_path / "cache.json"

        lint_tree([root], [FROZEN_MUTATION], root=root, cache_path=cache)
        # A different selection must not replay RL101 from the stale entry.
        other = lint_tree([root], [RESOURCE_FLOW], root=root, cache_path=cache)
        assert other == []

    def test_syntax_errors_are_cached(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        cache = tmp_path / "cache.json"

        first = lint_tree([root], [FROZEN_MUTATION], root=root, cache_path=cache)
        second = lint_tree([root], [FROZEN_MUTATION], root=root, cache_path=cache)
        assert _codes(first) == _codes(second) == ["RL000"]


class TestSyntaxErrorPosition:
    def test_rl000_column_is_one_based(self, tmp_path):
        source = "def broken(:\n"
        try:
            compile(source, "<fixture>", "exec")
        except SyntaxError as exc:
            expected_col = max(1, exc.offset or 1)
            expected_line = exc.lineno or 1
        (tmp_path / "broken.py").write_text(source, encoding="utf-8")
        (finding,) = lint_tree([tmp_path], [], root=tmp_path)
        assert finding.code == "RL000"
        assert finding.line == expected_line
        assert finding.col == expected_col
        assert finding.col >= 1

    def test_checker_findings_are_one_based_too(self, tmp_path):
        # A violation anchored at column 0 of line 2 must render as col 1 —
        # the same convention RL000 uses, pinned so they cannot drift apart.
        (tmp_path / "bad.py").write_text(BAD_SOURCE, encoding="utf-8")
        (finding,) = lint_tree([tmp_path], [FROZEN_MUTATION], root=tmp_path)
        assert (finding.line, finding.col) == (2, 5)


# -- output formats --------------------------------------------------------


class TestOutputFormats:
    def _findings(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD_SOURCE, encoding="utf-8")
        return lint_tree([tmp_path], [FROZEN_MUTATION], root=tmp_path)

    def test_json_roundtrip(self, tmp_path):
        findings = self._findings(tmp_path)
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        entry = payload["findings"][0]
        assert entry["code"] == "RL101"
        assert entry["path"] == "bad.py"
        assert entry["line"] == 2

    def test_sarif_shape(self, tmp_path):
        findings = self._findings(tmp_path)
        doc = json.loads(render_sarif(findings, EVERY_CHECKER))
        assert doc["version"] == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {r["id"] for r in driver["rules"]} >= {"RL101", "RL702", "RL901"}
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "RL101"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2

    def test_cli_format_json(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_SOURCE, encoding="utf-8")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_cli_format_sarif(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_SOURCE, encoding="utf-8")
        assert lint_main([str(tmp_path), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"]


# -- the baseline workflow -------------------------------------------------


class TestBaseline:
    def test_write_then_subtract(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"

        assert (
            lint_main(
                [str(target), "--baseline", str(baseline), "--write-baseline"]
            )
            == 0
        )
        assert "wrote 1 finding(s)" in capsys.readouterr().err
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_line_shift_does_not_resurrect(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        lint_main([str(target), "--baseline", str(baseline), "--write-baseline"])
        capsys.readouterr()

        # Shift the grandfathered finding down two lines: still subtracted,
        # because the baseline matches on (path, code, message), not line.
        target.write_text("# a\n# b\n" + BAD_SOURCE, encoding="utf-8")
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_new_finding_still_fails(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        lint_main([str(target), "--baseline", str(baseline), "--write-baseline"])
        capsys.readouterr()

        target.write_text(
            BAD_SOURCE + "\ndef g(index):\n    index.offsets[1] = 2\n",
            encoding="utf-8",
        )
        assert lint_main([str(target), "--baseline", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert "offsets" in captured.out

    def test_unreadable_baseline_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n", encoding="utf-8")
        garbage = tmp_path / "baseline.json"
        garbage.write_text("{not json", encoding="utf-8")
        assert lint_main([str(target), "--baseline", str(garbage)]) == 2
        assert "unreadable baseline" in capsys.readouterr().err

    def test_write_baseline_requires_baseline(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_committed_baseline_is_empty(self):
        raw = json.loads(
            (REPO_ROOT / "tools" / "lint" / "baseline.json").read_text(
                encoding="utf-8"
            )
        )
        assert raw["findings"] == []


# -- CLI: selection and listing --------------------------------------------


class TestCliSelection:
    def test_list_checks_shows_markers(self, capsys):
        assert lint_main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for code in ("RL701", "RL702", "RL801", "RL901"):
            assert code in out
        for marker in (
            "fork-signal-safety",
            "resource-flow",
            "exception-contract",
            "catalogue-drift",
        ):
            assert marker in out

    def test_select_by_name(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_SOURCE, encoding="utf-8")
        assert lint_main([str(tmp_path), "--select", "frozen-mutation"]) == 1
        capsys.readouterr()
        assert lint_main([str(tmp_path), "--select", "resource-flow"]) == 0
        capsys.readouterr()

    def test_select_project_checker_runs(self, tmp_path, capsys):
        _write_tree(
            tmp_path,
            {
                "obs/catalogue.py": """
                    SPAN_CATALOGUE = frozenset()
                    COUNTER_CATALOGUE = {"dead.counter": "never emitted"}
                    """,
            },
        )
        assert lint_main([str(tmp_path), "--select", "RL901"]) == 1
        assert "dead.counter" in capsys.readouterr().out


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
