"""Tests for the repro-lint static analyzer (``tools.lint``).

Each checker is exercised against seeded-violation fixtures (must flag)
and clean variants (must pass), then the whole tool is pointed at the
real ``src/repro`` tree, which must come back clean — that is the
invariant the CI lint job enforces.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.lint import ALL_CHECKERS, lint_file, lint_paths  # noqa: E402
from tools.lint.base import LintedFile, _parse_markers  # noqa: E402
from tools.lint.cli import main as lint_main  # noqa: E402


def _lint_source(
    tmp_path: Path, source: str, rel: str = "module.py"
) -> list:
    """Write ``source`` at ``rel`` under a scratch root and lint it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, ALL_CHECKERS, root=tmp_path)


def _codes(findings) -> list:
    return [f.code for f in findings]


# -- RL101: frozen index storage must not be mutated ----------------------


class TestFrozenMutation:
    def test_store_to_frozen_attr_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def corrupt(index):
                index.values[0] = 99
            """,
        )
        assert _codes(findings) == ["RL101"]

    def test_mutator_method_call_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def grow(index):
                index.offsets.sort()
            """,
        )
        assert _codes(findings) == ["RL101"]

    def test_out_kwarg_alias_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import numpy as np

            def sneaky(index):
                np.add(index.keyed, 1, out=index.keyed)
            """,
        )
        assert _codes(findings) == ["RL101"]

    def test_augmented_assignment_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def shift(index):
                index.values += 1
            """,
        )
        assert _codes(findings) == ["RL101"]

    def test_read_only_access_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def probe(index, e):
                lo = index.offsets[e]
                hi = index.offsets[e + 1]
                return index.values[lo:hi]
            """,
        )
        assert findings == []

    def test_builder_module_exempt(self, tmp_path):
        # The same mutation inside the index builders is the point of
        # those modules and must not be flagged.
        findings = _lint_source(
            tmp_path,
            """
            def build(index):
                index.values[0] = 1
                index.lists.append([])
            """,
            rel="index/storage.py",
        )
        assert findings == []

    def test_constructor_self_store_exempt(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            class Thing:
                def __init__(self, values):
                    self.values = list(values)
            """,
        )
        assert findings == []

    def test_marker_suppresses(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def patch(index):
                # lint: frozen-mutation-ok (test fixture)
                index.values[0] = 1
            """,
        )
        assert findings == []


# -- RL301: scalar loops in the batched kernels ---------------------------


class TestHotLoops:
    def test_loop_in_kernels_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def kernel(values):
                total = 0
                for v in values:
                    total += v
                return total
            """,
            rel="index/kernels.py",
        )
        assert _codes(findings) == ["RL301"]

    def test_while_loop_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def kernel(n):
                while n > 0:
                    n -= 1
            """,
            rel="index/kernels.py",
        )
        assert _codes(findings) == ["RL301"]

    def test_marker_suppresses(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def kernel(values):
                # lint: scalar-fallback (test fixture)
                for v in values:
                    pass
            """,
            rel="index/kernels.py",
        )
        assert findings == []

    def test_marker_flows_through_comment_block(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def kernel(values):
                # lint: scalar-fallback (the rationale for this loop
                # continues on a second comment line)
                for v in values:
                    pass
            """,
            rel="index/kernels.py",
        )
        assert findings == []

    def test_comprehension_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def kernel(values):
                return [v + 1 for v in values]
            """,
            rel="index/kernels.py",
        )
        assert _codes(findings) == ["RL301"]
        assert "list comprehension" in findings[0].message

    def test_generator_expression_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def kernel(values):
                return sum(v + 1 for v in values)
            """,
            rel="index/kernels.py",
        )
        assert _codes(findings) == ["RL301"]
        assert "generator expression" in findings[0].message

    def test_marked_comprehension_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def kernel(parts, order):
                # lint: scalar-fallback (test fixture)
                return [parts[i] for i in order]
            """,
            rel="index/kernels.py",
        )
        assert findings == []

    def test_other_modules_not_hot(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def helper(values):
                for v in values:
                    pass
            """,
            rel="core/api.py",
        )
        assert findings == []


# -- RL401: backend parameter parity --------------------------------------


class TestBackendParity:
    def test_ignored_backend_param_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def join(r, s, backend="python"):
                return do_python_join(r, s)
            """,
        )
        assert _codes(findings) == ["RL401"]

    def test_dispatch_on_literals_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def join(r, s, backend="python"):
                if backend == "hybrid":
                    return array_join(r, s)
                return python_join(r, s)
            """,
        )
        assert findings == []

    def test_retired_literal_is_no_dispatch(self, tmp_path):
        # "csr" is no longer a backend: testing for it handles neither
        # registered array case.
        findings = _lint_source(
            tmp_path,
            """
            def join(r, s, backend="python"):
                if backend == "csr":
                    return array_join(r, s)
                return python_join(r, s)
            """,
        )
        assert _codes(findings) == ["RL401"]

    def test_forwarding_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def join(r, s, backend="python"):
                return inner_join(r, s, backend=backend)
            """,
        )
        assert findings == []

    def test_positional_pass_flagged(self, tmp_path):
        # Only the keyword form counts as forwarding.
        findings = _lint_source(
            tmp_path,
            """
            def join(r, s, backend="python"):
                return inner_join(r, s, backend)
            """,
        )
        assert _codes(findings) == ["RL401"]

    def test_private_function_exempt(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def _helper(r, backend):
                return r
            """,
        )
        assert findings == []

    def test_marker_suppresses(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            # lint: backend-agnostic (test fixture)
            def stats(r, backend="python"):
                return len(r)
            """,
        )
        assert findings == []


# -- RL501: trace_span names ----------------------------------------------


CATALOGUE_REL = "src/repro/obs/catalogue.py"


def _seed_catalogue(tmp_path, names=("join.run", "tree.build")):
    """Plant a fake span catalogue so the membership check arms."""
    path = tmp_path / CATALOGUE_REL
    path.parent.mkdir(parents=True, exist_ok=True)
    literals = ", ".join(repr(n) for n in names)
    path.write_text(
        f"SPAN_CATALOGUE = frozenset({{{literals}}})\n", encoding="utf-8"
    )


class TestSpanNames:
    def test_fstring_name_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            from repro.obs import trace_span

            def run(method):
                with trace_span(f"join.{method}"):
                    pass
            """,
        )
        assert _codes(findings) == ["RL501"]
        assert "plain string literal" in findings[0].message

    def test_variable_name_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def run(name, trace_span):
                with trace_span(name):
                    pass
            """,
        )
        assert _codes(findings) == ["RL501"]

    def test_bad_shape_flagged(self, tmp_path):
        for bad in ("'Join.Run'", "'joinrun'", "'join..run'", "'join.Run'"):
            findings = _lint_source(
                tmp_path,
                f"""
                from repro.obs import trace_span

                with trace_span({bad}):
                    pass
                """,
            )
            assert _codes(findings) == ["RL501"], bad
            assert "dotted lowercase" in findings[0].message

    def test_catalogued_literal_clean(self, tmp_path):
        _seed_catalogue(tmp_path)
        findings = _lint_source(
            tmp_path,
            """
            from repro.obs import trace_span

            with trace_span("tree.build"):
                pass
            """,
        )
        assert findings == []

    def test_typo_caught_when_catalogue_present(self, tmp_path):
        _seed_catalogue(tmp_path)
        findings = _lint_source(
            tmp_path,
            """
            from repro.obs import trace_span

            with trace_span("tree.bulid"):
                pass
            """,
        )
        assert _codes(findings) == ["RL501"]
        assert "not in the documented" in findings[0].message

    def test_membership_skipped_without_catalogue(self, tmp_path):
        # Fixture trees have no src/repro/obs/catalogue.py: only
        # literal-ness and shape are enforced there.
        findings = _lint_source(
            tmp_path,
            """
            from repro.obs import trace_span

            with trace_span("tree.bulid"):
                pass
            """,
        )
        assert findings == []

    def test_attribute_call_checked(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            from repro.obs import spans

            def run(name):
                with spans.trace_span(name):
                    pass
            """,
        )
        assert _codes(findings) == ["RL501"]

    def test_marker_suppresses(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def run(name, trace_span):
                with trace_span(name):  # lint: span-name (test escape hatch)
                    pass
            """,
        )
        assert findings == []

    def test_argless_call_ignored(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            from repro.obs import trace_span

            trace_span()
            """,
        )
        assert findings == []

    def test_real_catalogue_matches_instrumented_spans(self):
        # Every span name used in src/repro must already be catalogued:
        # the real tree linted against the real catalogue stays clean, and
        # the inverse — a name missing from the real catalogue — fails.
        import re

        catalogue_src = (REPO_ROOT / CATALOGUE_REL).read_text(encoding="utf-8")
        catalogued = set(re.findall(r'"([a-z0-9_.]+)"', catalogue_src))
        used = set()
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            used.update(
                re.findall(r'trace_span\(\s*"([^"]+)"', path.read_text(encoding="utf-8"))
            )
        assert used  # the instrumentation exists
        assert used <= catalogued


# -- RL601: the run log writes through the atomic helper -------------------


RUNLOG_REL = "src/repro/core/runlog.py"


class TestAtomicWrites:
    def test_write_mode_open_flagged_in_runlog(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """,
            rel=RUNLOG_REL,
        )
        assert _codes(findings) == ["RL601"]
        assert "atomic_write_bytes" in findings[0].message

    def test_append_and_exclusive_modes_flagged(self, tmp_path):
        for mode in ("ab", "x", "r+"):
            findings = _lint_source(
                tmp_path,
                f"""
                def save(path):
                    open(path, {mode!r})
                """,
                rel=RUNLOG_REL,
            )
            assert _codes(findings) == ["RL601"], mode

    def test_non_literal_mode_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def save(path, mode):
                open(path, mode)
            """,
            rel=RUNLOG_REL,
        )
        assert _codes(findings) == ["RL601"]
        assert "non-literal" in findings[0].message

    def test_os_open_with_write_flags_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os

            def save(path):
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
                os.close(fd)
            """,
            rel=RUNLOG_REL,
        )
        assert _codes(findings) == ["RL601"]

    def test_pathlib_write_methods_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def save(path, data):
                path.write_bytes(data)
                path.write_text("x")
            """,
            rel=RUNLOG_REL,
        )
        assert _codes(findings) == ["RL601", "RL601"]

    def test_read_only_opens_pass(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os

            def load(path):
                with open(path, "rb") as handle:
                    handle.read()
                open(path)
                fd = os.open(path, os.O_RDONLY)
                os.close(fd)
            """,
            rel=RUNLOG_REL,
        )
        assert findings == []

    def test_marker_suppresses(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os

            def torn(path, data):
                fd = os.open(path, os.O_WRONLY | os.O_CREAT)  # lint: atomic-write (fault injection)
                os.write(fd, data)
                os.close(fd)
            """,
            rel=RUNLOG_REL,
        )
        assert findings == []

    def test_other_modules_out_of_scope(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """,
            rel="src/repro/data/io.py",
        )
        assert findings == []

    def test_serve_durability_modules_in_scope(self, tmp_path):
        # PR 10 extended the scope to the serve durability layer: the same
        # raw write that RL601 flags in the run log is flagged there too.
        for rel in ("src/repro/serve/wal.py", "src/repro/serve/replica.py"):
            findings = _lint_source(
                tmp_path,
                """
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
                rel=rel,
            )
            assert _codes(findings) == ["RL601"], rel
            assert "atomic_write_bytes" in findings[0].message

    def test_marker_suppresses_in_serve_scope(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import os

            def append(path, line):
                fd = os.open(path, os.O_WRONLY | os.O_APPEND)  # lint: atomic-write (checksummed append-only log)
                os.write(fd, line)
                os.close(fd)
            """,
            rel="src/repro/serve/wal.py",
        )
        assert findings == []


# -- driver plumbing -------------------------------------------------------


class TestDriver:
    def test_syntax_error_becomes_rl000(self, tmp_path):
        findings = _lint_source(tmp_path, "def broken(:\n")
        assert _codes(findings) == ["RL000"]

    def test_lint_paths_sorts_and_recurses(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text(
            "def f(index):\n    index.values[0] = 1\n", encoding="utf-8"
        )
        (tmp_path / "pkg" / "a.py").write_text(
            "def g(index):\n    index.keyed[0] = 1\n", encoding="utf-8"
        )
        findings = lint_paths([tmp_path / "pkg"], ALL_CHECKERS, root=tmp_path)
        assert [f.path for f in findings] == ["pkg/a.py", "pkg/b.py"]

    def test_pycache_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("def f(:\n", encoding="utf-8")
        assert lint_paths([tmp_path], ALL_CHECKERS, root=tmp_path) == []

    def test_marker_parser_multiple_names(self):
        markers = _parse_markers("x = 1  # lint: scalar-fallback, frozen-mutation-ok\n")
        assert markers[1] == {"scalar-fallback", "frozen-mutation-ok"}

    def test_marker_parser_comma_names_with_spaces(self):
        markers = _parse_markers(
            "# lint:  span-name ,  atomic-write  (shared rationale)\nx = 1\n"
        )
        assert markers[1] == {"span-name", "atomic-write"}
        # Flowed down to the first code line below the comment.
        assert markers[2] == {"span-name", "atomic-write"}

    def test_marker_flows_down_through_comment_and_blank_lines(self):
        source = (
            "# lint: scalar-fallback (the rationale spills over\n"
            "# onto a second comment line)\n"
            "\n"
            "for i in range(3):\n"
            "    pass\n"
        )
        markers = _parse_markers(source)
        assert "scalar-fallback" in markers[1]
        assert "scalar-fallback" in markers[4]  # the for-loop line
        assert 5 not in markers  # flow stops at the first code line

    def test_marker_rationale_text_is_ignored_by_parser(self):
        markers = _parse_markers(
            "x = open(p)  # lint: resource-flow (closed by, e.g., the caller)\n"
        )
        assert markers[1] == {"resource-flow"}

    def test_suppressed_line_above(self, tmp_path):
        path = tmp_path / "m.py"
        source = "# lint: scalar-fallback\nfor i in range(3):\n    pass\n"
        path.write_text(source, encoding="utf-8")
        linted = LintedFile(path, source, root=tmp_path)
        loop = linted.tree.body[0]
        assert linted.suppressed(loop, "scalar-fallback")

    def test_suppressed_same_line(self, tmp_path):
        path = tmp_path / "m.py"
        source = (
            "x = 1  # lint: scalar-fallback (same line)\n"
            "y = 2\n"
            "for i in range(3):\n"
            "    pass\n"
        )
        path.write_text(source, encoding="utf-8")
        linted = LintedFile(path, source, root=tmp_path)
        first, second, loop = linted.tree.body
        assert linted.suppressed(first, "scalar-fallback")
        # A same-line marker on a *code* line covers the next line too
        # (line-above rule) but does not flow further down.
        assert linted.suppressed(second, "scalar-fallback")
        assert not linted.suppressed(loop, "scalar-fallback")


# -- CLI -------------------------------------------------------------------


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_and_render(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(index):\n    index.values[0] = 1\n", encoding="utf-8")
        assert lint_main([str(bad)]) == 1
        captured = capsys.readouterr()
        assert "RL101" in captured.out
        assert "1 finding(s)" in captured.err

    def test_select_filters_checkers(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(index):\n    index.values[0] = 1\n", encoding="utf-8")
        # Only the hot-loop checker selected: the frozen mutation is not
        # reported.
        assert lint_main([str(bad), "--select", "RL301"]) == 0
        capsys.readouterr()

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "RL999"]) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_checks(self, capsys):
        assert lint_main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RL101",
            "RL301",
            "RL401",
            "RL501",
            "RL601",
            "RL701",
            "RL702",
            "RL801",
            "RL901",
        ):
            assert code in out


# -- the real tree must be clean ------------------------------------------


class TestRealTree:
    def test_src_repro_is_clean(self):
        findings = lint_paths(
            [REPO_ROOT / "src" / "repro"], ALL_CHECKERS, root=REPO_ROOT
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_whole_program_checkers_clean_on_real_tree(self):
        from tools.lint import ALL_PROJECT_CHECKERS, lint_tree

        findings = lint_tree(
            [REPO_ROOT / "src" / "repro"],
            ALL_CHECKERS,
            ALL_PROJECT_CHECKERS,
            root=REPO_ROOT,
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_module_invocation_exits_zero(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.lint",
                "src/repro",
                "tools",
                "benchmarks",
                "--baseline",
                "tools/lint/baseline.json",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
