"""repro-lint: AST-based invariant checks for the LCJoin reproduction.

The algorithms in :mod:`repro` are only correct under invariants the code
cannot express locally — inverted lists stay sorted after freeze, the CSR
arrays are immutable once built, acquired resources are released on every
path, and the batched kernels never fall back to scalar Python loops
without saying so. This package walks the source tree with :mod:`ast` and
enforces those invariants *statically*, so a violation fails CI instead of
surfacing as a silently-wrong join or a leaked file descriptor.

Two kinds of checks run. *File* checkers see one :class:`LintedFile` at a
time; *project* checkers see the whole parsed tree at once — a symbol
table and call graph over every linted module (:mod:`tools.lint.project`)
plus a statement-level control-flow graph per function
(:mod:`tools.lint.cfg`) — so they can reason about propagated exceptions,
transitive signal-handler calls, and cross-file catalogue drift.

Checks (each documented in its module under ``tools/lint/checkers``):

========  ====================  ==============================================
code      checker               invariant
========  ====================  ==============================================
RL101     frozen-mutation       frozen index storage is never mutated outside
                                the builder modules
RL301     hot-loop              no scalar Python loops or comprehensions in
                                hot-path modules unless marked
                                ``# lint: scalar-fallback``
RL401     backend-parity        every public ``backend=`` function dispatches
                                both ``"python"`` and ``"hybrid"``
RL501     span-name             every ``trace_span`` name is a catalogued
                                dotted-lowercase literal
RL601     atomic-write          the run log writes only through the atomic
                                temp → fsync → rename helper
RL701     fork-signal-safety    worker entrypoints don't mutate module globals
                                without a pid guard; signal handlers call only
                                async-signal-safe operations (project-wide)
RL702     resource-flow         acquired resources (shm, pipe/mkstemp fds,
                                write handles) are released on every CFG path
RL801     exception-contract    public API/CLI surfaces raise only the
                                ``errors.py`` hierarchy (call-graph propagated)
RL901     catalogue-drift       emitted metric/span names and the catalogue
                                agree in both directions (dead entries too)
========  ====================  ==============================================

Findings can be suppressed with a marker comment on the offending line or
the line directly above it::

    # lint: scalar-fallback (straggler tail; superstep overhead dominates)
    for i in range(cand.shape[0]):
        ...

Usage::

    python -m tools.lint [paths ...] [--select RL101,RL702] [--list-checks]
                         [--format text|json|sarif] [--baseline FILE]
                         [--write-baseline] [--cache FILE]

Exit status: 0 — clean; 1 — findings; 2 — usage / parse errors.
"""

from .base import Finding, LintedFile, lint_file, lint_paths
from .checkers import ALL_CHECKERS, ALL_PROJECT_CHECKERS, EVERY_CHECKER
from .engine import lint_tree

__all__ = [
    "Finding",
    "LintedFile",
    "lint_file",
    "lint_paths",
    "lint_tree",
    "ALL_CHECKERS",
    "ALL_PROJECT_CHECKERS",
    "EVERY_CHECKER",
]
