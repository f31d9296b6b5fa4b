"""Checker registry for repro-lint.

Each module contributes one :class:`~tools.lint.base.Checker` (per-file)
or :class:`~tools.lint.project.ProjectChecker` (whole-program); the CLI
and tests consume the aggregate tuples. Codes are stable — they are what
``--select`` filters on and what marker documentation refers to.
"""

from ..base import Checker
from ..project import ProjectChecker
from .atomic_writes import CHECKER as ATOMIC_WRITES
from .backend_parity import CHECKER as BACKEND_PARITY
from .catalogue_drift import CHECKER as CATALOGUE_DRIFT
from .exception_contract import CHECKER as EXCEPTION_CONTRACT
from .fork_signal_safety import CHECKER as FORK_SIGNAL_SAFETY
from .frozen_mutation import CHECKER as FROZEN_MUTATION
from .hot_loops import CHECKER as HOT_LOOPS
from .resource_flow import CHECKER as RESOURCE_FLOW
from .span_names import CHECKER as SPAN_NAMES

__all__ = ["ALL_CHECKERS", "ALL_PROJECT_CHECKERS", "EVERY_CHECKER"]

#: Per-file checkers (run on one parsed file at a time; cacheable).
ALL_CHECKERS: tuple[Checker, ...] = (
    FROZEN_MUTATION,
    HOT_LOOPS,
    BACKEND_PARITY,
    SPAN_NAMES,
    ATOMIC_WRITES,
    RESOURCE_FLOW,
)

#: Whole-program checkers (run once over the Project of every parsed file).
ALL_PROJECT_CHECKERS: tuple[ProjectChecker, ...] = (
    FORK_SIGNAL_SAFETY,
    EXCEPTION_CONTRACT,
    CATALOGUE_DRIFT,
)

#: Everything, in code order — what ``--list-checks`` prints.
EVERY_CHECKER: tuple[Checker | ProjectChecker, ...] = tuple(
    sorted(ALL_CHECKERS + ALL_PROJECT_CHECKERS, key=lambda c: c.code)
)
