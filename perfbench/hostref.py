"""Host-speed reference: a fixed pure-Python loop timed around operations.

The benchmark's host drifts in speed by tens of percent within seconds, and
every timing moves with it. Each timed operation is therefore bracketed by
reference samples, and its raw time is rescaled by::

    nominal_ref / mean(reference sample before, reference sample after)

so a time metric reads "seconds at the nominal host speed" (for a metric
that follows host speed only partly, the factor is raised to a measured
power, see ``spec.HOST_EXPONENT``). Drift common
to the program and the loop cancels; a regression in the program does not,
because the reference loop runs no program code. Bracketing each sample
tracks drift that a single per-run median cannot follow (see README.md).

A reference taken on one CPU says little about another, and cross-CPU
wake-ups are invisible to it, so a run keeps the benchmark and the servers
it starts on one CPU (:func:`pin`) and samples the reference there; an
operation that uses every CPU (``workers=2``) is bracketed by the mean of a
sample taken on each CPU.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["NOMINAL_REF_MS", "REF_ITERATIONS", "reference_loop", "HostRef", "pin", "all_cpus"]

#: Work done by one reference loop. Fixed forever: changing it changes the
#: meaning of every normalised time.
REF_ITERATIONS = 10_000

#: Loops timed per reference sample (one sample is their mean).
REF_REPEATS = 5

#: The reference loop's duration on the nominal host, in milliseconds.
NOMINAL_REF_MS = 2.6


def reference_loop() -> int:
    """Tuple, list and dict churn in the interpreter loop; no I/O.

    Allocation-heavy on purpose: on the reference host, join time moved
    with this loop's time to the power 0.9-1.1, against 1.2-1.5 for pure
    integer arithmetic and 0.5-0.75 for a cache-missing list walk.
    """
    table = {}
    for i in range(REF_ITERATIONS):
        table[(i, i * 3)] = [i]
    return len(table)


def all_cpus() -> List[int]:
    """CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


@contextmanager
def pin(cpus: Set[int]) -> Iterator[None]:
    """Restrict this process (and children it starts) to ``cpus``.

    Where the host refuses the affinity change, the run goes on unpinned.
    """
    previous = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, cpus)
    except OSError as exc:
        print(f"# perfbench: running unpinned: {exc}", file=sys.stderr)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def _time_loops() -> float:
    """Milliseconds per reference loop, with the collector held off.

    A collection's cost grows with the live heap, which differs between
    workloads and grows during a run; the loop must not pay for it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REF_REPEATS):
            reference_loop()
        return (time.perf_counter() - start) * 1000.0 / REF_REPEATS
    finally:
        if enabled:
            gc.enable()


class HostRef:
    """Reference samples of one run and the normalisation they imply."""

    def __init__(self) -> None:
        self.samples_ms: List[float] = []

    def sample(self, cpus: Optional[Sequence[int]] = None) -> float:
        """Time the reference loop; returns and keeps milliseconds per loop.

        With ``cpus``, the loop runs on each of them in turn and the sample
        is their mean.
        """
        if cpus is None:
            elapsed_ms = _time_loops()
        else:
            per_cpu = []
            for cpu in cpus:
                with pin({cpu}):
                    per_cpu.append(_time_loops())
            elapsed_ms = statistics.fmean(per_cpu)
        self.samples_ms.append(elapsed_ms)
        return elapsed_ms

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor taking a time measured between two samples to nominal speed.

        A metric that follows host speed only partly uses this factor to
        its own power (:data:`spec.HOST_EXPONENT`).
        """
        return NOMINAL_REF_MS / ((before_ms + after_ms) / 2.0)

    def measure(
        self, fn: Callable[[], Any], cpus: Optional[Sequence[int]] = None
    ) -> Tuple[float, float, Any]:
        """Run ``fn`` between two reference samples (taken on ``cpus``).

        Returns ``(raw seconds, scale factor, fn's result)``.
        """
        before = self.sample(cpus)
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = self.sample(cpus)
        return raw, self.scale(before, after), result

    def ref_ms(self) -> float:
        """Median reference time of this run (``host.ref_ms``)."""
        if not self.samples_ms:
            raise ValueError("no reference samples taken in this run")
        return statistics.median(self.samples_ms)

    def factor(self) -> float:
        """Run-wide factor, for numbers not bracketed sample by sample."""
        return NOMINAL_REF_MS / self.ref_ms()
