"""Differential self-checking and the ``REPRO_CHECK=1`` debug sanitizer.

A library whose core value is "the fast algorithm returns exactly what
brute force would" should be able to demonstrate that on demand, on the
user's machine, against the user's data shapes. :func:`self_check` runs a
randomized differential campaign: generate instances across a grid of
shapes (skew, duplication, universe size, set-size mix), run every
registered method, and compare each against the naive ground truth. The
CLI exposes it as ``lcjoin selftest``.

This is the same discipline as the test suite's equivalence module, but
packaged as a runtime facility with a structured report — usable in CI
pipelines of downstream projects or after local modifications.

Debug sanitizer (``REPRO_CHECK=1``)
-----------------------------------
The static analyzer (``python -m tools.lint``) proves invariants about the
*source*; the sanitizer is its dynamic counterpart, checking the *data* at
runtime. Setting the environment variable ``REPRO_CHECK=1`` turns on cheap
asserts at the structural seams:

* every inverted list is strictly ascending and bounded by ``inf_sid``
  after a build (:func:`check_sorted_lists`);
* the array index's CSR arrays are monotone and mutually consistent
  after a build, its bitmap rows reconstruct bit-exactly to their CSR
  value slices and its dense routing tables are mutually inverse
  (:func:`check_array_layout`);
* ``framework``/``framework_et`` joins on ``backend="hybrid"`` (the
  methods that probe the array index) on small instances are
  spot-checked against the Python backend pair set
  (:func:`crosscheck_backends`).

Violations raise :class:`~repro.errors.InvariantViolation`. The checks are
read-only and O(index size) at worst, so the mode is suitable for CI smoke
runs and for debugging; it is **off** by default and costs one environment
lookup per build when disabled.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..data.collection import SetCollection
from ..errors import InvalidParameterError, InvariantViolation
from .api import BACKENDS, JOIN_METHODS, set_containment_join
from .verify import ground_truth

__all__ = [
    "SelfCheckReport",
    "Discrepancy",
    "self_check",
    "repro_check_enabled",
    "check_sorted_lists",
    "check_array_layout",
    "crosscheck_backends",
]

#: Above this many (|R| x |S|) cells the cross-backend spot check is skipped
#: — the sanitizer must stay cheap enough to leave on for a whole test run.
_CROSSCHECK_CELLS = 250_000


def repro_check_enabled() -> bool:
    """True when the ``REPRO_CHECK`` debug-sanitizer mode is on.

    Read dynamically (not cached at import) so tests and embedding
    processes can toggle the mode per call site.
    """
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


def check_sorted_lists(index) -> None:
    """Assert every inverted list is strictly ascending and id-bounded.

    Applies to :class:`~repro.index.inverted.InvertedIndex` (global or
    local). Gap-skipping probes (paper §IV) are only sound on sorted lists,
    so this is the single most load-bearing invariant in the library.
    """
    inf_sid = index.inf_sid
    for element, lst in index.lists.items():
        previous = -1
        for sid in lst:
            if sid <= previous:
                raise InvariantViolation(
                    f"inverted list of element {element} is not strictly "
                    f"ascending: ...{previous}, {sid}..."
                )
            previous = sid
        if previous >= inf_sid:
            raise InvariantViolation(
                f"inverted list of element {element} contains id {previous} "
                f">= inf_sid {inf_sid}"
            )
    universe = index.universe
    if not isinstance(universe, range):
        if any(b <= a for a, b in zip(universe, universe[1:])):
            raise InvariantViolation("index universe is not strictly ascending")


def check_array_layout(index) -> None:
    """Assert the arrays of a ``HybridInvertedIndex`` are consistent.

    CSR checks: ``offsets`` monotone nondecreasing from 0 to
    ``len(values)``; ``keyed`` globally nondecreasing (which implies every
    per-list slice of ``values`` is sorted, since lists occupy disjoint
    key ranges); postings within ``[0, stride)`` so composite keys cannot
    collide across lists.

    Bitmap checks: ``dense_ids`` strictly ascending and in-range,
    ``dense_map`` its exact inverse, ``bitmap_words`` sized to
    ``inf_sid``, and every bitmap row reconstructing bit-for-bit to the
    element's CSR ``values`` slice (unpacked little-endian, the layout the
    probe kernel assumes).
    """
    import numpy as np

    offsets, values, keyed = index.offsets, index.values, index.keyed
    if offsets.shape[0] == 0 or offsets[0] != 0:
        raise InvariantViolation("CSR offsets must start at 0")
    if int(offsets[-1]) != values.shape[0]:
        raise InvariantViolation(
            f"CSR offsets end ({int(offsets[-1])}) != len(values) "
            f"({values.shape[0]})"
        )
    if np.any(np.diff(offsets) < 0):
        raise InvariantViolation("CSR offsets are not monotone nondecreasing")
    if keyed.shape[0] != values.shape[0]:
        raise InvariantViolation("CSR keyed/values length mismatch")
    if keyed.shape[0]:
        if np.any(np.diff(keyed) < 0):
            raise InvariantViolation(
                "CSR composite keys are not globally sorted — an inverted "
                "list was mutated after freeze"
            )
        if int(values.min()) < 0 or int(values.max()) >= index.stride:
            raise InvariantViolation(
                "CSR postings fall outside [0, stride); composite keys "
                "would collide across lists"
            )
    dense_ids = index.dense_ids
    words = index.bitmap_words
    if words != (index.inf_sid + 63) >> 6:
        raise InvariantViolation(
            f"hybrid bitmap_words {words} != ceil(inf_sid / 64) for "
            f"inf_sid {index.inf_sid}"
        )
    if dense_ids.shape[0]:
        if np.any(np.diff(dense_ids) <= 0):
            raise InvariantViolation("hybrid dense_ids not strictly ascending")
        if int(dense_ids[0]) < 0 or int(dense_ids[-1]) >= index.num_slots:
            raise InvariantViolation("hybrid dense_ids out of element range")
    if index.bitmap.shape[0] != dense_ids.shape[0] * words:
        raise InvariantViolation(
            f"hybrid bitmap length {index.bitmap.shape[0]} != num_dense "
            f"({dense_ids.shape[0]}) * words ({words})"
        )
    expected_map = np.full(index.num_slots, -1, dtype=np.int64)
    if dense_ids.shape[0]:
        expected_map[dense_ids] = np.arange(dense_ids.shape[0], dtype=np.int64)
    if not np.array_equal(index.dense_map, expected_map):
        raise InvariantViolation("hybrid dense_map is not the dense_ids inverse")
    for row, element in enumerate(dense_ids.tolist()):
        row_words = index.bitmap[row * words : (row + 1) * words]
        bits = np.unpackbits(
            row_words.astype("<u8").view(np.uint8), bitorder="little"
        )
        got = np.flatnonzero(bits)
        lst = index.values[index.offsets[element] : index.offsets[element + 1]]
        if not np.array_equal(got, np.asarray(lst, dtype=np.int64)):
            raise InvariantViolation(
                f"hybrid bitmap row for element {element} does not "
                f"reconstruct its CSR list"
            )


def crosscheck_backends(
    r_collection, s_collection, pairs, method: str, backend: str = "hybrid"
) -> None:
    """Spot-check an array-backend pair set against the Python backend.

    Skipped on instances larger than the ``_CROSSCHECK_CELLS`` budget so the
    sanitizer stays affordable; small instances are where shape edge cases
    live anyway (the differential campaign below leans on the same insight).
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if len(r_collection) * max(len(s_collection), 1) > _CROSSCHECK_CELLS:
        return
    # The shadow join runs under a throwaway registry: the sanitizer is
    # invoked while the caller's metrics registry is still installed, and
    # letting the verification pass feed it would double every join
    # counter the caller reads afterwards.
    from ..obs.registry import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry()):
        expected = set(
            set_containment_join(r_collection, s_collection, method=method)
        )
    got = set(pairs)
    if got != expected:
        missing = len(expected - got)
        extra = len(got - expected)
        raise InvariantViolation(
            f"backend={backend!r} pair set diverges from backend='python' "
            f"for method={method!r}: {missing} missing, {extra} extra of "
            f"{len(expected)} expected"
        )


@dataclass(frozen=True)
class Discrepancy:
    """One method disagreeing with ground truth on one instance."""

    method: str
    seed: int
    missing: int
    extra: int
    r_records: Tuple[Tuple[int, ...], ...]
    s_records: Tuple[Tuple[int, ...], ...]

    def __str__(self) -> str:
        return (
            f"{self.method} (seed {self.seed}): {self.missing} missing, "
            f"{self.extra} extra pairs on |R|={len(self.r_records)}, "
            f"|S|={len(self.s_records)}"
        )


@dataclass
class SelfCheckReport:
    """Outcome of a differential campaign."""

    trials: int = 0
    comparisons: int = 0
    discrepancies: List[Discrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.discrepancies)} FAILURES"
        lines = [
            f"self-check: {status} — {self.trials} instances, "
            f"{self.comparisons} method comparisons"
        ]
        lines.extend(str(d) for d in self.discrepancies[:10])
        return "\n".join(lines)


def _random_instance(rng: random.Random) -> Tuple[SetCollection, SetCollection]:
    """One adversarially-shaped instance.

    The shape grid deliberately includes the corners that have bitten set
    join implementations: single-element universes, heavy duplication,
    prefix chains, and elements present on one side only.
    """
    universe = rng.choice([1, 2, 4, 8, 16, 40])
    shape = rng.choice(["uniform", "dupes", "chains", "skew"])

    def one_set() -> List[int]:
        if shape == "chains":
            start = 0
            length = rng.randint(1, min(universe, 8))
            return list(range(start, start + length))
        if shape == "skew":
            return list({
                min(int(universe * rng.random() ** 2), universe - 1)
                for __ in range(rng.randint(1, 6))
            })
        return rng.sample(range(universe), rng.randint(1, min(universe, 6)))

    def collection(n: int) -> SetCollection:
        base = [one_set() for __ in range(n)]
        if shape == "dupes" and base:
            base = [base[rng.randrange(len(base))] for __ in range(n)]
        # One side may reference elements the other never saw.
        if rng.random() < 0.3:
            base.append([universe + rng.randint(0, 3)])
        return SetCollection(base)

    return collection(rng.randint(1, 20)), collection(rng.randint(1, 20))


def self_check(
    trials: int = 50,
    methods: Optional[Sequence[str]] = None,
    seed: int = 0,
    stop_on_failure: bool = False,
) -> SelfCheckReport:
    """Run the differential campaign; see the module docstring."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    chosen = tuple(methods) if methods is not None else tuple(
        m for m in JOIN_METHODS if m != "naive"
    )
    unknown = [m for m in chosen if m not in JOIN_METHODS]
    if unknown:
        raise InvalidParameterError(f"unknown methods: {unknown}")
    report = SelfCheckReport()
    for trial in range(trials):
        instance_seed = seed + trial
        rng = random.Random(instance_seed)
        r, s = _random_instance(rng)
        expected = set(ground_truth(r, s))
        report.trials += 1
        for method in chosen:
            got = set(set_containment_join(r, s, method=method))
            report.comparisons += 1
            if got != expected:
                report.discrepancies.append(
                    Discrepancy(
                        method=method,
                        seed=instance_seed,
                        missing=len(expected - got),
                        extra=len(got - expected),
                        r_records=tuple(r.records),
                        s_records=tuple(s.records),
                    )
                )
                if stop_on_failure:
                    return report
    return report
