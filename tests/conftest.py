"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

from repro.data.collection import SetCollection

ALL_METHODS = (
    "framework",
    "framework_et",
    "tree",
    "tree_et",
    "all_partition",
    "lcjoin",
    "naive",
    "bnl",
    "pretti",
    "limit",
    "ttjoin",
    "piejoin",
    "shj",
    "psj",
    "dcj",
)

PAPER_METHODS = (
    "framework",
    "framework_et",
    "tree",
    "tree_et",
    "all_partition",
    "lcjoin",
)


def random_collection(
    rng: random.Random,
    num_sets: int,
    universe: int,
    max_size: Optional[int] = None,
) -> SetCollection:
    """A random collection with sizes in [1, max_size]."""
    cap = min(universe, max_size if max_size is not None else 6)
    records: List[List[int]] = []
    for __ in range(num_sets):
        size = rng.randint(1, cap)
        records.append(rng.sample(range(universe), size))
    return SetCollection(records)


def random_instance(seed: int) -> Tuple[SetCollection, SetCollection]:
    """A reproducible (R, S) pair for equivalence testing."""
    rng = random.Random(seed)
    universe = rng.choice([3, 5, 8, 15, 30, 60])
    r = random_collection(rng, rng.randint(1, 30), universe)
    s = random_collection(rng, rng.randint(1, 30), universe)
    return r, s


@pytest.fixture
def paper_tables():
    """The running example from Table I, as (R, S, expected pairs)."""
    from repro.data import PAPER_EXPECTED_PAIRS, paper_r, paper_s

    return paper_r(), paper_s(), list(PAPER_EXPECTED_PAIRS)


@pytest.fixture
def small_zipf():
    """A small skewed self-join workload shared by several test modules."""
    from repro.data import generate_zipf

    return generate_zipf(
        cardinality=400, avg_set_size=5, num_elements=60, z=0.6, seed=9
    )


#: The array index's two layouts, as ``backend`` parameter ids: ``csr`` is
#: the index with no bitmap rows, so every list is probed through the CSR
#: arrays (the layout serve's base index uses); ``hybrid`` is the default,
#: with bitmap rows for the dense lists.
ARRAY_LAYOUTS = ("csr", "hybrid")


@pytest.fixture
def backend(request, monkeypatch):
    """Resolve a ``backend`` parameter given with ``indirect=True``.

    ``csr`` runs ``backend="hybrid"`` with every array index packed with
    ``max_dense=0``; any other id is passed through unchanged.
    """
    layout = request.param
    if layout != "csr":
        return layout
    from repro.index.storage import HybridInvertedIndex

    for name in ("build", "from_index"):
        real = getattr(HybridInvertedIndex, name).__func__

        def no_rows(cls, source, dense_threshold=None, max_dense=0, _real=real):
            return _real(cls, source, dense_threshold, 0)

        monkeypatch.setattr(HybridInvertedIndex, name, classmethod(no_rows))
    return "hybrid"
