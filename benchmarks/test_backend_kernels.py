"""Backend shoot-out: every registered index backend, head to head.

Same algorithm, same pair set, two layouts: the paper-faithful
``bisect``-over-Python-lists loop, and the array index (numpy CSR arrays
plus bitmap rows for the densest lists) whose superstep kernel routes each
probe through its list's representation (:mod:`repro.index.kernels`). The
grid is driven by the :data:`repro.core.api.BACKENDS` registry, so a newly
registered backend joins the comparison (and gets a speedup gate) by
adding one entry to ``MIN_SPEEDUP`` below.

Two workload families:

* the Fig-9 AOL surrogate (uniform-ish query log) in the paper's counting
  mode — where the array backend must beat the python loop by ``>= 2x``;
* a Zipf z-sweep of the array kernel on the same index with and without
  bitmap rows (``max_dense=0``), both prebuilt so only the join is timed —
  where the dense lists dominate every probe and the bitmap rows must pay
  off, ``>= 2x`` over the no-bitmap index at ``z = 1``, and not regress at
  ``z = 0.5``.

Emits ``benchmarks/results/BENCH_backends.json`` (AOL grid) and
``benchmarks/results/BENCH_hybrid.json`` (z-sweep) with the gates
recorded next to the measurements.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.api import BACKENDS
from repro.data.realworld import generate_real_world
from repro.index.storage import HybridInvertedIndex

from conftest import bench_scale, measured_run, synthetic_dataset

METHODS = ("framework", "framework_et")
AOL_SCALE = 0.001  # Fig 9's smallest sweep point

#: Per-(backend, baseline) wall-clock gates, applied per method on the AOL
#: grid. A backend missing from this table runs unconstrained (recorded
#: but not gated) — add a floor when registering a new backend.
MIN_SPEEDUP = {
    ("hybrid", "python"): 2.0,
}

#: The z-sweep (method "framework", self join, backend "hybrid"): the
#: array index as built by default against the same index built with
#: ``max_dense=0`` (no bitmap rows). The pure-Python loop would take
#: minutes on these shapes, so it is deliberately excluded (the AOL grid
#: above covers it).
ZIPF_LAYOUTS = {"no_bitmap": {"max_dense": 0}, "bitmap": {}}
ZIPF_WORKLOADS = {
    0.5: dict(cardinality=20_000, avg_set_size=24, num_elements=5_000, seed=1),
    1.0: dict(cardinality=40_000, avg_set_size=24, num_elements=5_000, seed=1),
}
#: bitmap-over-no-bitmap floors per z: the bitmap rows' claim at z = 1,
#: and a no-regression floor at moderate skew.
ZIPF_MIN_SPEEDUP = {0.5: 1.0, 1.0: 2.0}

_dataset = {}
_cells = {}
_zipf_cells = {}


def _aol():
    if "data" not in _dataset:
        _dataset["data"] = generate_real_world(
            "aol", scale=AOL_SCALE * bench_scale()
        )
    return _dataset["data"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", METHODS)
def test_backend_cell(benchmark, method, backend):
    data = _aol()
    m = measured_run(
        "backend_kernels", benchmark, method, data,
        workload=f"aol-{int(AOL_SCALE * 1_000_000)}ppm-{backend}",
        backend=backend,
    )
    _cells[(method, backend)] = m
    assert m.results > 0


def test_backend_speedup_and_report(benchmark):
    """Every gated backend pair must clear its ``MIN_SPEEDUP`` floor on
    every method, with all backends agreeing on the result count; the
    whole comparison is written to BENCH_backends.json for the docs."""
    for method in METHODS:
        for backend in BACKENDS:
            if (method, backend) not in _cells:
                pytest.skip("cells did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    records = []
    speedups = {}
    for method in METHODS:
        baseline_counts = {b: _cells[(method, b)].results for b in BACKENDS}
        assert len(set(baseline_counts.values())) == 1, baseline_counts
        for backend in BACKENDS:
            m = _cells[(method, backend)]
            records.append(
                {
                    "method": m.method,
                    "backend": backend,
                    "workload": m.workload,
                    "num_sets": m.num_r,
                    "elapsed_seconds": round(m.elapsed_seconds, 4),
                    "pairs": m.results,
                }
            )
        for (backend, baseline), floor in MIN_SPEEDUP.items():
            ratio = (
                _cells[(method, baseline)].elapsed_seconds
                / _cells[(method, backend)].elapsed_seconds
            )
            speedups[f"{backend}_over_{baseline}:{method}"] = round(ratio, 2)

    out_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_backends.json")
    report = {
        "figure": "backend_kernels",
        "dataset": "aol-surrogate",
        "scale": AOL_SCALE * bench_scale(),
        "backends": list(BACKENDS),
        "min_speedup_required": {
            f"{backend}_over_{baseline}": floor
            for (backend, baseline), floor in MIN_SPEEDUP.items()
        },
        "speedups": speedups,
        "cells": records,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\n[benchmarks] wrote backend comparison to {path}")
    print(f"speedups: {speedups}")

    for method in METHODS:
        for (backend, baseline), floor in MIN_SPEEDUP.items():
            ratio = speedups[f"{backend}_over_{baseline}:{method}"]
            assert ratio >= floor, (
                f"{backend} only {ratio:.2f}x vs {baseline} on {method} "
                f"(floor {floor}x)"
            )


# -- Zipf z-sweep: where the bitmap rows must pay off ----------------------


@pytest.mark.parametrize("layout", sorted(ZIPF_LAYOUTS))
@pytest.mark.parametrize("z", sorted(ZIPF_WORKLOADS))
def test_zipf_cell(benchmark, z, layout):
    data = synthetic_dataset(z=z, **ZIPF_WORKLOADS[z])
    index = HybridInvertedIndex.build(data, **ZIPF_LAYOUTS[layout])
    m = measured_run(
        "hybrid_zipf", benchmark, "framework", data,
        workload=f"zipf-z{z}-{layout}",
        backend="hybrid", index=index,
    )
    _zipf_cells[(z, layout)] = (m, index.num_dense)
    assert m.results > 0


def test_hybrid_zipf_speedup_and_report(benchmark):
    """The bitmap gate: on heavy skew (z = 1) nearly every probe lands on
    a dense list, and the bitmap rows must beat the same kernel on the
    no-bitmap index by ``>= 2x``. Written to BENCH_hybrid.json."""
    for z in ZIPF_WORKLOADS:
        for layout in ZIPF_LAYOUTS:
            if (z, layout) not in _zipf_cells:
                pytest.skip("cells did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    records = []
    speedups = {}
    for z in sorted(ZIPF_WORKLOADS):
        plain, __ = _zipf_cells[(z, "no_bitmap")]
        hyb, __ = _zipf_cells[(z, "bitmap")]
        assert plain.results == hyb.results
        speedups[z] = plain.elapsed_seconds / hyb.elapsed_seconds
        for layout in sorted(ZIPF_LAYOUTS):
            m, num_dense = _zipf_cells[(z, layout)]
            records.append(
                {
                    "layout": layout,
                    "dense_lists": num_dense,
                    "z": z,
                    "workload": m.workload,
                    "num_sets": m.num_r,
                    "elapsed_seconds": round(m.elapsed_seconds, 4),
                    "pairs": m.results,
                }
            )

    out_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_hybrid.json")
    report = {
        "figure": "hybrid_zipf",
        "dataset": "zipf-sweep",
        "method": "framework",
        "backend": "hybrid",
        "scale": bench_scale(),
        "layouts": sorted(ZIPF_LAYOUTS),
        "min_speedup_required": {
            f"bitmap_over_no_bitmap:z={z}": floor
            for z, floor in ZIPF_MIN_SPEEDUP.items()
        },
        "speedup_bitmap_over_no_bitmap": {
            f"z={z}": round(v, 2) for z, v in speedups.items()
        },
        "cells": records,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\n[benchmarks] wrote hybrid z-sweep to {path}")
    print(f"speedups: {report['speedup_bitmap_over_no_bitmap']}")

    for z, floor in ZIPF_MIN_SPEEDUP.items():
        assert speedups[z] >= floor, (
            f"bitmap rows only {speedups[z]:.2f}x vs no bitmap rows at "
            f"z={z} (floor {floor}x)"
        )
