"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload join-aol --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``. The
full run record (raw times, host reference, workload shape, spans) goes to
``perfbench/out/records/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program is imported from this checkout's source tree only.
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.chdir(ROOT)

    import workload
    from spec import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tag = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    records = os.path.join(OUT, "records")
    os.makedirs(records, exist_ok=True)
    try:
        outcome = workload.run(spec, args.seed, args.seconds, bool(args.trace), workdir, SRC)
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(records, f"{tag}.spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(records, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"result": outcome["result"], **outcome["record"]}, handle, indent=1)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
