"""Run one workload of the repo benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload zipf_warm --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing recorded;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Every metric is printed by name with its unit, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record of the run — raw samples, sample counts, percentiles
used, seed, corpus sizes, host metadata — goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` (and the spans of
a traced run to a ``.spans.jsonl`` file beside it).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("zipf_warm", "http_broad", "write_mix")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.common import OUT_DIR, host_metadata
    from perfbench.metrics import (BY_NAME, END_TO_END_NAMES,
                                   complete_layers)

    workload = importlib.import_module(f"perfbench.{args.workload}")
    started = time.perf_counter()
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - started

    if args.trace:
        values, not_applicable = complete_layers(result.per_layer)
    else:
        values, not_applicable = dict(result.end_to_end), []
        missing = set(END_TO_END_NAMES) - set(values)
        if missing:
            raise RuntimeError(f"workload did not measure {sorted(missing)}")
    for name, value in values.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = None
    if result.spans is not None:
        spans_file = OUT_DIR / f"{stem}.spans.jsonl"
        result.spans.write_jsonl(spans_file)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "run_elapsed_s": elapsed,
        "host": host_metadata(),
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": BY_NAME[name].unit,
                   "better": BY_NAME[name].better,
                   "description": BY_NAME[name].description,
                   **({"bound": BY_NAME[name].bound}
                      if BY_NAME[name].bound is not None else
                      {"moves": BY_NAME[name].moves,
                       "on": BY_NAME[name].on}),
                   **({"not_applicable": True}
                      if name in not_applicable else {})}
            for name, value in values.items()},
        "spans_file": str(spans_file.relative_to(ROOT))
        if spans_file else None,
        **result.record,
    }
    record_file = OUT_DIR / f"{stem}.json"
    record_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    width = max(len(name) for name in values)
    for name, value in values.items():
        note = "  (not applicable: no such layer)" \
            if name in not_applicable else ""
        print(f"{name:<{width}}  {value:.6g} {BY_NAME[name].unit}{note}")
    print(f"correct={result.correct} attempted={result.attempted} "
          f"failed={result.failed} record={record_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": BY_NAME[name].unit}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
