"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload dense-long --seed 1 --seconds 12 --trace 0

Run from the repository root.  The package is imported from ./src.  The last
line of stdout is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
The lines before it repeat each metric by name with its unit, plus the
figures that only some workloads have.  Spans of a traced run are written to
.bench_out/.  Exit code 0 means a result was printed; see README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNITS = {"_s": "s", "_ms": "ms", "_per_s": "1/s", "_mb": "MB", "calls": "count",
         "_pairs": "count", "_parts": "count", "_points": "count", "_verdicts": "count",
         "nodes": "count", "_samples": "count"}


def unit(name: str) -> str:
    for suffix in sorted(UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return UNITS[suffix]
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mtlsem" / "__init__.py").is_file():
        print(f"error: no package source at {src}/mtlsem", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    out_dir.mkdir(exist_ok=True)
    try:
        res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), tmp,
                          spans_path=spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {platform.python_version()} nproc {len(os.sched_getaffinity(0))} "
          f"requests {res['requests']} timed_passes {res['passes']}")
    for msg in res["failures"][:20]:
        print(f"FAILED {msg}")
    for layer in res.get("silent_layers", ()):
        print(f"WARNING layer {layer} recorded no calls; its spans no longer cover it")
    shown = dict(res["metrics"], **res.get("report", {}),
                 failed_share=res["failed"] / res["attempted"])
    for name, value in shown.items():
        print(f"{name} {value} {unit(name)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
