#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 18 --trace 0

Workloads: ``offline`` (train + eval), ``serve`` (HTTP server) and
``serve-cluster`` (router + 2 shard engines).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs traced and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full self-describing row is written under ``.perfbench/rows/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common as C  # noqa: E402

WORKLOADS = ("offline", "serve", "serve-cluster")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shape", choices=sorted(C.SHAPES), default="icews14",
                   help="dataset shape (tiny is for the self-test)")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="perturb the reference answers (self-test of the correctness check)")
    return p.parse_args(argv)


def _execute(args, trace: bool):
    """Run the workload once; returns (raw result, summary)."""
    if args.workload == "offline":
        from perfbench import offline as W

        result = W.run(args.seed, args.seconds, trace, args.shape)
    else:
        from perfbench import serve as W

        result = W.run(args.workload, args.seed, args.seconds, trace, args.shape,
                       corrupt_reference=args.corrupt_reference)
    return W, result, W.summarize(result, trace)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        C.bootstrap()
    except C.SourceMissing as exc:
        print(exc, file=sys.stderr)
        return 2
    from perfbench import metrics as M

    trace = bool(args.trace)
    started = time.time()
    untraced_path = C.row_path(args.workload, args.seed, False, args.shape)
    if trace and C.read_row(untraced_path) is None:
        # no untraced run of this seed yet: make one, in its own process
        # like any other, as the tracing-overhead basis
        subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--shape", args.shape],
            cwd=C.ROOT, stdout=subprocess.DEVNULL, timeout=170, check=True,
        )
    baseline = C.read_row(untraced_path) if trace else None
    W, result, summary = _execute(args, trace)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    checks = dict(summary.get("checks", {}))
    other = C.read_row(C.row_path(args.workload, args.seed, not trace, args.shape))
    if "mrrs" in result and other and other.get("mrrs"):
        # offline: the walks' MRRs must not depend on tracing
        reference = dict(other["mrrs"])
        if args.corrupt_reference:
            reference = {k: v + 1.0 for k, v in reference.items()}
        same = reference == result["mrrs"]
        checks["mrr_matches_other_trace_mode"] = same
        if not same:
            failed += 1
    correct = failed == 0

    row = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "shape": args.shape,
        **C.source_identity(),
        "dataset": result["dataset"],
        "model": dict(C.MODEL),
        "config": W.config(args.shape),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": C.cpu_count()},
        "metrics": summary["named"],
        "end_to_end": summary["e2e"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "checks": checks,
        "mrrs": result.get("mrrs"),
        "overhead_basis": W.overhead_basis(result),
        "wall_s": time.time() - started,
    }
    if trace:
        analysis = summary["analysis"]
        layers = dict(summary["layers"])
        layers["trace.overhead"] = row["overhead_basis"] / baseline["overhead_basis"]
        row["layers"] = layers
        row["trace_roots"] = analysis.roots
        row["trace_wall_s"] = analysis.wall_s
        gap = M.coverage_report(analysis)
        if gap is not None:
            row["coverage_gap"] = gap
        metrics = M.complete(layers)
    else:
        metrics = M.end_to_end(summary["e2e"])
    if not args.corrupt_reference:
        C.write_row(row, C.row_path(args.workload, args.seed, trace, args.shape))
    C.remove_scratch()

    for name, value in summary["named"].items():
        print(f"{args.workload} {name}: " + json.dumps(value, sort_keys=True, default=float))
    if trace and "coverage_gap" in row:
        print(f"{args.workload} coverage gap: " + json.dumps(row["coverage_gap"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
