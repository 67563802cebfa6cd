"""Micro-benchmark of the per-subset Frank-Wolfe designs and estimates.

Usage (from the root of a checkout):

    python3 benchmarks/bench_designs.py --label <name> --out <file.json>
                                        [--src <src dir>] [--runs N]

Times N runs (default 9) of each workload and records the best, the median
and the spread (max - min) of their wall times, with the number of designs
and queries of one run:

- ``design-elim phase 1``: ``run_design_elimination`` at (d, s, k) =
  (40, 2, 500) and (16, 3, 300), epsilon 0.1, seed 0, with the phase-2 gap
  scan stubbed to find no gap, so a run is the C(d, s) designs and
  estimates plus the final error; the queries are phase 1's.
- ``collect_representatives`` at d = 14, s = 2, k = 56, epsilon 0.05,
  seed 0, as the general-features runs of the benchmark call it; it issues
  no query.

The package is imported from ``--src`` (default: this checkout's ``src``),
so a checkout of another commit can be timed into the same file. The
results are stored under ``--label`` with a digest of the package sources;
the other labels already in the file are kept, and the run fails if its
design or query counts differ from theirs. BLAS runs on one thread unless
the environment sets it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = (("design-elim phase 1", 40, 2, 500, 0.1),
             ("design-elim phase 1", 16, 3, 300, 0.1),
             ("collect_representatives", 14, 2, 56, 0.05))


def phase_one(instance):
    """One design-elim run with no phase-2 step: (designs, queries)."""
    from sparsebandit import QueryLedger, design_elim

    scan = design_elim.first_prediction_gap
    design_elim.first_prediction_gap = lambda *args, **kwargs: None
    try:
        res = design_elim.run_design_elimination(instance, QueryLedger())
    finally:
        design_elim.first_prediction_gap = scan
    return len(res.subsets), res.phase1_queries


def collect(instance):
    """One representative collection: (designs, queries)."""
    from sparsebandit import collect_representatives

    return len(collect_representatives(instance.features, instance.s).subsets), 0


def measure(name, d, s, k, eps, runs):
    from sparsebandit import random_sparse_instance

    instance = random_sparse_instance(d, s, k, eps, 0)
    run = phase_one if name.startswith("design-elim") else collect
    counts, times = None, []
    for _ in range(runs):
        t0 = time.perf_counter()
        counts = run(instance)
        times.append(time.perf_counter() - t0)
    return {"workload": name, "d": d, "s": s, "k": k, "epsilon": eps,
            "designs": counts[0], "queries": counts[1],
            "best_s": min(times), "median_s": statistics.median(times),
            "spread_s": max(times) - min(times),
            "runs_s": [round(t, 6) for t in times]}


def src_digest(src: Path) -> str:
    """sha256 over the package's Python sources, to tell checkouts apart."""
    digest = hashlib.sha256()
    for path in sorted((src / "sparsebandit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--runs", type=int, default=9)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    results = [measure(*w, args.runs) for w in WORKLOADS]
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    labels = data.setdefault("labels", {})
    for other, entry in labels.items():
        if other == args.label:
            continue
        for mine, theirs in zip(results, entry["results"]):
            if (mine["designs"], mine["queries"]) != (theirs["designs"],
                                                      theirs["queries"]):
                print(f"{mine['workload']} at d={mine['d']}: designs/queries "
                      f"{mine['designs']}/{mine['queries']} differ from "
                      f"{other}'s {theirs['designs']}/{theirs['queries']}",
                      file=sys.stderr)
                return 1
    labels[args.label] = {
        "src_sha256": src_digest(args.src),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "cpus": os.cpu_count(),
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "runs": args.runs},
        "results": results,
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    for r in results:
        print(f"{args.label:>8} {r['workload']:<24} d={r['d']:<3} s={r['s']} "
              f"k={r['k']:<4} best {r['best_s']:.4f} s  median "
              f"{r['median_s']:.4f} s  spread {r['spread_s']:.4f} s  "
              f"designs {r['designs']}  queries {r['queries']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
