"""Micro-benchmark of the learners' inner loops.

Usage (from the root of a checkout):

    python3 benchmarks/bench_designs.py --label <name> --out <file.json>
                                        [--src <src dir>] [--runs N]

Times N runs (default 9) of each workload and records the best, the median
and the spread (max - min) of their wall times, with the counts of one run.
An in-process workload first makes one untimed call, so the timed runs do
not pay for lazy imports (``scipy.linalg`` on the first design) and
first-call caches.
The inner loops are the designs and estimates, the parameter-elimination
scan and the greedy packing of its nets:

- ``design-elim phase 1``: ``run_design_elimination`` at (d, s, k) =
  (40, 2, 500) and (16, 3, 300), epsilon 0.1, seed 0, with the phase-2 gap
  scan stubbed to find no gap, so a run is the C(d, s) designs and
  estimates plus the final error; counts designs and phase 1's queries.
- ``start design``: the start of every Frank-Wolfe design of phase 1 at
  (40, 2, 500), epsilon 0.1, seeds 0-2 (the stacks of phase 1's subset
  walk, ``design.subset_chunks``, built before the clock starts):
  ``design._lockstep`` on each stack, which picks the start rows, forms
  the start design matrices and decides which blocks already meet the
  target; no block of these steps.
  Counts the designs and those at the target at step 0, and records how
  many blocks the start-row and start-target certificates cleared and how
  many took the pivoted QR (``start_fallback``) or the leverage solve
  (``target_solved``); a checkout without the certificates clears none, so
  these are not compared.
- ``design-elim run``: full ``run_design_elimination`` runs at (40, 2, 500),
  epsilon 0.1, seeds 0-2, the benchmark's design-elim grid point; counts
  the queries and records the gap searches (``first_prediction_gap``
  calls), which are not compared, since they count searches, not steps.
- ``compressed stage``: at (d, s, k, epsilon) = (96, 3, 160, 0.25), seeds
  0-2, the benchmark's compressed stage: ``find_certified_map`` on the
  clean instance, then ``run_benign_elimination`` on the clean and on the
  noisy rewards with the map, budget 1200, instances built before the
  clock starts; counts the queries and rounds and records the designs it
  computed (``compressed_elim.frank_wolfe_design`` calls, ``fw_designs``),
  which are not compared, since a reused design is not computed.
- ``collect_representatives`` at d = 14, s = 2, k = 56, epsilon 0.05,
  seed 0, as the general-features runs of the benchmark call it; it issues
  no query.
- ``param-elim loop``: ``run_parameter_elimination`` at d = 6, k = 16,
  epsilon 0.6, for s = 2 and for s = 3, over seeds 1-3, on nets built (and
  seeded with the true restriction, as the CLI does) before the clock
  starts; counts elimination steps and queries over the three seeds.
- ``greedy packing``: ``greedy_pack`` of a ``sphere_pool(s, pool, 0)`` drawn
  before the clock starts, at separations from 0.3 down to 0.0014 and pools
  of 11,755 to 10**6 points (the first two are the pools of the ``param-scan``
  benchmark at s = 2 and 3); counts the accepted points.
- ``one-shot <algorithm>``: ``sparsebandit run`` of one grid point in a
  fresh interpreter, timed from spawning the process to its exit, so the
  imports count: param-elim at (d, s, k, epsilon) = (6, 3, 16, 0.6),
  design-elim at (40, 2, 500, 0.1) and general-features at (8, 2, 40, 0.05),
  seed 0; counts the CSV's queries and records the scipy subpackages the
  run loaded.

The package is imported from ``--src`` (default: this checkout's ``src``),
so a checkout of another commit can be timed into the same file. The
results are stored under ``--label`` with a digest of the package sources;
the other labels already in the file are kept, and the run fails if any of
its counts differ from theirs. BLAS runs on one thread unless the
environment sets it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent

def _grid(d, s, k, epsilon):
    return {"d": d, "s": s, "k": k, "epsilon": epsilon}


def _pool(s, pool, sep):
    return {"s": s, "pool": pool, "sep": sep}


# (workload, parameters)
WORKLOADS = (("design-elim phase 1", _grid(40, 2, 500, 0.1)),
             ("design-elim phase 1", _grid(16, 3, 300, 0.1)),
             ("start design", _grid(40, 2, 500, 0.1)),
             ("design-elim run", _grid(40, 2, 500, 0.1)),
             ("compressed stage", _grid(96, 3, 160, 0.25)),
             ("collect_representatives", _grid(14, 2, 56, 0.05)),
             ("param-elim loop", _grid(6, 2, 16, 0.6)),
             ("param-elim loop", _grid(6, 3, 16, 0.6)),
             *(("greedy packing", _pool(s, pool, sep))
               for s, pool, sep in ((2, 11_755, 0.3), (3, 90_125, 0.3),
                                    (2, 10 ** 6, 0.025), (2, 200_000, 0.005),
                                    (2, 10 ** 6, 0.0014), (3, 10 ** 6, 0.06),
                                    (6, 200_000, 0.3))),
             ("one-shot param-elim", _grid(6, 3, 16, 0.6)),
             ("one-shot design-elim", _grid(40, 2, 500, 0.1)),
             ("one-shot general-features", _grid(8, 2, 40, 0.05)))
PARAM_SEEDS = (1, 2, 3)
DESIGN_SEEDS = (0, 1, 2)
COMPRESSED_SEEDS = (0, 1, 2)
COMPRESSED_BUDGET = 1200
ONE_SHOTS = ("param-elim", "design-elim", "general-features")
# counts both sides must agree on, and counts only recorded
COUNTS = ("designs", "at_target", "steps", "rounds", "queries", "accepted")
NOTED = ("gap_scans", "fw_designs", "start_certified", "start_fallback",
         "target_certified", "target_solved")


def phase_one(d, s, k, eps):
    """One design-elim run with no phase-2 step."""
    from sparsebandit import QueryLedger, design_elim, random_sparse_instance

    instance = random_sparse_instance(d, s, k, eps, 0)

    def run():
        scan = design_elim.first_prediction_gap
        design_elim.first_prediction_gap = lambda *args, **kwargs: None
        try:
            res = design_elim.run_design_elimination(instance, QueryLedger())
        finally:
            design_elim.first_prediction_gap = scan
        return {"designs": len(res.subsets), "queries": res.phase1_queries}
    return run


def start_design(d, s, k, eps):
    """The start of phase 1's designs over DESIGN_SEEDS, stack by stack."""
    import numpy as np

    from sparsebandit import design, random_sparse_instance
    from sparsebandit.param_elim import subsets_of_size

    subsets = subsets_of_size(d, s)
    stacks = []
    for seed in DESIGN_SEEDS:
        phi = random_sparse_instance(d, s, k, eps, seed).features.matrix
        for _, blocks in design.subset_chunks(phi, subsets):
            stacks.append(np.ascontiguousarray(blocks.transpose(0, 2, 1)))

    def run():
        pivoted, solved = design._start_rows, design._leverages
        fallback = solves = 0

        def counted_rows(red):
            nonlocal fallback
            fallback += 1
            return pivoted(red)

        def counted_solve(rows, g_mat):
            nonlocal solves
            solves += len(rows)
            return solved(rows, g_mat)

        design._start_rows, design._leverages = counted_rows, counted_solve
        try:
            at_target = sum(int((design._lockstep(red_t)[4] == 0).sum())
                            for red_t in stacks)
        finally:
            design._start_rows, design._leverages = pivoted, solved
        designs = sum(len(red_t) for red_t in stacks)
        return {"designs": designs, "at_target": at_target,
                "start_certified": designs - fallback, "start_fallback": fallback,
                "target_certified": designs - solves, "target_solved": solves}
    return run


def design_run(d, s, k, eps):
    """Full design-elim runs over DESIGN_SEEDS, counting the gap searches."""
    from sparsebandit import QueryLedger, design_elim, random_sparse_instance

    instances = [random_sparse_instance(d, s, k, eps, seed) for seed in DESIGN_SEEDS]

    def run():
        scan = design_elim.first_prediction_gap
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return scan(*args)

        design_elim.first_prediction_gap = counted
        try:
            queries = sum(design_elim.run_design_elimination(instance, QueryLedger()).queries
                          for instance in instances)
        finally:
            design_elim.first_prediction_gap = scan
        return {"queries": queries, "gap_scans": calls}
    return run


def compressed_stage(d, s, k, eps):
    """A certified map, then clean and noisy benign elimination, over
    COMPRESSED_SEEDS, counting the designs computed."""
    import math

    from sparsebandit import NoiseModel, QueryLedger, compressed_elim, random_sparse_instance
    from sparsebandit.compression import choose_target_dim, find_certified_map

    upsilon = math.log(k) ** 0.25 * math.sqrt(eps)
    p = choose_target_dim(k, upsilon, d)
    cases = [(seed, random_sparse_instance(d, s, k, eps, seed, basis_probes=False),
              random_sparse_instance(d, s, k, eps, seed, basis_probes=False,
                                     noise=NoiseModel(kind="gaussian", seed=seed)))
             for seed in COMPRESSED_SEEDS]

    def run():
        solve = compressed_elim.frank_wolfe_design
        calls = queries = rounds = 0

        def counted(rows):
            nonlocal calls
            calls += 1
            return solve(rows)

        compressed_elim.frank_wolfe_design = counted
        try:
            for seed, clean, noisy in cases:
                cmap = find_certified_map(d, p, clean.features.matrix,
                                          clean.theta_star.coords, upsilon, base_seed=seed)
                for instance in (clean, noisy):
                    res = compressed_elim.run_benign_elimination(
                        instance, cmap, COMPRESSED_BUDGET, QueryLedger())
                    queries += res.queries
                    rounds += res.rounds
        finally:
            compressed_elim.frank_wolfe_design = solve
        return {"queries": queries, "rounds": rounds, "fw_designs": calls}
    return run


def collect(d, s, k, eps):
    """One representative collection."""
    from sparsebandit import collect_representatives, random_sparse_instance

    instance = random_sparse_instance(d, s, k, eps, 0)

    def run():
        reps = collect_representatives(instance.features, instance.s)
        return {"designs": len(reps.subsets), "queries": 0}
    return run


def param_loop(d, s, k, eps):
    """Parameter elimination over PARAM_SEEDS on prebuilt nets."""
    import numpy as np

    from sparsebandit import (QueryLedger, build_separated_net, include_point,
                              random_sparse_instance)
    from sparsebandit.model import NORM_TOL
    from sparsebandit.param_elim import run_parameter_elimination

    cases = []
    for seed in PARAM_SEEDS:
        instance = random_sparse_instance(d, s, k, eps, seed)
        net = build_separated_net(s, eps, seed)
        restriction = instance.theta_star.coords[list(instance.theta_star.support)]
        if abs(np.linalg.norm(restriction) - 1.0) <= NORM_TOL:
            net = include_point(net, restriction)
        cases.append((instance, net))

    def run():
        steps = queries = 0
        for instance, net in cases:
            ledger = QueryLedger()
            steps += len(run_parameter_elimination(instance, ledger, net=net).log)
            queries += len(ledger)
        return {"steps": steps, "queries": queries}
    return run


def packing(s, pool, sep):
    """One greedy packing of a seeded sphere pool."""
    from sparsebandit.net import greedy_pack, sphere_pool

    points = sphere_pool(s, pool, 0)

    def run():
        return {"accepted": len(greedy_pack(points, sep))}
    return run


# what the ``sparsebandit`` console script runs, with argv[1] (the package's
# src directory) first on the path; prints the public scipy subpackages the
# run loaded as its last line
ONE_SHOT = """
import sys
sys.path.insert(0, sys.argv[1])
from sparsebandit.cli import main
code = main(["run", sys.argv[2]])
loaded = {name.split(".")[1] for name in sys.modules if name.startswith("scipy.")}
print(" ".join(sorted(sub for sub in loaded if not sub.startswith("_"))))
sys.exit(code)
"""


def one_shot(algorithm):
    """One ``sparsebandit run`` of ``algorithm`` at a grid point, in a fresh
    process; BLAS threads are inherited from this one."""
    def prepare(d, s, k, eps):
        import sparsebandit

        src = str(Path(sparsebandit.__file__).resolve().parents[1])

        def run():
            with tempfile.TemporaryDirectory() as tmp:
                cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "run.csv"
                cfg.write_text(f"algorithm {algorithm}\nd {d}\ns {s}\n"
                               f"epsilon {eps}\nk {k}\nseeds 0\noutput {out}\n")
                proc = subprocess.run([sys.executable, "-c", ONE_SHOT, src, str(cfg)],
                                      capture_output=True, text=True, check=True)
                with open(out, newline="") as fh:
                    queries = int(next(csv.DictReader(fh))["queries"])
            return {"queries": queries, "scipy": proc.stdout.splitlines()[-1].split()}
        return run
    return prepare


PREPARE = {"design-elim phase 1": phase_one,
           "start design": start_design,
           "design-elim run": design_run,
           "compressed stage": compressed_stage,
           "collect_representatives": collect,
           "param-elim loop": param_loop,
           "greedy packing": packing,
           **{f"one-shot {alg}": one_shot(alg)
              for alg in ONE_SHOTS}}


def measure(name, params, runs):
    run = PREPARE[name](*params.values())
    if name not in {f"one-shot {alg}" for alg in ONE_SHOTS}:
        run()       # warm-up, untimed
    counts, times = None, []
    for _ in range(runs):
        t0 = time.perf_counter()
        counts = run()
        times.append(time.perf_counter() - t0)
    return {"workload": name, **params, **counts,
            "best_s": min(times), "median_s": statistics.median(times),
            "spread_s": max(times) - min(times),
            "runs_s": [round(t, 6) for t in times]}


def src_digest(src: Path) -> str:
    """sha256 over the package's Python sources, to tell checkouts apart."""
    digest = hashlib.sha256()
    for path in sorted((src / "sparsebandit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _where(result):
    """The workload's parameters, as printed."""
    keys = ("s", "pool", "sep") if "pool" in result else ("d", "s", "k", "epsilon")
    return " ".join(f"{key}={result[key]}" for key in keys)


def counts_of(result):
    return {key: result[key] for key in COUNTS if key in result}


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
            if counts_of(mine) != counts_of(theirs):
                print(f"{mine['workload']} at {_where(mine)}: counts {counts_of(mine)} differ from {other}'s "
                      f"{counts_of(theirs)}", file=sys.stderr)
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
        counts = "  ".join(f"{key} {r[key]}" for key in COUNTS + NOTED if key in r)
        scipy = f"  scipy {' '.join(r['scipy']) or '-'}" if "scipy" in r else ""
        print(f"{args.label:>8} {r['workload']:<25} {_where(r):<28} best "
              f"{r['best_s']:.4f} s  median "
              f"{r['median_s']:.4f} s  spread {r['spread_s']:.4f} s  {counts}{scipy}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
