"""Paired benchmark of a change against its parent: perfbench, tier-1,
greedy packing and one-shot runs.

Usage (from the root of the change's checkout):

    git archive <parent> | tar -x -C <dir>
    python3 benchmarks/bench.py --parent <dir> --out <file.json> [--runs N]

The change is the checkout that holds this script. Every measurement is one
fresh process in one side's checkout, with that side's ``src``, and runs in
pairs: one run of the parent and one of the change, the parent first in even
pairs and the change first in odd ones, so the two runs of a pair are taken
minutes apart and the host's drift falls on both sides alike.

- ``perfbench <workload>``: the command, workloads and run length of this
  checkout's ``BENCHMARK.json``, run in each side's checkout; N pairs of
  untraced runs at seeds 1..N and one pair of traced runs at seed 0. Each
  run's metrics and perfbench's ``env`` line (source digest, numpy, scipy and
  BLAS threads) are recorded. The metrics are perfbench's own; this script
  times nothing here.
- ``tier-1``: ROADMAP.md's tier-1 command with ``--durations=5``; two pairs,
  so parent, change, change, parent. Records pytest's wall time, its pass,
  fail, skip and error counts and the five slowest tests.
- ``greedy packing``: ``greedy_pack`` of a ``sphere_pool(s, pool, 0)``, at
  separations from 0.3 down to 0.0014 and pools of 11,755 to 10**6 points
  (the first two are the pools of the ``param-scan`` benchmark at s = 2 and
  3). The pool is drawn and one call made before the clock starts; one call
  is timed. Counts the accepted points.
- ``one-shot <algorithm>``: ``sparsebandit run`` of one grid point, timed
  from spawning the process to its exit, so the imports count: param-elim at
  (d, s, k, epsilon) = (6, 3, 16, 0.6), design-elim at (40, 2, 500, 0.1) and
  general-features at (8, 2, 40, 0.05), seed 0. Counts the CSV's queries and
  records, without comparing them, the scipy subpackages the run loaded.

For every numeric metric the file holds each side's runs, median and
quartiles and the number of pairs in which the change read lower; any other
value is recorded run by run. Nothing is written, and the script exits
non-zero, if a perfbench run is not ``correct`` or has a failed run, or if
the two runs of a pair read different ``queries`` or ``accepted`` counts.
BLAS runs on one thread unless the environment sets it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# ROADMAP.md's tier-1 command, less its PYTHONPATH, which tier1 sets
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5")
# counts the two runs of a pair must agree on
COUNTS = ("queries", "accepted")
# the fields of perfbench's env line that are recorded; its paths are not
ENV = ("src_sha256", "python", "numpy", "scipy", "blas_threads", "nproc")
PACKINGS = ((2, 11_755, 0.3), (3, 90_125, 0.3), (2, 10 ** 6, 0.025), (2, 200_000, 0.005),
            (2, 10 ** 6, 0.0014), (3, 10 ** 6, 0.06), (6, 200_000, 0.3))
ONE_SHOTS = (("param-elim", 6, 3, 16, 0.6), ("design-elim", 40, 2, 500, 0.1),
             ("general-features", 8, 2, 40, 0.05))

# argv: src directory, s, pool size, separation; prints the accepted count
# and the seconds of one timed call as JSON
PACK = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from sparsebandit.net import greedy_pack, sphere_pool
s, pool, sep = int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
points = sphere_pool(s, pool, 0)
greedy_pack(points, sep)
t0 = time.perf_counter()
accepted = len(greedy_pack(points, sep))
print(json.dumps({"wall_s": time.perf_counter() - t0, "accepted": accepted}))
"""

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


def perfbench(spec, workload, trace):
    """One run of the benchmark command, at seed 0 when traced and at seed
    pair + 1 when not; its JSON result is the last line."""
    def measure(checkout, pair):
        proc = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(0 if trace else pair + 1),
             "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))],
            cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
        return {"correct": result["correct"], "failed": result["failed"],
                **{name: m["value"] for name, m in result["metrics"].items()},
                "env": {key: env[key] for key in ENV}}
    return measure


def tier1(checkout, pair):
    """The tier-1 suite in ``checkout``, as pytest reports it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    counts = dict.fromkeys(("passed", "failed", "skipped", "errors"), 0)
    for n, kind in re.findall(r"(\d+) (passed|failed|skipped|error)", lines[-1]):
        counts["errors" if kind == "error" else kind] = int(n)
    slowest = [{"seconds": float(m[1]), "when": m[2], "test": m[3]}
               for m in map(re.compile(r"([\d.]+)s (call|setup|teardown) +(.+)").match, lines)
               if m]
    return {"exit_code": proc.returncode,
            "wall_s": float(re.search(r" in ([\d.]+)s", lines[-1])[1]),
            **counts, "slowest": slowest}


def packing(s, pool, sep):
    def measure(checkout, pair):
        proc = subprocess.run([sys.executable, "-c", PACK, str(checkout / "src"),
                               str(s), str(pool), str(sep)],
                              stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])
    return measure


def one_shot(algorithm, d, s, k, epsilon):
    def measure(checkout, pair):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "run.csv"
            cfg.write_text(f"algorithm {algorithm}\nd {d}\ns {s}\n"
                           f"epsilon {epsilon}\nk {k}\nseeds 0\noutput {out}\n")
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", ONE_SHOT, str(checkout / "src"),
                                   str(cfg)], capture_output=True, text=True, check=True)
            wall_s = time.perf_counter() - t0
            with open(out, newline="") as fh:
                queries = int(next(csv.DictReader(fh))["queries"])
        return {"wall_s": wall_s, "queries": queries,
                "scipy": proc.stdout.splitlines()[-1].split()}
    return measure


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def paired(name, measure, runs, sides):
    """``runs`` pairs of ``measure(checkout, pair)``, one run on each of the
    two ``sides`` (parent, then change, by name to checkout), the parent
    first in even pairs and the change first in odd ones. Exits at a run
    that is not ``correct`` or has failed runs, and at a pair whose runs
    read different counts."""
    results = {side: [] for side in sides}
    for pair in range(runs):
        for side in sides if pair % 2 == 0 else reversed(sides):
            run = measure(sides[side], pair)
            if not run.get("correct", True) or run.get("failed", 0):
                sys.exit(f"{name} pair {pair} {side}: correct {run['correct']}, "
                         f"{run['failed']} failed runs")
            results[side].append(run)
        parent, change = (results[side][-1] for side in sides)
        for key in COUNTS:
            if parent.get(key) != change.get(key):
                sys.exit(f"{name} pair {pair}: {key} {change.get(key)} differ "
                         f"from the parent's {parent.get(key)}")
    parent, change = results.values()
    entry = {}
    for key, value in parent[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            entry[key] = {side: summary([run[key] for run in results[side]]) for side in sides}
            entry[key]["change_lower"] = sum(c[key] < p[key] for p, c in zip(parent, change))
        else:
            entry[key] = {side: [run[key] for run in results[side]] for side in sides}
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="a checkout of the parent commit, e.g. from git archive")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if not (args.parent / "src" / "sparsebandit").is_dir():
        parser.error(f"--parent: no package sources at {args.parent / 'src' / 'sparsebandit'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs = [(f"perfbench {w['name']}{' traced' * trace}", perfbench(spec, w["name"], trace),
             1 if trace else args.runs)
            for w in spec["workloads"] for trace in (False, True)]
    jobs += [("tier-1", tier1, 2)]
    jobs += [(f"greedy packing s={s} pool={pool} sep={sep}", packing(s, pool, sep), args.runs)
             for s, pool, sep in PACKINGS]
    jobs += [(f"one-shot {alg} d={d} s={s} k={k} epsilon={eps}", one_shot(alg, d, s, k, eps),
              args.runs) for alg, d, s, k, eps in ONE_SHOTS]
    results = {}
    for name, measure, runs in jobs:
        results[name] = paired(name, measure, runs, sides)
        print(f"{name}: done", file=sys.stderr)
    args.out.write_text(json.dumps({
        "runs": args.runs, "command": spec["command"], "run_seconds": spec["run_seconds"],
        "results": results}, indent=2) + "\n")
    # the file holds every metric; the report shows BENCHMARK.json's end-to-end ones
    shown = {m["name"] for m in spec["end_to_end"]}
    for name, entry in results.items():
        for key, m in entry.items():
            if key in shown:
                p, c = m["parent"], m["change"]
                print(f"{name:<52} {key:<12} {p['median']:.4g} ({p['q1']:.4g}, {p['q3']:.4g}) "
                      f"-> {c['median']:.4g} ({c['q1']:.4g}, {c['q3']:.4g})  change lower in "
                      f"{m['change_lower']}/{len(p['runs'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
