"""Benchmark of a checkout: perfbench, tier-1, greedy packing and one-shot runs.

Usage (from the root of a checkout):

    python3 benchmarks/bench.py --label <name> --out <file.json>
                                [--src <src dir>] [--runs N]

The checkout measured is the one that holds ``--src`` (default: this
checkout's ``src``), so a checkout of another commit can be measured into the
same file. One label records:

- ``perfbench``: the command, workloads and run length of this checkout's
  ``BENCHMARK.json``, run in the measured checkout. Each workload gets
  untraced runs at seeds 1..N (default 10) and one traced run at seed 0.
  Every run's metrics, ``correct`` and failed runs are recorded, and the
  median, quartiles and best of each end-to-end metric over the untraced
  runs. The metrics are perfbench's own; this script times nothing here.
- ``tier-1``: ROADMAP.md's tier-1 command with ``--durations=5``, run in the
  measured checkout. Records pytest's wall time, its pass, fail, skip and
  error counts and the five slowest tests.
- ``greedy packing``: ``greedy_pack`` of a ``sphere_pool(s, pool, 0)`` drawn
  before the clock starts, at separations from 0.3 down to 0.0014 and pools
  of 11,755 to 10**6 points (the first two are the pools of the
  ``param-scan`` benchmark at s = 2 and 3); counts the accepted points. One
  untimed call first, then N timed ones.
- ``one-shot <algorithm>``: N runs of ``sparsebandit run`` of one grid point
  in a fresh interpreter, timed from spawning the process to its exit, so the
  imports count: param-elim at (d, s, k, epsilon) = (6, 3, 16, 0.6),
  design-elim at (40, 2, 500, 0.1) and general-features at
  (8, 2, 40, 0.05), seed 0; counts the CSV's queries and records the scipy
  subpackages the run loaded.

Greedy packing and the one-shots record the best, the median and the spread
(max - min) of their wall times. The results are stored under ``--label``
with a digest of the package sources; the other labels already in the file
are kept. The label is not recorded if a count of packing or a one-shot
differs from another label's, or if a perfbench run is not ``correct``, has a
failed run or reads other ``queries`` at some seed than another label. BLAS
runs on one thread unless the environment sets it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
# ROADMAP.md's tier-1 command, less its PYTHONPATH, which run_tier1 sets
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5")

# (workload, parameters)
WORKLOADS = (*(("greedy packing", {"s": s, "pool": pool, "sep": sep})
               for s, pool, sep in ((2, 11_755, 0.3), (3, 90_125, 0.3),
                                    (2, 10 ** 6, 0.025), (2, 200_000, 0.005),
                                    (2, 10 ** 6, 0.0014), (3, 10 ** 6, 0.06),
                                    (6, 200_000, 0.3))),
             ("one-shot param-elim", {"d": 6, "s": 3, "k": 16, "epsilon": 0.6}),
             ("one-shot design-elim", {"d": 40, "s": 2, "k": 500, "epsilon": 0.1}),
             ("one-shot general-features", {"d": 8, "s": 2, "k": 40, "epsilon": 0.05}))
# counts every label must agree on
COUNTS = ("queries", "accepted")


def packing(s, pool, sep):
    """One greedy packing of a seeded sphere pool, after an untimed one."""
    from sparsebandit.net import greedy_pack, sphere_pool

    points = sphere_pool(s, pool, 0)

    def run():
        return {"accepted": len(greedy_pack(points, sep))}
    run()
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


def one_shot(algorithm, src):
    """One ``sparsebandit run`` of ``algorithm`` at a grid point, in a fresh
    process; BLAS threads are inherited from this one."""
    def prepare(d, s, k, epsilon):
        def run():
            with tempfile.TemporaryDirectory() as tmp:
                cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "run.csv"
                cfg.write_text(f"algorithm {algorithm}\nd {d}\ns {s}\n"
                               f"epsilon {epsilon}\nk {k}\nseeds 0\noutput {out}\n")
                proc = subprocess.run([sys.executable, "-c", ONE_SHOT, str(src), str(cfg)],
                                      capture_output=True, text=True, check=True)
                with open(out, newline="") as fh:
                    queries = int(next(csv.DictReader(fh))["queries"])
            return {"queries": queries, "scipy": proc.stdout.splitlines()[-1].split()}
        return run
    return prepare


def measure(name, params, runs, src):
    prepare = packing if name == "greedy packing" else one_shot(name.split()[-1], src)
    run = prepare(*params.values())
    counts, times = None, []
    for _ in range(runs):
        t0 = time.perf_counter()
        counts = run()
        times.append(time.perf_counter() - t0)
    return {"workload": name, **params, **counts,
            "best_s": min(times), "median_s": statistics.median(times),
            "spread_s": max(times) - min(times),
            "runs_s": [round(t, 6) for t in times]}


def perfbench_run(spec, checkout, workload, seed, trace):
    """One run of the benchmark command; its JSON result is the last line."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(values, better):
    """Median, quartiles and best of one metric over the untraced runs."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "best": min(values) if better == "lower" else max(values)}


def run_perfbench(checkout, runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = []
        for seed in range(1, runs + 1):
            plain.append(perfbench_run(spec, checkout, workload, seed, 0))
            print(f"perfbench {workload} seed {seed}: wall_s "
                  f"{plain[-1]['metrics']['wall_s']:.4f}", file=sys.stderr)
        workloads[workload] = {
            "runs": plain,
            "traced": perfbench_run(spec, checkout, workload, 0, 1),
            "summary": {m["name"]: summary([r["metrics"][m["name"]] for r in plain],
                                           m["better"])
                        for m in spec["end_to_end"]},
        }
    return {"command": spec["command"], "run_seconds": spec["run_seconds"],
            "workloads": workloads}


def perfbench_faults(mine, label, labels):
    """Why a perfbench entry may not be recorded; empty when it may."""
    faults = []
    for workload, entry in mine["workloads"].items():
        for run in entry["runs"] + [entry["traced"]]:
            if not run["correct"] or run["failed"]:
                faults.append(f"perfbench {workload} seed {run['seed']} trace {run['trace']}: "
                              f"correct {run['correct']}, {run['failed']} failed runs")
        for other, theirs in labels.items():
            if other == label:
                continue
            queries = {run["seed"]: run["metrics"]["queries"]
                       for run in theirs["perfbench"]["workloads"][workload]["runs"]}
            for run in entry["runs"]:
                if run["seed"] in queries and run["metrics"]["queries"] != queries[run["seed"]]:
                    faults.append(f"perfbench {workload} seed {run['seed']}: queries "
                                  f"{run['metrics']['queries']} differ from {other}'s "
                                  f"{queries[run['seed']]}")
    return faults


def run_tier1(checkout):
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


def src_digest(src: Path) -> str:
    """sha256 over the package's Python sources, to tell checkouts apart."""
    digest = hashlib.sha256()
    for path in sorted((src / "sparsebandit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def where(result):
    """The workload's parameters, as printed."""
    keys = ("s", "pool", "sep") if "pool" in result else ("d", "s", "k", "epsilon")
    return " ".join(f"{key}={result[key]}" for key in keys)


def counts_of(result):
    return {key: result[key] for key in COUNTS if key in result}


def report(label, entry):
    for r in entry["results"]:
        counts = "  ".join(f"{key} {r[key]}" for key in COUNTS if key in r)
        scipy = f"  scipy {' '.join(r['scipy']) or '-'}" if "scipy" in r else ""
        print(f"{label:>8} {r['workload']:<25} {where(r):<28} best "
              f"{r['best_s']:.4f} s  median "
              f"{r['median_s']:.4f} s  spread {r['spread_s']:.4f} s  {counts}{scipy}")
    tier1 = entry["tier-1"]
    print(f"{label:>8} tier-1 {tier1['passed']} passed, {tier1['failed']} failed, "
          f"{tier1['skipped']} skipped, {tier1['errors']} errors in {tier1['wall_s']:.1f} s")
    for workload, bench in entry["perfbench"]["workloads"].items():
        for name, s in bench["summary"].items():
            print(f"{label:>8} perfbench {workload:<10} {name:<12} median {s['median']:.4g} "
                  f"(q1 {s['q1']:.4g}, q3 {s['q3']:.4g})  best {s['best']:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    src = args.src.resolve()
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    labels = data.setdefault("labels", {})
    # perfbench runs while this process is still small: a child's peak RSS
    # (ru_maxrss) starts at its parent's, so the pools and numpy loaded
    # below would floor perfbench's peak_rss_mb at this process's peak
    perfbench = run_perfbench(src.parent, args.runs)
    faults = perfbench_faults(perfbench, args.label, labels)
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 1
    tier1 = run_tier1(src.parent)
    sys.path.insert(0, str(src))
    import numpy as np

    results = [measure(*w, args.runs, src) for w in WORKLOADS]
    for other, entry in labels.items():
        if other == args.label:
            continue
        for mine, theirs in zip(results, entry["results"]):
            if counts_of(mine) != counts_of(theirs):
                print(f"{mine['workload']} at {where(mine)}: counts {counts_of(mine)} differ from {other}'s "
                      f"{counts_of(theirs)}", file=sys.stderr)
                return 1
    labels[args.label] = {
        "src_sha256": src_digest(src),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "cpus": os.cpu_count(),
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "runs": args.runs},
        "results": results,
        "tier-1": tier1,
        "perfbench": perfbench,
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    report(args.label, labels[args.label])
    return 0


if __name__ == "__main__":
    sys.exit(main())
