"""Benchmark of the sparsebandit learners: time to a bound-checked result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

One run prepares the named workload from the workload seed, probes the
set-up cost in fresh processes, then repeats passes over the workload's
learner runs for about ``--seconds`` seconds (at least three passes).
Every learner run goes through the correctness gate in ``gate.py``.

With ``--trace 0`` the result carries the end-to-end metrics: ``wall_s`` is
the mean pass time (the host's CPU speed shifts in phases of a few seconds,
so the median of a handful of passes jumps between phases where the mean
moves smoothly), ``setup_s`` the median of the set-up probes. With
``--trace 1`` untraced and traced passes alternate, and the result carries
the per-layer metrics of the median traced pass together with the tracing
overhead, mean traced against mean untraced pass time; the spans of every traced pass are written to
``perfbench/out/`` when the run ends. The last line of standard output is
the JSON result; the lines before it print every metric with its unit, the
share of failed runs, the environment and any notes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import env
import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# share of the traced wall that may fall in no span but the root and cli.main
UNHOOKED_SHARE = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser, parser.parse_args(argv)


def setup_samples(workload: str, seed: int, scratch: Path) -> list:
    """Seconds from spawning a fresh process to its prepared workload."""
    samples = []
    for i in range(SETUP_PROBES):
        workdir = scratch / f"probe{i}"
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "probe_setup.py"), workload,
                 str(seed), str(workdir)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def measure(workloads, prep, seconds: float, trace: bool):
    """Alternate passes until the measured time is nearest to ``seconds``:
    stop once one more round would end further past it than now short of it."""
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        plain.append(workloads.run_pass(prep))
        if trace:
            traced.append(workloads.run_pass(prep, spans.Tracer()))
        rounds = len(plain)
        elapsed = time.perf_counter() - t_start
        enough = rounds >= (MIN_TRACED_PAIRS if trace else MIN_PASSES)
        if enough and elapsed + elapsed / rounds / 2 > seconds:
            return plain, traced


def median_pass(passes):
    """The pass whose wall time is the (lower) median."""
    ordered = sorted(passes, key=lambda p: p.wall_s)
    return ordered[(len(ordered) - 1) // 2]


def layer_result(prep, plain, traced, notes):
    chosen = median_pass(traced)
    tracer = chosen.tracer
    # Self times add up to the root span by construction (one thread, nested
    # spans); what can go wrong is coverage: a hot path no hook reaches shows
    # up as self time of the root span or of cli.main.
    own = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    wall = root.end - root.start
    unhooked = sum(own[span.id] for span in tracer.spans
                   if span.name in (spans.ROOT_SPAN, "cli.main"))
    if unhooked > UNHOOKED_SHARE * wall:
        notes.append(f"{100 * unhooked / wall:.0f}% of the traced wall is in no "
                     "hooked call but cli.main: a hot path is not hooked")
    metrics = spans.layer_metrics(tracer, prep.cli_points)
    if "trace.wall_s" in metrics:
        untraced = statistics.fmean(p.wall_s for p in plain)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(p.wall_s for p in traced) - untraced) / untraced
    if "model.queries" in metrics and metrics["model.queries"] != chosen.queries:
        notes.append(f"model.queries {metrics['model.queries']:.0f} != "
                     f"{chosen.queries} ledger entries: a query call site "
                     "is not hooked")
    notes.extend(dict.fromkeys(tracer.notes))
    return metrics


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    env.configure()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]
    record = env.record()
    if Path(record["package_path"]) != env.SRC / "sparsebandit":
        sys.exit(f"perfbench: imported {record['package_path']}, not the checkout")

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup = setup_samples(args.workload, args.seed, scratch)
        prep = workloads.prepare(workload, args.seed, scratch / "main")
        plain, traced = measure(workloads, prep, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = plain + traced
    notes, failures = [], []
    for p in passes:
        failures.extend(p.failures)
    first = passes[0]
    if any((p.queries, p.worst_ratio, p.digests)
           != (first.queries, first.worst_ratio, first.digests) for p in passes):
        failures.append(("passes", "outputs differ between identical passes"))
    attempted = sum(p.attempted for p in passes)

    if args.trace:
        metrics = layer_result(prep, plain, traced, notes)
        units = {name: spans.unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.fmean(p.wall_s for p in plain),
            "setup_s": statistics.median(setup),
            "queries": first.queries,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "setup_s": "s", "queries": "count",
                 "peak_rss_mb": "MB"}
    failed = min(len(failures), attempted)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": record, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "failures": failures[:50],
        "notes": notes, "digests": first.digests,
        "worst_error_ratio": first.worst_ratio,
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_run_s": [p.run_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "setup_samples_s": setup, "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for index, p in enumerate(traced):
                for span in p.tracer.spans:
                    fh.write(json.dumps({"pass": index, **span.as_dict()}) + "\n")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    # printed, not in the result: both vary with the instances a seed draws
    # (worst_error_ratio) or are 0 when all is well (failed_share)
    print(f"worst_error_ratio = {first.worst_ratio:.6g} ratio")
    print(f"failed_share = {failed / attempted:.6g} ({failed}/{attempted} runs)")
    print("env " + json.dumps(record, sort_keys=True))
    for note in notes:
        print(f"note: {note}")
    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
