"""Workloads, their preparation and one timed pass over each.

Every workload is a closed loop with one caller: a pass runs its learner
runs one after another in this process, each starting when the previous
one has finished. The workload seed S picks the instance seeds S, S+1, ...;
the program receives only the generated configs and instances. Learners are
driven through their public entry points, looked up on their modules at
call time so that the traced pass can hook them: ``cli.main(["run", cfg])``
and, for the compressed stage, ``compression.find_certified_map`` and
``compressed_elim.run_benign_elimination``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from sparsebandit import cli, compressed_elim, compression, model
from sparsebandit.compressed_elim import compressed_uniform_error
from sparsebandit.compression import choose_target_dim

import gate
import spans

RECORDS = Path(__file__).resolve().parent / "records.json"


@dataclass(frozen=True)
class CliGrid:
    """Grid lists and a seed count; each point runs as its own config."""

    label: str
    algorithm: str
    d: tuple
    s: tuple
    epsilon: tuple
    k: tuple
    n_seeds: int


@dataclass(frozen=True)
class Workload:
    name: str
    grids: tuple
    compressed_seeds: int = 0   # instances of the paper's compressed stage


# the compressed stage of the acceptance suite: (d, s, k, eps)
COMPRESSED = (96, 3, 160, 0.25)

WORKLOADS = {w.name: w for w in (
    Workload("param-scan", (
        CliGrid("d6", "param-elim", (6,), (2, 3), (0.6,), (16,), 3),
    )),
    Workload("pipeline", (
        CliGrid("d40", "design-elim", (40,), (2,), (0.1,), (500,), 10),
        CliGrid("gf8", "general-features", (8,), (2,), (0.05,), (40,), 2),
        CliGrid("gf12", "general-features", (12,), (2,), (0.05,), (48,), 2),
        CliGrid("gf14", "general-features", (14,), (2,), (0.05,), (56,), 2),
    ), compressed_seeds=6),
)}


@dataclass
class CliRun:
    """One grid point, run as its own ``sparsebandit run`` config."""

    label: str
    algorithm: str
    point: tuple              # (d, s, epsilon, k, seed)
    config: Path
    output: Path
    expected_digest: str | None


@dataclass
class CompressedRun:
    """One compressed-stage instance: a certified map, then the learner on
    the noiseless and the noisy rewards."""

    label: str
    seed: int
    clean: object
    noisy: object
    p: int
    upsilon: float
    expected_digest: str | None


@dataclass
class Prepared:
    cli_runs: list
    compressed_runs: list

    @property
    def cli_points(self) -> int:
        return len(self.cli_runs)


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)   # (run label, reason)
    queries: int = 0
    worst_ratio: float = 0.0
    digests: dict = field(default_factory=dict)
    run_s: dict = field(default_factory=dict)      # learner run -> seconds
    tracer: spans.Tracer | None = None


def recorded_digests(workload: str) -> dict:
    return json.loads(RECORDS.read_text())["digests"].get(workload, {})


def config_text(algorithm: str, point: tuple, output: Path) -> str:
    d, s, epsilon, k, seed = point
    return (f"algorithm {algorithm}\nsource random-sparse\nd {d}\ns {s}\n"
            f"epsilon {epsilon}\nk {k}\nseeds {seed}\nseed_net 1\n"
            f"output {output}\n")


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Write one config per grid point and build the compressed-stage
    instances. Labels name points by their seed offset, so that they are
    the same for every workload seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    default = seed == gate.DEFAULT_SEED
    digests = recorded_digests(workload.name) if default else {}
    cli_runs = []
    for grid in workload.grids:
        for d, s, eps, k, offset in product(grid.d, grid.s, grid.epsilon, grid.k,
                                            range(grid.n_seeds)):
            label = f"{grid.label}.s{s}.{offset}"
            point = (d, s, eps, k, seed + offset)
            config = workdir / f"{label}.cfg"
            output = workdir / f"{label}.csv"
            config.write_text(config_text(grid.algorithm, point, output))
            cli_runs.append(CliRun(label, grid.algorithm, point, config, output,
                                   digests.get(label, "missing") if default else None))
    compressed_runs = []
    d, s, k, eps = COMPRESSED
    upsilon = math.log(k) ** 0.25 * math.sqrt(eps)
    for offset in range(workload.compressed_seeds):
        inst_seed = seed + offset
        clean = model.random_sparse_instance(d, s, k, eps, inst_seed,
                                             basis_probes=False)
        noisy = model.random_sparse_instance(
            d, s, k, eps, inst_seed, basis_probes=False,
            noise=model.NoiseModel(kind="gaussian", seed=inst_seed))
        compressed_runs.append(CompressedRun(
            f"compressed.{offset}", inst_seed, clean, noisy,
            choose_target_dim(k, upsilon, d), upsilon,
            digests.get(f"compressed.{offset}", "missing") if default else None))
    return Prepared(cli_runs, compressed_runs)


def _run_cli(run: CliRun, result: PassResult) -> None:
    result.attempted += 1
    run.output.unlink(missing_ok=True)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["run", str(run.config)])
    except Exception as exc:  # an uncaught error counts as a failed run
        code = repr(exc)
    if code != 0:
        result.failures.append(
            (run.label, f"exit {code}: {err.getvalue().strip()[-300:]}"))
        return
    data = run.output.read_bytes()
    result.digests[run.label] = gate.digest(data)
    reason = gate.check_cli_output(run.algorithm, run.point, data,
                                   run.expected_digest)
    if reason is not None:
        result.failures.append((run.label, reason))
    for row in gate.parse_rows(data):
        result.queries += int(row["queries"])
        result.worst_ratio = max(result.worst_ratio, gate.error_ratio(row))


def _run_compressed(run: CompressedRun, result: PassResult) -> None:
    d, s, k, eps = COMPRESSED
    result.attempted += 2
    lines = []
    try:
        cmap = compression.find_certified_map(
            d, run.p, run.clean.features.matrix, run.clean.theta_star.coords,
            run.upsilon, base_seed=run.seed)
        for noisy, inst in ((0, run.clean), (1, run.noisy)):
            ledger = model.QueryLedger()
            res = compressed_elim.run_benign_elimination(
                inst, cmap, gate.COMPRESSED_BUDGET, ledger)
            err = compressed_uniform_error(inst, cmap, res.theta_f)
            bound = gate.compressed_bound(k, eps, cmap.p if noisy else None,
                                          len(ledger))
            result.queries += len(ledger)
            result.worst_ratio = max(result.worst_ratio, err / bound)
            reason = gate.check_compressed(err, bound, len(ledger))
            if reason is not None:
                result.failures.append((f"{run.label}/{noisy}", reason))
            lines.append(f"{run.seed},{noisy},{cmap.p},{cmap.seed},"
                         f"{len(ledger)},{res.rounds},{err:.17g}\n")
    except Exception as exc:  # a failed certification or learner run
        result.failures.append((run.label, repr(exc)))
        return
    result.digests[run.label] = gate.digest("".join(lines).encode())
    if run.expected_digest not in (None, result.digests[run.label]):
        result.failures.append((run.label,
                                "output bytes differ from the recorded digest"))


def run_pass(prep: Prepared, tracer: spans.Tracer | None = None) -> PassResult:
    """Run every learner run of the workload once; trace it when asked."""
    result = PassResult(tracer=tracer)
    hooks = spans.installed(tracer) if tracer else contextlib.nullcontext()
    with hooks:
        t0 = time.perf_counter()
        root = tracer.begin(spans.ROOT_SPAN) if tracer else None
        for run in prep.cli_runs + prep.compressed_runs:
            if tracer is not None:
                tracer.run += 1
            t_run = time.perf_counter()
            if isinstance(run, CliRun):
                _run_cli(run, result)
            else:
                _run_compressed(run, result)
            result.run_s[run.label] = time.perf_counter() - t_run
        if root is not None:
            tracer.end(root)
        result.wall_s = time.perf_counter() - t0
    return result
