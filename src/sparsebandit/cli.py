"""Configuration-driven experiment runner.

Config grammar: plain text, one `key value` pair per line, `#` starts a
comment. List-valued keys take comma-separated entries without spaces, and
every real must be finite.

    algorithm    param-elim | design-elim | benign-elim | general-features |
                 random-baseline   (comma list allowed with the sweep command)
    source       random-sparse | explicit-file | hard-instance
    instance_file  path            (explicit-file source)
    d            grid list of feature dimensions, each >= 1
    s            grid list of sparsities, each >= 1
    epsilon      grid list; misspecification bound, at most 2 for
                 random-sparse, or the orthogonality level when source =
                 hard-instance
    k            grid list of action counts, each >= 0 (hard-instance: 0 =
                 threshold)
    delta        grid list of reward gaps (hard-instance embedding and the
                 random-baseline target)
    seeds        list of seeds, each >= 0
    c_const      threshold constant for benign elimination (default 2.0)
    c_jl         compression dimension constant (default 8.0)
    c            hard-instance regime constant (default 2.0)
    tau          hard-instance slack (default 0.1)
    hard_delta   hard-instance failure budget (default 0.25)
    budget       query budget for benign elimination, >= 1 (default 50*k)
    kappa        bound constant for the compressed algorithms (default 10.0,
                 uncalibrated: a looser check than the acceptance suite's)
    pool_size    net pool override for param-elim, >= 1 (default: library
                 default)
    seed_net     1 to plant the true restriction in the net when it is a
                 unit vector (default 1)
    measure_time 1 to record real wall-clock times in the CSV; the default 0
                 keeps output byte-reproducible
    output       CSV path (default experiment.csv)
    log_output   optional CSV path for detail rows: one per learner event
                 (kind elimination or round), then one summary per run

An instance file (`validate`, source explicit-file) is read the same way: a
non-finite real in its header or rows, or k, d or s below 1, is an invariant
failure that names the line.

CSV columns, fixed order: algorithm, d, s, epsilon, k, seed, queries,
uniform_error, suboptimality, bound, bound_satisfied, wall_ms. Exit codes:
0 success, 1 config error or a path that cannot be opened, 2 guard
violation, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .compressed_elim import run_benign_elimination
from .compression import build_map
from .design_elim import check_subset_guard, run_design_elimination
from .errors import (
    ConfigError,
    GuardExceededError,
    OverflowGuardError,
    RetriesExhaustedError,
    SparseBanditError,
)
from .hardness import (
    PAIRWISE_TOL,
    HardMatrixSpec,
    embed_index_query,
    generate_validated,
    pairwise_level,
    random_search,
)
from .model import (
    NORM_TOL,
    QueryLedger,
    _fmt,
    at_least,
    comma_list,
    finite_real,
    flag,
    load_instance,
    one_of,
    positive_real,
    random_sparse_instance,
    read_key_values,
    read_lines,
    save_instance,
    text,
    uniform_error,
)
from .net import build_separated_net, include_point
from .param_elim import check_triple_guard, guard_net_cap, run_parameter_elimination
from .sparse_recovery import run_general_features

CSV_COLUMNS = ("algorithm", "d", "s", "epsilon", "k", "seed", "queries",
               "uniform_error", "suboptimality", "bound", "bound_satisfied",
               "wall_ms")


@dataclass
class ExperimentConfig:
    algorithms: list
    source: str = "random-sparse"
    instance_file: str | None = None
    d: list = field(default_factory=lambda: [4])
    s: list = field(default_factory=lambda: [1])
    epsilon: list = field(default_factory=lambda: [0.1])
    k: list = field(default_factory=lambda: [16])
    delta: list = field(default_factory=lambda: [0.5])
    seeds: list = field(default_factory=lambda: [0])
    c_const: float = 2.0
    c_jl: float = 8.0
    c: float = 2.0
    tau: float = 0.1
    hard_delta: float = 0.25
    budget: int | None = None
    # uncalibrated and looser than the acceptance suite's own frozen constants
    # (KAPPA_COMPRESSED 2.0, KAPPA_PIPELINE 0.5 in tests/test_acceptance.py)
    kappa: float = 10.0
    pool_size: int | None = None
    seed_net: bool = True
    measure_time: bool = False
    output: str = "experiment.csv"
    log_output: str | None = None


@dataclass
class RunRecord:
    algorithm: str
    d: int
    s: int
    epsilon: float
    k: int
    seed: int
    queries: int
    uniform_error: float
    suboptimality: float
    bound: float
    bound_satisfied: bool
    wall_ms: int

    def row(self):
        return [_fmt(getattr(self, col)) for col in CSV_COLUMNS]


def parse_config(path) -> ExperimentConfig:
    """Parse the flat key/value grammar; errors carry 1-based line numbers."""
    def error(message, line_no):
        return ConfigError(f"{path}:{line_no}: {message}")

    stripped = ((line_no, raw.strip())
                for line_no, raw in enumerate(read_lines(path, error), start=1))
    values, lines = read_key_values(
        ((line_no, line) for line_no, line in stripped
         if line and not line.startswith("#")), CONFIG_KEYS, error)
    if "algorithm" not in values:
        raise ConfigError(f"{path}: missing required key 'algorithm'")
    cfg = ExperimentConfig(algorithms=values.pop("algorithm"), **values)
    if cfg.source == "explicit-file" and not cfg.instance_file:
        raise ConfigError(
            f"{path}:{lines['source']}: source explicit-file needs 'instance_file'")
    # random_sparse_instance puts the 2d signed basis rows first
    if cfg.source == "random-sparse" and min(cfg.k) < 2 * max(cfg.d):
        key = max(("d", "k"), key=lambda name: lines.get(name, 0))
        raise ConfigError(
            f"{path}:{lines[key]}: bad value for {key!r}: random-sparse needs "
            f"k >= 2d, got k {min(cfg.k)} with d {max(cfg.d)}")
    # its rows and theta* are unit vectors, so <x, theta*> lies in [-1, 1]
    # and a larger bound allows any reward; the net needs eps/2 <= 1 too
    if cfg.source == "random-sparse" and max(cfg.epsilon) > 2.0:
        raise ConfigError(
            f"{path}:{lines['epsilon']}: bad value for 'epsilon': random-sparse "
            f"needs epsilon <= 2, got {max(cfg.epsilon)}")
    # refused here, not when the CSV is written after every run
    for key in ("output", "log_output"):
        folder = os.path.dirname(values.get(key, "")) or "."
        if not os.path.isdir(folder):
            raise error(f"bad value for {key!r}: no directory {folder!r}", lines[key])
    return cfg


def _grid(cfg: ExperimentConfig, instance=None):
    """Deterministic grid enumeration order: d, s, epsilon, k, delta, seed.
    An explicit instance fixes d, s, epsilon and k, so only delta and the
    seeds vary."""
    dims = ((cfg.d, cfg.s, cfg.epsilon, cfg.k) if instance is None else
            ([instance.d], [instance.s], [instance.epsilon], [instance.k]))
    return itertools.product(*dims, cfg.delta, cfg.seeds)


def _hard_instance(cfg, d, s, eps, k, delta, seed):
    """Validated hard matrix with the hidden index embedded at row 0; returns
    (instance, attempts, rejection reports)."""
    spec = HardMatrixSpec(d=d, s=s, epsilon=eps, tau=cfg.tau,
                          delta=cfg.hard_delta, seed=seed,
                          k=k if k > 0 else None, c=cfg.c)
    features, attempts, reports = generate_validated(spec)
    instance = embed_index_query(features, 0, delta, epsilon=2.0 * delta * eps)
    return instance, attempts, reports


def _build_point_instance(cfg, d, s, eps, k, delta, seed):
    if cfg.source == "hard-instance":
        return _hard_instance(cfg, d, s, eps, k, delta, seed)[0]
    return random_sparse_instance(d, s, k, eps, seed)


def _net_for(cfg, instance, seed):
    """The param-elim net, with the true restriction planted when seed_net is
    set and it is a unit vector. Packing stops at guard_net_cap points, past
    which the triple guard refuses the net anyway."""
    net = build_separated_net(instance.s, instance.epsilon, seed,
                              pool_size=cfg.pool_size,
                              max_points=guard_net_cap(instance.d, instance.s))
    if cfg.seed_net:
        restriction = instance.theta_star.coords[list(instance.theta_star.support)]
        if abs(np.linalg.norm(restriction) - 1.0) <= NORM_TOL:
            net = include_point(net, restriction)
    return net


def check_guards(cfg: ExperimentConfig):
    """Build every algorithm x grid point once and evaluate its guard.

    Returns (prepared, violations): (algorithm, point, instance, net) in run
    order (net only for param-elim), and (algorithm, point, message). No
    query is issued here; the prepared grid stays in memory for the run. An
    explicit instance file is loaded and validated once and shared by every
    point, each of which carries the instance's d, s, epsilon and k; no
    learner modifies its instance.
    """
    prepared, violations = [], []
    shared = load_instance(cfg.instance_file) if cfg.source == "explicit-file" else None
    for alg in cfg.algorithms:
        for point in _grid(cfg, shared):
            net = None
            try:
                instance = (shared if shared is not None
                            else _build_point_instance(cfg, *point))
                if alg == "param-elim":
                    net = _net_for(cfg, instance, point[-1])
                    check_triple_guard(instance.d, net)
                elif alg in ("design-elim", "general-features"):
                    check_subset_guard(instance.d, instance.s)
            except (GuardExceededError, OverflowGuardError) as exc:
                violations.append((alg, point, str(exc)))
                continue
            prepared.append((alg, point, instance, net))
    return prepared, violations


def _payload(fields):
    return ";".join(f"{key}={_fmt(value)}" for key, value in fields.items())


def _details(log, summary):
    """Detail rows (kind, step, payload): one per event of the learner's log,
    then the run's summary at step len(log)."""
    rows = [(e.kind, e.step, _payload(e.fields)) for e in log]
    rows.append(("summary", len(log), _payload(summary)))
    return rows


# Runner table: each entry runs one algorithm on a prepared point and returns
# (predictions, pool, bound, event log, summary). The chosen action is the
# best-predicted one in pool (None: every action), or pool's one action when
# predictions is None; summary maps the uniform error to the summary fields.
# Learners are looked up as module globals at call time, so wrappers set on
# this module see them.

def _run_param_elim(cfg, point, instance, net, ledger):
    res = run_parameter_elimination(instance, ledger, net=net)
    return res.predictions, None, 4.0 * instance.epsilon, res.log, lambda err: {
        "triples_initial": res.initial_triples,
        "triples_remaining": res.remaining_triples,
        "queries": res.queries, "final_error": err}


def _run_design_elim(cfg, point, instance, net, ledger):
    res = run_design_elimination(instance, ledger)
    bound = 3.0 * instance.epsilon * (1.0 + math.sqrt(2.0 * instance.s))
    return res.predictions, None, bound, res.log, lambda err: {
        "queries": res.queries, "phase1_queries": res.phase1_queries,
        "final_error": err}


def _run_benign_elim(cfg, point, instance, net, ledger):
    cmap = build_map(instance.d, instance.d, 0)
    budget = cfg.budget if cfg.budget is not None else 50 * instance.k
    res = run_benign_elimination(instance, cmap, budget, ledger,
                                 C_const=cfg.c_const)
    preds = cmap.apply(instance.features.matrix) @ res.theta_f
    bound = cfg.kappa * (math.log(instance.k) ** 0.25
                         * math.sqrt(instance.epsilon) + instance.epsilon)
    return preds, res.surviving, bound, res.log, lambda err: {
        "queries": res.queries, "surviving": len(res.surviving),
        "soundness_ok": res.soundness_ok, "final_error": err}


def _run_general_features(cfg, point, instance, net, ledger):
    res = run_general_features(instance, ledger, c_jl=cfg.c_jl,
                               C_const=cfg.c_const, budget=cfg.budget)
    bound = cfg.kappa * ((instance.s * math.log(instance.d)) ** 0.25
                         * math.sqrt(instance.s * instance.epsilon)
                         + instance.epsilon)
    return res.predictions, None, bound, [], lambda err: {
        "phi": res.phi, "q": res.q, "psi_rows": res.psi_rows,
        "recovery_objective": res.recovery_objective,
        "support": "|".join(str(i) for i in res.recovered_support),
        "error": err, "bound": bound,
        "queries": res.queries, "map_seed": res.map_seed}


def _run_random_baseline(cfg, point, instance, net, ledger):
    _, chosen = random_search(instance, point[-1], ledger)
    return None, [chosen], point[4], [], None   # bound: the reward gap delta


RUNNERS = {
    "param-elim": _run_param_elim,
    "design-elim": _run_design_elim,
    "benign-elim": _run_benign_elim,
    "general-features": _run_general_features,
    "random-baseline": _run_random_baseline,
}
ALGORITHMS = tuple(RUNNERS)

# The config grammar: each key's value reader (see model.read_key_values).
CONFIG_KEYS = {
    "algorithm": comma_list(one_of(*ALGORITHMS)),
    "source": one_of("random-sparse", "explicit-file", "hard-instance"),
    "instance_file": text, "output": text, "log_output": text,
    "d": comma_list(at_least(1)), "s": comma_list(at_least(1)),
    "epsilon": comma_list(positive_real), "k": comma_list(at_least(0)),
    "delta": comma_list(positive_real), "seeds": comma_list(at_least(0)),
    "c_const": positive_real, "c_jl": positive_real, "c": finite_real,
    "tau": finite_real, "hard_delta": finite_real, "budget": at_least(1),
    "kappa": positive_real, "pool_size": at_least(1), "seed_net": flag, "measure_time": flag}


def run_experiment(cfg: ExperimentConfig):
    """Prepare every grid point for every algorithm, then run them in order;
    a guard violation anywhere refuses the grid before any query."""
    prepared, violations = check_guards(cfg)
    if violations:
        lines = [f"{alg} {point}: {msg}" for alg, point, msg in violations]
        raise GuardExceededError("guard violations:\n" + "\n".join(lines))
    records, details = [], []
    for alg, point, instance, net in prepared:
        seed = point[-1]
        ledger = QueryLedger()
        t0 = time.perf_counter()
        preds, pool, bound, log, summary = RUNNERS[alg](cfg, point, instance,
                                                        net, ledger)
        wall_ms = int(round((time.perf_counter() - t0) * 1000)) if cfg.measure_time else 0
        if preds is None:   # no estimate: the bound is on pool's one action
            err, chosen = float("nan"), int(pool[0])
        else:
            err = uniform_error(instance, preds)
            chosen = int(np.argmax(preds) if pool is None else pool[np.argmax(preds[pool])])
        subopt = float(np.max(instance.rewards)) - float(instance.rewards[chosen])
        satisfied = subopt <= bound if preds is None else err <= bound
        records.append(RunRecord(
            algorithm=alg, d=instance.d, s=instance.s, epsilon=instance.epsilon,
            k=instance.k, seed=seed, queries=len(ledger), uniform_error=err,
            suboptimality=subopt, bound=bound, bound_satisfied=bool(satisfied),
            wall_ms=wall_ms))
        if cfg.log_output and summary is not None:
            prefix = [alg, instance.d, instance.s, _fmt(instance.epsilon),
                      instance.k, seed]
            details.extend(prefix + list(row) for row in _details(log, summary(err)))
    if cfg.log_output:
        _write_rows(cfg.log_output, DETAIL_COLUMNS, details)
    return records


DETAIL_COLUMNS = ("algorithm", "d", "s", "epsilon", "k", "seed", "kind",
                  "step", "payload")


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(records, path):
    _write_rows(path, CSV_COLUMNS, (record.row() for record in records))


def validate_instance_file(path):
    """Re-check every model invariant of a serialized instance.

    Returns (ok, messages). Loading raises on any model invariant, so the
    reward table and the misspecification bound hold once it returns.
    Hard-instance files (orthogonality header) also re-run the exhaustive
    pairwise scan at the recorded level.
    """
    instance = load_instance(path)
    messages = [f"parsed: k={instance.k} d={instance.d} s={instance.s} "
                f"epsilon={instance.epsilon:.6g}",
                "reward table consistent",
                "misspecification within epsilon"]
    if instance.orthogonality is not None:
        level = pairwise_level(instance.features.matrix)
        if level > instance.orthogonality + PAIRWISE_TOL:
            return False, messages + [
                f"pairwise level {level:.6g} exceeds recorded "
                f"{instance.orthogonality:.6g}"]
        messages.append(f"pairwise scan ok at level {level:.6g}")
    return True, messages


def generate_hard_file(cfg: ExperimentConfig, out_path):
    """Generate the grid's first point as a hard instance and save it, with
    one rejection report per attempt beside it. When no attempt validates,
    the reports are written and the error is raised again."""
    try:
        instance, attempts, reports = _hard_instance(cfg, *next(_grid(cfg)))
    except RetriesExhaustedError as exc:
        _write_rejections(out_path, exc.reports)
        raise
    save_instance(instance, out_path)
    _write_rejections(out_path, reports)
    return instance, attempts


def _write_rejections(out_path, reports):
    _write_rows(f"{out_path}.rejections.csv",
                ("seed", "norm_failures", "sparsity_failures",
                 "pairwise_failures", "accepted"),
                ((r.seed, r.norm_failures, r.sparsity_failures,
                  r.pairwise_failures, _fmt(r.accepted)) for r in reports))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsebandit",
        description="misspecified sparse linear bandit harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one algorithm over a config grid")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="run a comma list of algorithms")
    p_sweep.add_argument("config")
    p_val = sub.add_parser("validate", help="re-check an instance file")
    p_val.add_argument("instance_file")
    p_gen = sub.add_parser("generate-hard", help="generate an embedded hard instance")
    p_gen.add_argument("config")
    p_gen.add_argument("out")
    args = parser.parse_args(argv)

    try:
        if args.command in ("run", "sweep"):
            cfg = parse_config(args.config)
            if args.command == "run" and len(cfg.algorithms) != 1:
                raise ConfigError("run expects exactly one algorithm; use sweep")
            records = run_experiment(cfg)
            write_csv(records, cfg.output)
            print(f"wrote {len(records)} records to {cfg.output}")
            return 0
        if args.command == "validate":
            ok, messages = validate_instance_file(args.instance_file)
            for message in messages:
                print(message)
            print("OK" if ok else "INVARIANT FAILURE")
            return 0 if ok else 3
        if args.command == "generate-hard":
            cfg = parse_config(args.config)
            instance, attempts = generate_hard_file(cfg, args.out)
            print(f"validated matrix after {attempts} attempt(s); "
                  f"k={instance.k} epsilon={instance.epsilon:.6g} -> {args.out}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except (GuardExceededError, OverflowGuardError) as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 2
    except SparseBanditError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
