"""Representative-action pipeline with exact sparse minimax recovery.

The pipeline collects each subset's design-support actions into a
representative matrix, compresses it with a certified random projection,
estimates the compressed parameter by action elimination, and recovers a
sparse full-dimensional estimate by minimizing the worst-case residual
||Psi theta - targets||_inf over every support of size s. The support
enumeration makes the recovery exact at desk scale; each restricted minimax
fit is a small linear program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .compressed_elim import run_benign_elimination
from .compression import choose_target_dim, find_certified_map
from .design import core_set_bound, design_for_subset
from .design_elim import check_subset_guard
from .errors import ValidationError
from .model import BanditInstance, FeatureMatrix, QueryLedger, uniform_error
from .param_elim import subsets_of_size


@dataclass(frozen=True)
class RepresentativeSet:
    matrix: np.ndarray        # (at most C(d,s) * z, d); every row is a feature row
    source_rows: np.ndarray   # original action index per representative row
    z: int
    subsets: tuple


@dataclass(frozen=True)
class RecoveryResult:
    theta: np.ndarray
    objective: float
    support: tuple


@dataclass
class GeneralFeaturesResult:
    theta_hat: np.ndarray
    recovery_objective: float
    recovered_support: tuple
    phi: float                # distortion target of the certified map
    q: int                    # compressed dimension
    psi_rows: int
    map_seed: int
    queries: int
    final_error: float
    elimination: object


def collect_representatives(features: FeatureMatrix, s: int) -> RepresentativeSet:
    """z design-support rows per size-s subset, z = ceil(4s loglog(max(s,3)) + 16).

    Designs whose support is smaller than z are padded by repeating their
    heaviest-weight action. A subset that is zero on every row has the empty
    design and adds no row, so the row count is C(d,s) * z less z per such
    subset.
    """
    check_subset_guard(features.d, s)
    z = core_set_bound(s)
    subsets = subsets_of_size(features.d, s)
    rows, sources = [], []
    for subset in subsets:
        design = design_for_subset(features.matrix, subset)
        if not design.support:
            continue
        chosen = [idx for idx, _ in design.support]
        heaviest = max(design.support, key=lambda iw: iw[1])[0]
        while len(chosen) < z:
            chosen.append(heaviest)
        for idx in chosen[:z]:
            rows.append(features.matrix[idx])
            sources.append(idx)
    return RepresentativeSet(
        matrix=np.asarray(rows),
        source_rows=np.asarray(sources, dtype=np.intp),
        z=z,
        subsets=subsets,
    )


def _restricted_minimax(psi_m: np.ndarray, targets: np.ndarray):
    """Exact minimizer of max_i |(psi_m theta - targets)_i| via one LP."""
    m, s = psi_m.shape
    c = np.zeros(s + 1)
    c[-1] = 1.0
    ones = np.ones((m, 1))
    a_ub = np.block([[psi_m, -ones], [-psi_m, -ones]])
    b_ub = np.concatenate([targets, -targets])
    bounds = [(None, None)] * s + [(0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise ValidationError(f"restricted minimax fit failed: {res.message}")
    return res.x[:s], float(res.x[-1])


def sparse_linf_recover(psi, targets, s: int) -> RecoveryResult:
    """Exact sparse minimax recovery by support enumeration.

    Solves min over |M| = s and theta supported on M of
    ||psi theta - targets||_inf; ties across supports break lexicographically
    (the first support attaining the minimum wins).
    """
    psi = np.asarray(psi, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if psi.ndim != 2 or targets.shape != (psi.shape[0],):
        raise ValidationError("targets length must match the row count")
    if not np.any(psi):
        raise ValidationError("representative matrix is identically zero")
    d = psi.shape[1]
    check_subset_guard(d, s)
    best = None
    for subset in subsets_of_size(d, s):
        theta_m, obj = _restricted_minimax(psi[:, list(subset)], targets)
        if best is None or obj < best[1]:
            best = (subset, obj, theta_m)
    subset, obj, theta_m = best
    theta = np.zeros(d)
    theta[list(subset)] = theta_m
    return RecoveryResult(theta=theta, objective=obj,
                          support=tuple(int(i) for i in np.nonzero(theta)[0]))


def default_budget(z: int, q: int) -> int:
    """z rounds' worth of design estimates in the compressed dimension."""
    return z * core_set_bound(q)


def run_general_features(instance: BanditInstance, ledger: QueryLedger, *,
                         c_jl: float = 8.0, C_const: float = 2.0,
                         budget: int | None = None, map_retries: int = 32,
                         map_base_seed: int = 0) -> GeneralFeaturesResult:
    """Full pipeline: representatives, certified compression, elimination,
    sparse recovery. Map certification is harness-side (it reads the ground
    truth); the elimination and recovery stages see only the certified map."""
    d, s = instance.d, instance.s
    if d < 2:
        raise ValidationError("pipeline needs at least two feature dimensions")
    reps = collect_representatives(instance.features, s)
    phi_val = (s * math.log(d)) ** 0.25 * math.sqrt(instance.epsilon)
    q = choose_target_dim(reps.matrix.shape[0], phi_val, d, c_jl)
    cmap = find_certified_map(d, q, reps.matrix, instance.theta_star.coords,
                              phi_val, base_seed=map_base_seed,
                              max_retries=map_retries)
    if budget is None:
        budget = default_budget(reps.z, q)
    start = len(ledger)
    elim = run_benign_elimination(instance, cmap, budget, ledger,
                                  C_const=C_const, row_indices=reps.source_rows)
    psi_h = cmap.apply(reps.matrix)
    # recovery targets need uniform accuracy on every representative row;
    # only the round-1 estimate's design spans the full set (later rounds
    # fit the survivors alone)
    targets = psi_h @ elim.theta_first
    rec = sparse_linf_recover(reps.matrix, targets, s)
    return GeneralFeaturesResult(
        theta_hat=rec.theta,
        recovery_objective=rec.objective,
        recovered_support=rec.support,
        phi=phi_val,
        q=q,
        psi_rows=reps.matrix.shape[0],
        map_seed=cmap.seed,
        queries=len(ledger) - start,
        final_error=uniform_error(instance, rec.theta, range(d)),
        elimination=elim,
    )
