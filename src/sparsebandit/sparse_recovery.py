"""Representative-action pipeline with exact sparse minimax recovery.

The pipeline collects each subset's design-support actions into a
representative matrix, compresses it with a certified random projection,
estimates the compressed parameter by action elimination, and recovers a
sparse full-dimensional estimate by minimizing the worst-case residual
||Psi theta - targets||_inf over every support of size s. Each restricted
minimax fit is a small linear program; a least-squares lower bound per
support lets the recovery skip the LPs of supports that cannot win while
staying exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compressed_elim import run_benign_elimination
from .compression import choose_target_dim, find_certified_map
from .design import core_set_bound, frank_wolfe_designs, subset_chunks
from .design_elim import check_subset_guard
from .errors import ValidationError
from .model import BanditInstance, FeatureMatrix, QueryLedger
from .param_elim import subsets_of_size

# relative slack between a support's lower bound and the incumbent objective
# before its LP is skipped; above HiGHS's default 1e-7 feasibility tolerance
PRUNE_MARGIN = 1e-6


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
    lp_solves: int            # restricted minimax LPs solved, <= C(d, s)


@dataclass
class GeneralFeaturesResult:
    theta_hat: np.ndarray
    recovery_objective: float
    recovered_support: tuple
    phi: float                # distortion target of the certified map
    q: int                    # compressed dimension
    psi_rows: int
    map_seed: int
    lp_solves: int            # recovery LPs solved out of C(d, s)
    queries: int
    predictions: np.ndarray   # one per action, <a, theta_hat>


def collect_representatives(features: FeatureMatrix, s: int) -> RepresentativeSet:
    """z design-support rows per size-s subset, z = ceil(4s loglog(max(s,3)) + 16).

    The subsets are designed a chunk at a time (design.subset_chunks).
    Designs whose support is smaller than z are padded by repeating their
    heaviest-weight action. A subset that retains no column, zero on every
    row, has the empty design and adds no row, so the row count is
    C(d,s) * z less z per such subset.
    """
    check_subset_guard(features.d, s)
    z = core_set_bound(s)
    subsets = subsets_of_size(features.d, s)
    rows, sources = [], []
    for _, blocks in subset_chunks(features.matrix, subsets):
        for design in frank_wolfe_designs(blocks):
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


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call: only the
    general-features recovery solves LPs, so no other run loads HiGHS."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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


def _support_bounds(psi: np.ndarray, targets: np.ndarray, supports) -> np.ndarray:
    """Lower bound ||r_LS(M)||_2 / sqrt(m) on each support's minimax value.

    For any theta on M, ||psi_M theta - targets||_inf >= ||.||_2 / sqrt(m),
    and the least-squares residual r_LS(M) has the smallest 2-norm. It is
    taken as the residual of the projection onto the economic QR factor Q:
    range(Q) contains range(psi_M) even when psi_M is rank-deficient, so the
    bound never exceeds the least-squares one.
    """
    from scipy.linalg import qr

    root_m = math.sqrt(psi.shape[0])
    bounds = np.empty(len(supports))
    for i, support in enumerate(supports):
        q = qr(psi[:, list(support)], mode="economic")[0]
        bounds[i] = np.linalg.norm(targets - q @ (q.T @ targets)) / root_m
    return bounds


def sparse_linf_recover(psi, targets, s: int) -> RecoveryResult:
    """Exact sparse minimax recovery over every support of size s.

    Solves min over |M| = s and theta supported on M of
    ||psi theta - targets||_inf; ties across supports break lexicographically
    (the first support attaining the minimum wins).

    Each support M gets the certified lower bound ||r_LS(M)||_2 / sqrt(m)
    from one least-squares projection (_support_bounds). Supports are
    solved by LP in order of increasing bound (a stable sort, so equal
    bounds keep lexicographic order), and the loop stops at the first
    support whose bound exceeds best + PRUNE_MARGIN * max(1, best): its LP
    value, and that of every support after it, lies above the best
    objective, so none of them could win or tie. The winner is the solved support with the least
    (objective, lexicographic index), and its LP is the same call on the
    same inputs as in a full enumeration, so objective, theta and support
    are bit-identical to it. ``lp_solves`` counts the LPs solved.
    """
    psi = np.asarray(psi, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if psi.ndim != 2:
        raise ValidationError(f"representative matrix must be 2-d, got {psi.ndim}-d")
    if targets.shape != (psi.shape[0],):
        raise ValidationError("targets length must match the row count")
    for name, values in (("representative matrix", psi), ("targets", targets)):
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} is not finite")
    if not np.any(psi):
        raise ValidationError("representative matrix is identically zero")
    d = psi.shape[1]
    check_subset_guard(d, s)
    supports = subsets_of_size(d, s)
    bounds = _support_bounds(psi, targets, supports)
    best = None                       # (objective, support index, theta_m)
    lp_solves = 0
    for i in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[i] > best[0] + PRUNE_MARGIN * max(1.0, best[0]):
            break
        theta_m, obj = _restricted_minimax(psi[:, list(supports[i])], targets)
        lp_solves += 1
        if best is None or (obj, i) < best[:2]:
            best = (obj, i, theta_m)
    obj, i, theta_m = best
    theta = np.zeros(d)
    theta[list(supports[i])] = theta_m
    return RecoveryResult(theta=theta, objective=obj,
                          support=tuple(int(j) for j in np.nonzero(theta)[0]),
                          lp_solves=lp_solves)


def default_budget(z: int, q: int) -> int:
    """z rounds' worth of design estimates in the compressed dimension."""
    return z * core_set_bound(q)


def run_general_features(instance: BanditInstance, ledger: QueryLedger, *,
                         c_jl: float = 8.0, C_const: float = 2.0,
                         budget: int | None = None) -> GeneralFeaturesResult:
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
                              phi_val)
    if budget is None:
        budget = default_budget(reps.z, q)
    start = len(ledger)
    elim = run_benign_elimination(instance, cmap, budget, ledger,
                                  C_const=C_const, row_indices=reps.source_rows)
    psi_h = cmap.apply(reps.matrix)
    # recovery targets need uniform accuracy on every representative row;
    # only the round-0 estimate's design spans the full set (later rounds
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
        lp_solves=rec.lp_solves,
        queries=len(ledger) - start,
        # the column-major copy features[:, cols] fixes the bits of every
        # prediction; the row-major features @ theta rounds some differently
        predictions=instance.features.matrix[:, list(range(d))] @ rec.theta,
    )
