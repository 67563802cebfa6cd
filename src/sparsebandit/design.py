"""Near-optimal experimental designs and the design-weighted estimator.

frank_wolfe_design finds a probability distribution rho over action rows such
that the worst-case leverage g(rho) = max_a ||a||^2_{G(rho)^-1} is at most
twice the (effective) dimension, with a small support. The paired estimator
queries exactly the support actions once each and solves the weighted normal
equations; with misspecification bounded by epsilon its uniform prediction
error over all rows is at most epsilon*sqrt(2s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ConvergenceError, DimensionMismatchError, ValidationError
from .model import BanditInstance, QueryLedger, query

PIVOT_TOL = 1e-10
PRUNE_TOL = 1e-10
MAX_ITER = 10_000


def core_set_bound(s: int) -> int:
    """Support-size cap for a dimension-s design: ceil(4 s loglog(max(s,3)) + 16)."""
    return math.ceil(4 * s * math.log(math.log(max(s, 3))) + 16)


@dataclass(frozen=True)
class DesignDistribution:
    """Sparse design weights with the cached design matrix and its g-value.

    The design lives on the columns named by retained_columns: when the input
    rows are column-rank-deficient, columns with pivot below 1e-10 are
    discarded and the design matrix is the SPD Gram over the retained ones.
    """

    support: tuple              # ((row index, weight), ...) weights > 0
    design_matrix: np.ndarray   # (r, r) over retained columns
    g_value: float
    retained_columns: tuple     # ascending indices into the input columns
    g_history: tuple            # monotone non-increasing per accepted step
    iterations: int


_GEQP3, = get_lapack_funcs(("geqp3",))


def _pivoted_qr(a: np.ndarray):
    """|diag R| and the 0-based column pivots of the pivoted QR A P = Q R.

    Calls LAPACK dgeqp3 as ``scipy.linalg.qr(a, pivoting=True)`` does, with
    the workspace its own ``lwork=-1`` query returns, so the bits are the
    same; it skips the wrapper's finite check and the Q that would be
    formed and thrown away. A workspace of another size can select another
    blocking and change bits, so the query runs on every call.
    """
    if a.size == 0:
        return np.empty(0), np.arange(a.shape[1], dtype=np.int32)
    lwork = int(_GEQP3(a, lwork=-1)[3][0])
    qr_a, piv = _GEQP3(a, lwork=lwork)[:2]
    return np.abs(np.diagonal(qr_a)), piv - 1


def _retained_columns(rows: np.ndarray) -> np.ndarray:
    """Columns to keep so the reduced matrix has full column rank."""
    diag, piv = _pivoted_qr(rows)
    keep = piv[: int(np.sum(diag > PIVOT_TOL))]
    return np.sort(keep)


def _start_rows(red: np.ndarray) -> np.ndarray:
    """Pivot rows with non-negligible residual, at most min(2r, k) of them;
    they span the reduced columns, so the uniform start has a finite g."""
    k, r = red.shape
    diag, row_piv = _pivoted_qr(red.T)
    scale = max(diag[0], 1.0) if diag.size else 1.0
    n_pivots = int(np.sum(diag > 1e-12 * scale))
    init = row_piv[: min(2 * r, k)]
    if n_pivots < len(init):
        init = init[: max(n_pivots, 1)]
    return init


def _leverages(rows_red: np.ndarray, g_mat: np.ndarray) -> np.ndarray:
    sol = np.linalg.solve(g_mat, rows_red.T)
    return np.einsum("ij,ji->i", rows_red, sol)


def frank_wolfe_design(rows) -> DesignDistribution:
    """Iterate Frank-Wolfe steps until g(rho) <= 2 * dim.

    dim is the number of retained columns. Starts uniform on a
    pivot-selected row subset of size at most min(2*dim, k); every step
    moves mass toward the worst-leverage row with the closed-form step size,
    halved as needed so the objective never increases. Weights below 1e-10
    are pruned at the end. Raises ConvergenceError when MAX_ITER steps do
    not reach the target.
    """
    rows = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise DimensionMismatchError("rows must be a non-empty 2-d array")
    if not np.isfinite(rows).all():
        raise ValidationError("rows must be finite")
    k = rows.shape[0]

    retained = _retained_columns(rows)
    if retained.size == 0:
        raise ValidationError("rows are numerically zero: no columns retained")
    red = rows[:, retained]
    r = red.shape[1]
    target = 2.0 * r

    init = _start_rows(red)
    w = np.zeros(k)
    w[init] = 1.0 / len(init)

    def gram(weights):
        return red.T @ (red * weights[:, None])

    g_mat = gram(w)
    lev = _leverages(red, g_mat)
    g = float(lev.max())
    history = [g]
    iterations = 0

    while True:
        if g <= target:
            pruned = w.copy()
            pruned[pruned < PRUNE_TOL] = 0.0
            pruned /= pruned.sum()
            if np.array_equal(pruned, w):
                break                 # g_mat, lev and g already describe w
            g_mat2 = gram(pruned)
            lev2 = _leverages(red, g_mat2)
            g2 = float(lev2.max())
            if g2 <= max(target, g):
                # history records accepted descent steps only; the final
                # prune may move g by O(prune mass) within the target
                w, g_mat, lev, g = pruned, g_mat2, lev2, g2
                break
            # pruning pushed g past the target (rare); keep iterating
        if iterations == MAX_ITER:
            raise ConvergenceError(
                f"iteration cap {MAX_ITER} reached; achieved g_value {g:.12g} "
                f"(target {target:.12g})")
        j = int(np.argmax(lev))
        lam = (g - r) / (r * (g - 1.0)) if g > 1.0 else 0.5
        accepted = False
        while lam >= 1e-14:
            w2 = w * (1.0 - lam)
            w2[j] += lam
            g_mat2 = gram(w2)
            lev2 = _leverages(red, g_mat2)
            g2 = float(lev2.max())
            if g2 <= g:
                w, g_mat, lev, g = w2, g_mat2, lev2, g2
                accepted = True
                break
            lam *= 0.5
        iterations += 1
        if not accepted:
            raise ConvergenceError(
                f"no descent step found at g = {g:.12g} (target {target:.12g})")
        history.append(g)

    support = tuple((int(i), float(w[i])) for i in np.nonzero(w)[0])
    if len(support) > core_set_bound(rows.shape[1]):
        raise ConvergenceError(
            f"support size {len(support)} exceeds the core-set bound "
            f"{core_set_bound(rows.shape[1])}")
    return DesignDistribution(
        support=support,
        design_matrix=g_mat,
        g_value=g,
        retained_columns=tuple(int(c) for c in retained),
        g_history=tuple(history),
        iterations=iterations,
    )


def g_value(rows, design: DesignDistribution) -> float:
    """Exact max over all rows of the quadratic form in the inverse design."""
    rows = np.asarray(rows, dtype=np.float64)
    red = rows[:, list(design.retained_columns)]
    try:
        return float(_leverages(red, design.design_matrix).max())
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"design matrix is singular: {exc}") from None


def weighted_estimate(design: DesignDistribution, rows, rewards) -> np.ndarray:
    """Solve G(rho) theta = sum_a rho(a) r_a a over the retained columns.

    rows holds one feature row per design-support action, in support order,
    over every column the design was built on; rewards holds the observed
    reward of each. The solution is embedded back with zeros on the
    discarded columns.
    """
    cols = design.retained_columns
    rhs = np.zeros(len(cols))
    for (_, weight), reward, row in zip(design.support, rewards,
                                        rows.take(cols, axis=1)):
        rhs += weight * reward * row
    theta = np.zeros(rows.shape[1])
    theta.put(cols, np.linalg.solve(design.design_matrix, rhs))
    return theta


def estimate_parameter(instance: BanditInstance, index_set, design: DesignDistribution,
                       ledger: QueryLedger) -> np.ndarray:
    """Design-weighted estimate of theta restricted to index_set.

    Queries exactly the design's support actions, once each in support
    order, and returns their weighted_estimate over the restricted feature
    block.
    """
    idx = np.asarray(sorted(int(i) for i in index_set), dtype=np.intp)
    if idx.size == 0:
        raise ValidationError("index set is empty")
    if idx.min() < 0 or idx.max() >= instance.d:
        raise DimensionMismatchError("index set outside feature dimensions")
    support_rows = [row_idx for row_idx, _ in design.support]
    rewards = [query(instance, row_idx, ledger) for row_idx in support_rows]
    block = instance.features.matrix.take(support_rows, axis=0).take(idx, axis=1)
    return weighted_estimate(design, block, rewards)


def design_for_subset(features_matrix: np.ndarray, index_set) -> DesignDistribution:
    """Frank-Wolfe design over the column restriction of the feature matrix.

    A restriction that is numerically zero on every row (no column norm
    above PIVOT_TOL, so no pivot would be retained) gets the empty design:
    no support and no retained column, so its estimate is 0 and costs no
    query.
    """
    idx = np.asarray(sorted(int(i) for i in index_set), dtype=np.intp)
    block = features_matrix[:, idx]
    if np.linalg.norm(block, axis=0).max(initial=0.0) <= PIVOT_TOL:
        return DesignDistribution(support=(), design_matrix=np.zeros((0, 0)),
                                  g_value=0.0, retained_columns=(),
                                  g_history=(), iterations=0)
    return frank_wolfe_design(block)
