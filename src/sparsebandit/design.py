"""Near-optimal experimental designs and the design-weighted estimator.

frank_wolfe_design finds a probability distribution rho over action rows such
that the worst-case leverage g(rho) = max_a ||a||^2_{G(rho)^-1} is at most
twice the (effective) dimension, with a small support. The paired estimator
queries exactly the support actions once each and solves the weighted normal
equations; with misspecification bounded by epsilon its uniform prediction
error over all rows is at most epsilon*sqrt(2s).

Both run on stacks of same-shape blocks, so that numpy's per-call cost is
paid once per stack rather than once per block: frank_wolfe_designs iterates
the blocks of one retained rank in lockstep, and weighted_estimate solves
the systems of one rank in one call. Every design and estimate is bitwise
the one its block gets alone; frank_wolfe_design is the stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, ValidationError
from .model import BanditInstance, QueryLedger, query

PIVOT_TOL = 1e-10
PRUNE_TOL = 1e-10
MAX_ITER = 10_000
# size-s subsets per stacked design call: enough blocks to spread numpy's
# per-call cost, few enough that a chunk's arrays (about 0.4 MB at k = 500,
# s = 2) stay below the other transients of a design-elimination run
SUBSET_CHUNK = 16


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


# block shape -> (dgeqp3, its own workspace answer for that shape)
_GEQP3: dict = {}


def _pivoted_qr(a: np.ndarray):
    """|diag R| and the 0-based column pivots of the pivoted QR A P = Q R.

    Calls LAPACK dgeqp3 as ``scipy.linalg.qr(a, pivoting=True)`` does, with
    the workspace its own ``lwork=-1`` query returns, so the bits are the
    same; it skips the wrapper's finite check and the Q that would be
    formed and thrown away. A workspace of another size can select another
    blocking and change bits; dgeqp3's answer depends only on the shape of
    A, so the query runs once per shape. scipy.linalg is imported there
    too, so a run that computes no design never loads it.
    """
    if a.size == 0:
        return np.empty(0), np.arange(a.shape[1], dtype=np.int32)
    call = _GEQP3.get(a.shape)
    if call is None:
        from scipy.linalg import get_lapack_funcs

        geqp3, = get_lapack_funcs(("geqp3",))
        call = _GEQP3[a.shape] = (geqp3, int(geqp3(a, lwork=-1)[3][0]))
    geqp3, lwork = call
    qr_a, piv = geqp3(a, lwork=lwork)[:2]
    return abs(qr_a.diagonal()), piv - 1


def _retained_columns(rows: np.ndarray) -> np.ndarray:
    """Columns to keep so the reduced matrix has full column rank."""
    diag, piv = _pivoted_qr(rows)
    keep = piv[: np.count_nonzero(diag > PIVOT_TOL)]
    keep.sort()
    return keep


# backward-error constant of Householder QR, per reflector and row (see
# _keeps_every_column)
QR_BACKWARD_C = 64


def _keeps_every_column(blocks: np.ndarray) -> np.ndarray:
    """Which blocks A (k, c) of a stack provably keep every column under
    _retained_columns, decided from their Gram matrices with no LAPACK call.

    _retained_columns keeps all c columns exactly when k >= c and every
    computed |r_ii| of the pivoted QR exceeds PIVOT_TOL; then it returns
    0..c-1, which is what a cleared block gets instead.

    QR side. Householder QR, blocked or not and under any column pivoting
    P, is backward stable: the computed R is the exact R factor of
    (A + dA) P with ||dA||_F <= c0 k c u ||A||_F (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 19.4 and section 19.5;
    u = 2^-53, and c0 is a small integer the analyses leave unnamed, taken
    as QR_BACKWARD_C). A triangular R has its diagonal as eigenvalues, so
    every |r_ii| >= sigma_min(R) = sigma_min(A + dA) >= sigma_min(A) -
    ||dA||_2. Every column is kept if sigma_min(A) > PIVOT_TOL + rho F,
    with rho = c0 k c u and F >= ||A||_F.

    Gram side. The Gram G = A^T A is formed in one matmul over the stack;
    any summation order gives |G^ - G| <= gamma_k |A|^T |A| elementwise,
    gamma_k = k u / (1 - k u), and |A|^T |A| <= n n^T by Cauchy-Schwarz,
    with n_j = ||a_j||. Gershgorin on the exact G bounds sigma_min(A)^2 =
    lambda_min(G) below by min_i (2 G_ii - sum_j |G_ij|). Replacing G by
    G^ moves row i's value by at most 3 gamma_k n_i N, N = sum_j n_j;
    evaluating it (a c-term sum, a doubling, a difference) moves it by at
    most gamma_(c+2) (2 G^_ii + sum_j |G^_ij|) <= 3 gamma_(c+2) (1 +
    gamma_k) n_i N. So lambda_min(G) >= min_i (2 G^_ii - sum_j |G^_ij| -
    mu n_i N) with mu = 8 (k + c + 2) u: while k u < 1e-3, that covers
    3 gamma_k + 3 gamma_(c+2) (1 + gamma_k), the ratio of n_i to the
    computed sqrt(G^_ii) and the few last roundings, each of at most u
    times a value below 2 n_i N. F = (1 + mu) sqrt(sum_i G^_ii) bounds
    ||A||_F the same way.

    A block is cleared when that bound exceeds (PIVOT_TOL + rho F)^2. A
    block with k < c has a singular G, so its bound is at most 0 and it is
    never cleared. A block that fails the test is not rank-deficient, only
    uncertified: it keeps its _retained_columns call.
    """
    _, k, c = blocks.shape
    u = np.finfo(np.float64).eps / 2
    mu = 8 * (k + c + 2) * u
    gram = np.matmul(blocks.transpose(0, 2, 1), blocks)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    norms = np.sqrt(diag)
    gersh = 2.0 * diag - np.abs(gram).sum(axis=2)
    lower = (gersh - mu * norms * norms.sum(axis=1, keepdims=True)).min(axis=1)
    frob = (1.0 + mu) * np.sqrt(diag.sum(axis=1))
    return lower > (PIVOT_TOL + QR_BACKWARD_C * k * c * u * frob) ** 2


def _start_rows(red: np.ndarray) -> np.ndarray:
    """Pivot rows with non-negligible residual, at least one; the QR of the
    r x k transpose has min(r, k) pivots, so there are at most that many.
    They span the reduced columns, so the uniform start has a finite g."""
    diag, row_piv = _pivoted_qr(red.T)
    scale = max(diag[0], 1.0) if diag.size else 1.0
    n_pivots = np.count_nonzero(diag > 1e-12 * scale)
    return row_piv[: max(n_pivots, 1)]


def _gram(red_t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Design matrices sum_a w_a a a^T of a stack of transposed blocks
    (n, r, k) under weights (n, k)."""
    return np.matmul(red_t, red_t.transpose(0, 2, 1) * weights[:, :, None])


def _leverages(rows_red: np.ndarray, g_mat: np.ndarray) -> np.ndarray:
    """||a||^2 in the inverse design for every row, over any stack axes."""
    sol = np.linalg.solve(g_mat, np.swapaxes(rows_red, -1, -2))
    return np.einsum("...ij,...ji->...i", rows_red, sol)


def _lockstep(red_t: np.ndarray):
    """Frank-Wolfe on a C-ordered stack (n, r, k) of transposed
    full-column-rank blocks.

    Every block runs the single-block iteration; the blocks still short of
    their target step together, so each stacked call does the work of one
    per-block call for all of them. The blocks are the column-major (k, r)
    views of red_t, the layout a column selection ``rows[:, cols]`` has,
    so every BLAS call sees the operands it would see for one block.
    Returns the weights (n, k), the design matrices (n, r, r), the g-values
    (n,), the g histories and the iteration counts.
    """
    n, r, k = red_t.shape
    red = red_t.transpose(0, 2, 1)
    target = 2.0 * r
    w = np.zeros((n, k))
    for i, block in enumerate(red):
        init = _start_rows(block)
        w[i, init] = 1.0 / len(init)
    g_mat = _gram(red_t, w)
    lev = _leverages(red, g_mat)
    g = lev.max(axis=1)
    history = [[x] for x in g.tolist()]
    iterations = np.zeros(n, dtype=int)

    def accept(idx, sel, w2, g_mat2, lev2, g2):
        w[idx[sel]] = w2[sel]
        g_mat[idx[sel]] = g_mat2[sel]
        lev[idx[sel]] = lev2[sel]
        g[idx[sel]] = g2[sel]

    live = np.arange(n)
    step = 0
    while True:
        reached = g[live] <= target
        if reached.any():
            at = live[reached]
            pruned = w[at]
            pruned[pruned < PRUNE_TOL] = 0.0
            pruned /= pruned.sum(axis=1, keepdims=True)
            # an unmoved block's g_mat, lev and g already describe its weights
            done = (pruned == w[at]).all(axis=1)
            moved = ~done
            if moved.any():
                redo, pruned = at[moved], pruned[moved]
                g_mat2 = _gram(red_t[redo], pruned)
                lev2 = _leverages(red_t[redo].transpose(0, 2, 1), g_mat2)
                g2 = lev2.max(axis=1)
                # history records accepted descent steps only; the final
                # prune may move g by O(prune mass) within the target
                kept = g2 <= np.maximum(target, g[redo])
                accept(redo, kept, pruned, g_mat2, lev2, g2)
                # pruning pushed g past the target (rare); keep iterating
                done[moved] = kept
            iterations[at[done]] = step
            reached[reached] = done
            live = live[~reached]
        if not live.size:
            return w, g_mat, g, history, iterations
        if step == MAX_ITER:
            raise ConvergenceError(
                f"iteration cap {MAX_ITER} reached; achieved g_value "
                f"{g[live[0]]:.12g} (target {target:.12g})")
        j = lev[live].argmax(axis=1)
        g_live = g[live]
        lam = np.full(live.size, 0.5)
        big = g_live > 1.0
        lam[big] = (g_live[big] - r) / (r * (g_live[big] - 1.0))
        pending = np.arange(live.size)      # positions in live still searching
        while pending.size:
            stuck = pending[lam[pending] < 1e-14]
            if stuck.size:
                raise ConvergenceError(
                    f"no descent step found at g = {g_live[stuck[0]]:.12g} "
                    f"(target {target:.12g})")
            idx = live[pending]
            w2 = w[idx] * (1.0 - lam[pending])[:, None]
            w2[np.arange(idx.size), j[pending]] += lam[pending]
            g_mat2 = _gram(red_t[idx], w2)
            lev2 = _leverages(red_t[idx].transpose(0, 2, 1), g_mat2)
            g2 = lev2.max(axis=1)
            descent = g2 <= g[idx]
            accept(idx, descent, w2, g_mat2, lev2, g2)
            lam[pending[~descent]] *= 0.5
            pending = pending[~descent]
        step += 1
        for i, gi in zip(live.tolist(), g[live].tolist()):
            history[i].append(gi)


def frank_wolfe_designs(blocks) -> list:
    """Frank-Wolfe designs of a stack (n, k, c) of same-shape row blocks.

    Each block keeps the columns its own pivoted QR retains, and dim is the
    number it keeps; a block whose Gram matrix certifies that the QR keeps
    every column (_keeps_every_column) skips the QR. Starting uniform on a
    pivot-selected row subset of size at most min(dim, k), every step
    moves mass toward the worst-leverage row with the closed-form step
    size, halved as needed so the objective never increases, until
    g(rho) <= 2 * dim. Weights below 1e-10 are pruned at the end. Blocks
    that keep the same number of columns iterate together; every design
    is bitwise that of the block run alone. Raises ConvergenceError when
    MAX_ITER steps do not reach a target.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[1] < 1:
        raise DimensionMismatchError("blocks must be a stack of non-empty 2-d arrays")
    if not np.isfinite(blocks).all():
        raise ValidationError("rows must be finite")
    every = np.arange(blocks.shape[2])
    retained = [every if cleared else _retained_columns(block)
                for cleared, block in zip(_keeps_every_column(blocks).tolist(), blocks)]
    if any(cols.size == 0 for cols in retained):
        raise ValidationError("rows are numerically zero: no columns retained")
    bound = core_set_bound(blocks.shape[2])
    ranks = np.array([cols.size for cols in retained])
    rows_t = blocks.transpose(0, 2, 1)
    designs = [None] * len(blocks)
    for r in sorted(set(ranks.tolist())):
        members = np.flatnonzero(ranks == r)
        cols = np.array([retained[i] for i in members])
        if members.size == len(blocks) and r == blocks.shape[2]:
            red_t = np.ascontiguousarray(rows_t)        # every column kept
        else:
            red_t = np.ascontiguousarray(rows_t[members[:, None], cols])
        w, g_mat, g, history, iterations = _lockstep(red_t)
        owner, atoms = np.nonzero(w)            # row-major: block by block
        weights = w[owner, atoms].tolist()
        cuts = np.searchsorted(owner, np.arange(members.size + 1)).tolist()
        atoms = atoms.tolist()
        for pos, (i, g_i, cols_i, steps) in enumerate(zip(
                members.tolist(), g.tolist(), cols.tolist(), iterations.tolist())):
            lo, hi = cuts[pos], cuts[pos + 1]
            support = tuple(zip(atoms[lo:hi], weights[lo:hi]))
            if len(support) > bound:
                raise ConvergenceError(
                    f"support size {len(support)} exceeds the core-set bound {bound}")
            designs[i] = DesignDistribution(
                support=support,
                design_matrix=g_mat[pos],
                g_value=g_i,
                retained_columns=tuple(cols_i),
                g_history=tuple(history[pos]),
                iterations=steps,
            )
    return designs


def frank_wolfe_design(rows) -> DesignDistribution:
    """The Frank-Wolfe design of one row block: a stack of one."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise DimensionMismatchError("rows must be a non-empty 2-d array")
    return frank_wolfe_designs(rows[None])[0]


def g_value(rows, design: DesignDistribution) -> float:
    """Exact max over all rows of the quadratic form in the inverse design."""
    rows = np.asarray(rows, dtype=np.float64)
    red = rows[:, list(design.retained_columns)]
    try:
        return float(_leverages(red, design.design_matrix).max())
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"design matrix is singular: {exc}") from None


def weighted_estimate(designs, rows, rewards) -> np.ndarray:
    """Solve G(rho_i) theta_i = sum_a rho_i(a) r_a a for every design i.

    rows[i, t] is the feature row of the t-th support action of designs[i],
    over every column the design was built on, and rewards[i, t] is its
    observed reward; entries past a design's support are ignored. Each
    right-hand side is accumulated in support order, the systems of one
    retained rank are solved in one stacked call, and every solution is
    embedded back with zeros on the discarded columns, one row per design.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n, depth, c = rows.shape
    scaled = np.zeros((n, depth))
    for i, design in enumerate(designs):
        scaled[i, :len(design.support)] = [weight for _, weight in design.support]
    scaled *= rewards
    theta = np.zeros((n, c))
    ranks = np.array([len(design.retained_columns) for design in designs])
    for r in sorted(set(ranks.tolist()) - {0}):
        members = np.flatnonzero(ranks == r)
        cols = np.array([designs[i].retained_columns for i in members])
        red = rows[members[:, None], :, cols]           # (members, r, depth)
        weights = scaled[members]
        rhs = np.zeros((members.size, r))
        for t in range(depth):
            rhs += weights[:, t, None] * red[:, :, t]
        g_mats = np.stack([designs[i].design_matrix for i in members])
        theta[members[:, None], cols] = np.linalg.solve(g_mats, rhs[:, :, None])[:, :, 0]
    return theta


def subset_blocks(features_matrix: np.ndarray, index_sets) -> np.ndarray:
    """Stack (n, k, s) of the column restrictions to n size-s index sets,
    each restriction's columns in ascending index order and, as
    ``features_matrix[:, cols]`` is, column-major."""
    idx = np.sort(np.asarray(index_sets, dtype=np.intp).reshape(len(index_sets), -1),
                  axis=1)
    if idx.shape[1] == 0:
        raise ValidationError("index set is empty")
    if idx.min() < 0 or idx.max() >= features_matrix.shape[1]:
        raise DimensionMismatchError("index set outside feature dimensions")
    return features_matrix.T[idx].transpose(0, 2, 1)


_EMPTY_DESIGN = DesignDistribution(support=(), design_matrix=np.zeros((0, 0)),
                                  g_value=0.0, retained_columns=(),
                                  g_history=(), iterations=0)


def design_for_subsets(blocks: np.ndarray) -> list:
    """Frank-Wolfe designs of a subset_blocks stack, one per restriction.

    A restriction that is numerically zero on every row (no column norm
    above PIVOT_TOL, so no pivot would be retained) gets the empty design:
    no support and no retained column, so its estimate is 0 and costs no
    query.
    """
    zero = np.linalg.norm(blocks, axis=1).max(axis=1, initial=0.0) <= PIVOT_TOL
    live = np.flatnonzero(~zero)
    designs = [_EMPTY_DESIGN] * len(blocks)
    if live.size:
        stack = blocks if live.size == len(blocks) else blocks[live]
        for i, design in zip(live, frank_wolfe_designs(stack)):
            designs[i] = design
    return designs


def estimate_parameter(instance: BanditInstance, blocks: np.ndarray, designs,
                       ledger: QueryLedger) -> np.ndarray:
    """Design-weighted estimates of theta restricted to each block's columns.

    blocks is a subset_blocks stack and designs its design_for_subsets.
    Queries every design's support actions once each, design by design in
    support order, and returns their weighted_estimate, one row per block.
    """
    depth = max((len(design.support) for design in designs), default=0)
    actions = np.zeros((len(designs), depth), dtype=np.intp)
    rewards = np.zeros((len(designs), depth))
    for i, design in enumerate(designs):
        for t, (row_idx, _) in enumerate(design.support):
            actions[i, t] = row_idx
            rewards[i, t] = query(instance, row_idx, ledger)
    rows = blocks[np.arange(len(designs))[:, None], actions]
    return weighted_estimate(designs, rows, rewards)
