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
the one its block gets alone, but for the g-value of a design the start
target certifies; frank_wolfe_design is the stack of one. A block that
retains no column gets the empty design: no support, estimate 0, no query.
The learners that design every size-s subset stack them with subset_chunks.

The set-up of each design is decided on the whole stack where that can be
certified, and block by block where it cannot: the retained columns
(_keeps_every_column, else a pivoted QR), the uniform start's rows
(_certified_start_rows, else the pivoted QR of the transpose) and whether
that start already meets the target (_meets_target_at_start, else the
step-0 leverage solve).
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
# most size-s subsets per stack of subset_chunks: enough to spread numpy's
# per-call cost, which the stacked start certificates pay once per stack,
# few enough that a chunk's arrays (about 0.8 MB at k = 500, s = 2) stay
# below the other transients of a design-elimination run
SUBSET_CHUNK = 32
# blocks per start pivot below which a stack takes the per-block start: the
# stacked start certificates cost about as much per pivot as four blocks'
# pivoted QRs and leverage solves (stacks of 1-16 blocks, k 40-500, one
# BLAS thread), so a single 160 x 73 design is slower certified
CERTIFIED_START_BLOCKS = 4


def core_set_bound(s: int) -> int:
    """Support-size cap for a dimension-s design: ceil(4 s loglog(max(s,3)) + 16)."""
    return math.ceil(4 * s * math.log(math.log(max(s, 3))) + 16)


@dataclass(frozen=True)
class DesignDistribution:
    """Sparse design weights with the cached design matrix and its g-value.

    The design lives on the columns named by retained_columns: when the input
    rows are column-rank-deficient, columns with pivot below 1e-10 are
    discarded and the design matrix is the SPD Gram over the retained ones.
    g_value is the g the last accepted step solved, or, for a design that
    _meets_target_at_start finished at step 0, that certificate's bound,
    which is at least the g the step-0 solve would return and below 2r.
    """

    support: tuple              # ((row index, weight), ...) weights > 0
    design_matrix: np.ndarray   # (r, r) over retained columns
    retained_columns: tuple     # ascending indices into the input columns
    iterations: int
    g_value: float
    g_history: tuple            # monotone non-increasing, one per accepted step


_EMPTY_DESIGN = DesignDistribution(support=(), design_matrix=np.zeros((0, 0)),
                                  retained_columns=(), iterations=0,
                                  g_value=0.0, g_history=())


def _retained_columns(rows: np.ndarray) -> np.ndarray:
    """Columns to keep so the reduced matrix has full column rank: the
    pivots of the pivoted QR whose |r_ii| exceeds PIVOT_TOL, ascending.
    scipy.linalg is imported here, so a run whose every block is certified
    never loads it."""
    from scipy.linalg import qr

    r_fact, piv = qr(rows, mode="r", pivoting=True, check_finite=False)
    keep = piv[: np.count_nonzero(abs(r_fact.diagonal()) > PIVOT_TOL)]
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
    from scipy.linalg import qr

    r_fact, row_piv = qr(red.T, mode="r", pivoting=True, check_finite=False)
    diag = abs(r_fact.diagonal())
    n_pivots = np.count_nonzero(diag > 1e-12 * max(diag[0], 1.0))
    return row_piv[: max(n_pivots, 1)]


def _certified_start_rows(red_t: np.ndarray):
    """_start_rows of every block of a stack (n, r, k) of transposed
    blocks, decided with no LAPACK call where a certificate shows dgeqp3's
    answer: (rows (n, m), cleared (n,)), m = min(r, k). A cleared block's
    rows are its _start_rows; a block that is not cleared keeps its
    _start_rows call.

    dgeqp3 on the r x k transpose picks, at step t, the first position (its
    idamax) of the largest partial norm among the rows not yet pivoted;
    swaps the pivot into position t, so the row that held position t moves
    to the pivot's old position; applies the pivot's Householder
    reflector; and downdates every partial norm, recomputing it (dnrm2)
    when its tol3z test finds too much cancellation. Here the same picks
    run on the whole stack: m rounds of an argmax over squared residual
    norms, downdated by the squared projections of the rows on the pivot's
    residual direction, the residual rows kept by modified Gram-Schmidt.

    Norm margins. Let rho_j be the exact distance of row a_j from the span
    of the pivots picked so far, P = (r, t) those rows. The computed R of
    Householder QR is the exact R of Q^T (A + dA) with ||da_j|| <= gamma
    ||a_j||, gamma = c0 r (t + 1) u after t steps (Higham, Thm 19.4; c0 =
    QR_BACKWARD_C), and modified Gram-Schmidt is numerically Householder
    QR on [0; A] (Bjorck and Paige, SIAM J. Matrix Anal. Appl. 13, 1992),
    so the same holds here. Each computation's residual is then the
    distance of a_j + da_j from the span of P + dP, which is within (gamma
    + s) ||a_j|| of rho_j, s = gamma F / (sigma - gamma F) the sine of the
    angle between the two spans (F >= ||P||_F, sigma <= sigma_min(P)).
    Each downdate of a squared norm, dgeqp3's and this one, and each tol3z
    recompute, adds at most 8 u ||a_j||^2, which gamma covers. So each
    computed squared norm is within (gamma + s)(2 + gamma + s) ||a_j||^2 of
    rho_j^2, and the two within e ||a_j||^2 of each other, e twice that.
    In relative terms that is about u for a row far from the span, and
    about sqrt(u) for one whose residual is sqrt(u) ||a_j||, where dgeqp3's
    downdated norms are least accurate. A pick counts only if its squared
    residual beats every other row's by more than e (||a_pick||^2 +
    max_j ||a_j||^2). The exact pivoted QR of P has rho at each pick on its
    diagonal, so sigma_min(P) >= prod rho / ||P||_F^(t-1), each rho bounded
    below by its computed value less the margin.

    Exact ties. A row with at most one nonzero entry y keeps it exactly in
    both computations while every pivot so far is such a row whose entry
    is a power of two: each reflector is then a signed swap of two
    coordinates (tau 0 or 1, v of entries 0 and +-1), each projection here
    is exact, and each of dgeqp3's downdates is by a factor of exactly 1 or
    0. dnrm2 returns |y| and the squared residual here is fl(y^2), from
    which sqrt recovers |y| (Boldo, "Stupid is as stupid does: taking the
    square root of the square of a floating-point number", 2015), so equal
    squares are equal norms and the argmax takes the first of them by row
    index. dgeqp3's swap at step t moves the row at position t to a later
    one, so at step t the rows it has moved are the non-pivots of index
    below t. A pick of index below t has moved, and its block is not
    cleared. Any other pick is at its own position: a moved row tying it
    would have come first by index, and every other tie has a later index
    and position, so the pick is the first by position too. Such rows may
    tie the pick; any other row within the margin leaves the block
    uncleared. Rows whose square underflows never come near a pick that
    passes the pivot count, and an overflow makes the margin NaN. The
    signed basis probes of the benchmark instances tie this way.

    Pivot count. dgeqp3's |r_tt| is the computed norm of the pivot's
    residual, within the same margin, so a block is cleared only when every
    |r_tt| is certified above 1e-12 max(|r_00|, 1): then _start_rows
    returns all m pivots.
    """
    n, r, k = red_t.shape
    m = min(r, k)
    u = np.finfo(np.float64).eps / 2
    blocks = np.arange(n)
    res = red_t                         # residual rows
    a2 = np.einsum("brk,brk->bk", red_t, red_t)
    a2_max = a2.max(axis=1)
    sq = a2.copy()                      # squared residuals; a pivot's set to 0
    inexact = np.count_nonzero(red_t, axis=1) > 1
    rows = np.zeros((n, m), dtype=np.intp)
    cleared = np.ones(n, dtype=bool)
    exact_so_far = np.ones(n, dtype=bool)   # every pivot so far a swap pivot
    rho_prod = np.ones(n)                   # prod of the pivots' rho, bounded below
    frob2 = np.zeros(n)                     # ||P||_F^2, bounded above
    for t in range(m):
        gamma = QR_BACKWARD_C * r * (t + 1) * u
        if t == 0:
            drift = gamma
        else:
            frob = np.sqrt(frob2)
            sigma = rho_prod / frob ** (t - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                drift = np.where(sigma > 2 * gamma * frob,
                                 gamma + gamma * frob / (sigma - gamma * frob), np.inf)
        e = 2 * drift * (2 + drift)
        piv = sq.argmax(axis=1)             # the first largest by row index
        piv_sq, piv_a2 = sq[blocks, piv], a2[blocks, piv]
        low = piv_sq - e * piv_a2           # <= the exact rho^2 and |r_tt|^2
        if t == 0:
            scale2 = np.maximum(piv_sq + e * piv_a2, 1.0) * (1 + 8 * u)
        # another row within the margin of the pick passes only as an exact
        # tie: both rows of one entry
        exact = exact_so_far & ~inexact[blocks, piv]
        near = sq >= (low - e * a2_max)[:, None]
        near[blocks, piv] = False
        loose = (near & inexact).any(axis=1) | (near.any(axis=1) & ~exact)
        cleared &= ~loose & (low > 1e-24 * scale2) & (piv >= t)
        if not cleared.any():
            break
        rows[:, t] = piv
        if t + 1 == m:
            break
        exact_so_far = exact & (np.frexp(piv_a2)[0] == 0.5)
        rho_prod *= np.sqrt(np.maximum(low, 0.0))
        frob2 += piv_a2 * (1 + 4 * (r + 1) * u)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = res[blocks, :, piv] / np.sqrt(piv_sq)[:, None]
        proj = np.matmul(q[:, None, :], res)
        if t + 2 < m:
            res = res - q[:, :, None] * proj
        sq -= proj[:, 0] ** 2
        sq[blocks, piv] = 0.0
    return rows, cleared


def _meets_target_at_start(red_t: np.ndarray, start: np.ndarray) -> np.ndarray:
    """A bound below 2r on the computed start g-value of each block of a
    stack (n, r, k) of transposed blocks, r <= 2, under the uniform design
    on its r start rows start (n, r), in closed form with no solve; inf for
    a block it does not certify, and for every block when r > 2 or there
    are fewer start rows than r.

    With B the start rows, the design is G = B^T B / r and a row x has
    leverage r ||B^-T x||^2 = r ||adj(B^T) x||^2 / det(B)^2. Each
    coefficient of adj(B^T) x is a product sum of at most two terms, so
    with f = ||B||_F^2 the computed squares sum within r (2 gamma_2 +
    gamma_r) f ||x||^2 of the exact ones, and the computed det within
    gamma_2 f of the exact one; mu = 8 (r + 2) u covers both, the computed
    ||x||^2 and the few last roundings. So the exact largest leverage is at
    most L = r (N + mu X f) / D^2, N the largest computed sum, X the
    largest computed ||x||^2 and D = |det| - mu f.

    The step-0 solve (_leverages) returns each leverage of G^ + dG, the
    computed Gram less the LU's backward error: |G^ - G| <= gamma_k
    |B|^T |B| / r (the uniform weights 1 and 1/2 are exact), and |dG| <=
    gamma_3r |L||U| with |L| <= 1 and |U| <= 2^(r-1) max |G^| under partial
    pivoting (Higham, Thm 9.4). Against lambda_min(G) >= D^2 / (r f^(r-1))
    that is a relative perturbation tau <= (k + 3 r^2 2^(r-1) + 1) r u f^r
    / D^2, which moves every leverage by a factor within 1 + tau / (1 -
    tau); the r-term dot product adds gamma_r sqrt(cond(G)) <= gamma_r f^r
    / D^2. omega = 8 (k + r^2 2^r) r u f^r / D^2 bounds the sum while it is
    below 1/4. A block is cleared when L (1 + omega) < 2r (1 - mu): its
    computed g then meets the target at step 0, and since the weights 1/r
    are exact for r <= 2, the final prune leaves them as they are. Its
    bound is the computed L (1 + omega), at least the computed g: omega is
    more than twice the perturbation it bounds, which leaves room for the
    product's two roundings.
    """
    n, r, k = red_t.shape
    if r > 2 or start.shape[1] < r:
        return np.full(n, np.inf)
    u = np.finfo(np.float64).eps / 2
    mu = 8 * (r + 2) * u
    b = red_t[np.arange(n)[:, None], :, start]          # (n, r, r), row i start i
    f = np.einsum("bij,bij->b", b, b)
    if r == 1:
        det, coef = b[:, 0, 0], red_t
    else:
        det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
        adj = np.stack([b[:, 1, 1], -b[:, 1, 0], -b[:, 0, 1], b[:, 0, 0]],
                       axis=1).reshape(n, 2, 2)            # adj(B^T)
        coef = np.matmul(adj, red_t)
    big_n = np.einsum("bik,bik->bk", coef, coef).max(axis=1)
    big_x = np.einsum("bik,bik->bk", red_t, red_t).max(axis=1)
    low = np.abs(det) - mu * f
    with np.errstate(divide="ignore", invalid="ignore"):
        lev = r * (big_n + mu * big_x * f) / low ** 2
        omega = 8 * (k + r * r * 2 ** r) * r * u * f ** r / low ** 2
        bound = lev * (1 + omega)
    return np.where((low > 0) & (omega < 0.25) & (bound < 2 * r * (1 - mu)), bound, np.inf)


def _gram(red_t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Design matrices sum_a w_a a a^T of a stack of transposed blocks
    (n, r, k) under weights (n, k)."""
    return np.matmul(red_t, red_t.transpose(0, 2, 1) * weights[:, :, None])


def _leverages(rows_red: np.ndarray, g_mat: np.ndarray) -> np.ndarray:
    """||a||^2 in the inverse design for every row, over any stack axes; a
    design matrix singular to working precision raises ValidationError."""
    try:
        sol = np.linalg.solve(g_mat, np.swapaxes(rows_red, -1, -2))
    except np.linalg.LinAlgError:
        raise ValidationError("design matrix is singular: the retained columns "
                              "are numerically collinear") from None
    return np.einsum("...ij,...ji->...i", rows_red, sol)


def _lockstep(red_t: np.ndarray):
    """Frank-Wolfe on a C-ordered stack (n, r, k) of transposed
    full-column-rank blocks.

    Every block runs the single-block iteration; the blocks still short of
    their target step together, so each stacked call does the work of one
    per-block call for all of them. The blocks are the column-major (k, r)
    views of red_t, the layout a column selection ``rows[:, cols]`` has,
    so every BLAS call sees the operands it would see for one block.
    In a stack of at least CERTIFIED_START_BLOCKS blocks per start pivot,
    the start rows come from _certified_start_rows, or from _start_rows
    for a block it does not clear, and a block of certified start rows
    that _meets_target_at_start clears finishes at step 0 with no leverage
    solve, its g-value that certificate's bound. A smaller stack takes
    _start_rows and the solve for every block. Returns the weights (n, k),
    the design matrices (n, r, r), the g-values (n,), the g histories and
    the iteration counts.
    """
    n, r, k = red_t.shape
    red = red_t.transpose(0, 2, 1)
    target = 2.0 * r
    stacked = n >= CERTIFIED_START_BLOCKS * r
    if stacked:
        start, known = _certified_start_rows(red_t)
    else:
        start, known = np.zeros((n, min(r, k)), dtype=np.intp), np.zeros(n, dtype=bool)
    w = np.zeros((n, k))
    w[np.flatnonzero(known)[:, None], start[known]] = 1.0 / start.shape[1]
    for i in np.flatnonzero(~known).tolist():
        init = _start_rows(red[i])
        w[i, init] = 1.0 / len(init)
    g_mat = _gram(red_t, w)
    g = np.full(n, np.inf)
    if stacked:
        g[known] = _meets_target_at_start(red_t, start)[known]
    live = np.flatnonzero(g == np.inf)
    lev = np.zeros((n, k))
    if live.size:
        lev[live] = _leverages(red_t[live].transpose(0, 2, 1), g_mat[live])
        g[live] = lev[live].max(axis=1)
    history = [[x] for x in g.tolist()]
    iterations = np.zeros(n, dtype=int)

    def accept(idx, sel, w2, g_mat2, lev2, g2):
        w[idx[sel]] = w2[sel]
        g_mat[idx[sel]] = g_mat2[sel]
        lev[idx[sel]] = lev2[sel]
        g[idx[sel]] = g2[sel]

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
    """Frank-Wolfe designs of a stack (n, k, c) of same-shape row blocks,
    each of at least one row and one column.

    Each block keeps the columns its own pivoted QR retains, and dim is the
    number it keeps; a block whose Gram matrix certifies that the QR keeps
    every column (_keeps_every_column) skips the QR, and one that keeps
    none gets the empty design. Starting uniform on a
    pivot-selected row subset of size at most min(dim, k), every step
    moves mass toward the worst-leverage row with the closed-form step
    size, halved as needed so the objective never increases, until
    g(rho) <= 2 * dim. Weights below 1e-10 are pruned at the end. The
    start rows are the pivots of the QR of the block's transpose; a block
    whose pivots _certified_start_rows shows skips that QR. A block whose
    start _meets_target_at_start shows to be at the target finishes at
    step 0 with no leverage solve, and its g_value is that certificate's
    bound. Blocks that keep the same number of columns iterate together;
    every design is bitwise that of the block run alone, but for that
    bound. Raises ConvergenceError when MAX_ITER steps do not reach a
    target.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or 0 in blocks.shape[1:]:
        raise DimensionMismatchError("blocks must be a stack of non-empty 2-d arrays")
    if not np.isfinite(blocks).all():
        raise ValidationError("rows must be finite")
    every = np.arange(blocks.shape[2])
    retained = [every if cleared else _retained_columns(block)
                for cleared, block in zip(_keeps_every_column(blocks).tolist(), blocks)]
    bound = core_set_bound(blocks.shape[2])
    ranks = np.array([cols.size for cols in retained])
    rows_t = blocks.transpose(0, 2, 1)
    designs = [_EMPTY_DESIGN] * len(blocks)
    for r in sorted(set(ranks.tolist()) - {0}):
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
                retained_columns=tuple(cols_i),
                iterations=steps,
                g_value=g_i,
                g_history=tuple(history[pos]),
            )
    return designs


def frank_wolfe_design(rows) -> DesignDistribution:
    """The Frank-Wolfe design of one row block, a stack of one that must
    retain a column."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.size == 0:
        raise DimensionMismatchError("rows must be a non-empty 2-d array")
    design = frank_wolfe_designs(rows[None])[0]
    if not design.retained_columns:
        raise ValidationError("rows are numerically zero: no columns retained")
    return design


def g_value(rows, design: DesignDistribution) -> float:
    """Exact max over all rows of the quadratic form in the inverse design."""
    rows = np.asarray(rows, dtype=np.float64)
    red = rows[:, list(design.retained_columns)]
    return float(_leverages(red, design.design_matrix).max())


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


def subset_chunks(features_matrix: np.ndarray, subsets):
    """Contiguous runs of subsets, in order, as (lo, the subset_blocks of
    the run at lo): as few as SUBSET_CHUNK allows, near-equal in size (the
    longer first), so none is a short tail. An empty list yields none."""
    n_runs = -(-len(subsets) // SUBSET_CHUNK)
    lo = 0
    for i in range(n_runs):
        hi = lo + len(subsets) // n_runs + (i < len(subsets) % n_runs)
        yield lo, subset_blocks(features_matrix, subsets[lo:hi])
        lo = hi


def estimate_parameter(instance: BanditInstance, blocks: np.ndarray, designs,
                       ledger: QueryLedger) -> np.ndarray:
    """Design-weighted estimates of theta restricted to each block's columns.

    blocks is a subset_blocks stack and designs its frank_wolfe_designs.
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
