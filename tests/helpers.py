"""Shared test oracles, independent of the library's solver paths."""

import math
from itertools import combinations

import numpy as np
from scipy.linalg import qr


def minimax_residual_oracle(a_mat, y):
    """Exact value of min_theta ||A theta - y||_inf by LP duality.

    The optimum equals the dual's, max lambda . y over the polytope
    {lambda : A^T lambda = 0, ||lambda||_1 <= 1}, attained at a vertex; the
    vertices are the normalized circuits (minimal dependent sets) of A's
    rows. With A of column rank s, each circuit extends to an (s+1)-row
    subset J of rank s, whose left null space is one-dimensional: the
    circuit spans it, and so does the cofactor vector lambda_J of A_J
    (lambda_i = (-1)^i det of A_J without row i). So the optimum is the
    largest |lambda_J . y_J| / ||lambda_J||_1 over the (s+1)-row subsets,
    from determinants only: no LP and no linear solve. A subset of rank
    below s has lambda_J = 0 only in exact arithmetic, and rounding leaves
    a ratio that means nothing; every test input is Gaussian, where each
    such subset has rank s almost surely. An A of column rank below s is
    refused, since every lambda_J of it vanishes.
    """
    a_mat = np.asarray(a_mat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, s = a_mat.shape
    if m <= s:
        theta, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
        return float(np.max(np.abs(a_mat @ theta - y)))
    if np.linalg.matrix_rank(a_mat) < s:
        raise ValueError(f"A has column rank below s = {s}")

    subsets = np.array(list(combinations(range(m), s + 1)))
    aj = a_mat[subsets]                                   # (nJ, s+1, s)
    lam = np.stack([(-1) ** i * np.linalg.det(np.delete(aj, i, axis=1))
                    for i in range(s + 1)], axis=1)       # (nJ, s+1)
    return float(np.max(np.abs(np.einsum("ji,ji->j", lam, y[subsets]))
                        / np.abs(lam).sum(axis=1)))


def sparse_minimax_oracle(psi, targets, s):
    """Brute-force enumeration over supports, each solved by the dual
    oracle; independent duplicate of the library's recovery route."""
    psi = np.asarray(psi, dtype=np.float64)
    d = psi.shape[1]
    best = np.inf
    for support in combinations(range(d), s):
        best = min(best, minimax_residual_oracle(psi[:, list(support)], targets))
    return best


def greedy_pack_oracle(pool, min_sep):
    """Greedy packing by its definition: scan the pool in order and accept a
    point iff its squared distance to every accepted point is >= min_sep**2.

    Dense and blocked: each block of the pool is first tested against every
    point accepted before it, then its survivors are taken in order, each
    against the survivors accepted before it in the block. Every distance is
    ((a - b)**2).sum() over the coordinate axis, the same reduction each time."""
    pool = np.asarray(pool, dtype=np.float64)
    sep2 = min_sep * min_sep
    block = 128
    accepted = np.empty(0, dtype=np.int64)
    for lo in range(0, len(pool), block):
        cand = np.arange(lo, min(lo + block, len(pool)))
        for a in range(0, len(accepted), block):
            acc = pool[accepted[a:a + block]]
            d2 = ((acc[None, :, :] - pool[cand][:, None, :]) ** 2).sum(axis=2)
            cand = cand[(d2 >= sep2).all(axis=1)]
        pts = pool[cand]
        ok = ((pts[None, :, :] - pts[:, None, :]) ** 2).sum(axis=2) >= sep2
        keep = []
        for j in range(len(cand)):
            if ok[j, keep].all():
                keep.append(j)
        accepted = np.concatenate([accepted, cand[keep]])
    return accepted


def first_violation_oracle(P, W, alive, m_idx, t_idx, eps):
    """First violating (w, mp, tp, x) for the primary (m_idx, t_idx); None if
    there is none. Anchors w are scanned in order; at each, the boolean
    tensor near[x] & rival[mp,tp] & far[mp,tp,x] is formed in full, and the
    first anchor where it has a true entry gives the answer as the first row
    of its argwhere, which comes in (mp, tp, x) scan order."""
    rival = alive.astype(bool)
    rival[m_idx, t_idx] = False
    values = P.transpose(0, 2, 1)                      # (n_sub, n_net, k)
    for w, c in enumerate(W[:, t_idx]):
        near = np.abs(P[m_idx, :, t_idx] - c) <= 0.5 * eps
        far = np.abs(values - c) > 2.5 * eps
        hits = np.argwhere(near[None, None, :] & rival[:, :, None] & far)
        if len(hits):
            return (w,) + tuple(int(v) for v in hits[0])
    return None


def first_alive(hit, alive):
    """The first violation (w, mp, tp, x) an anchor search's hit
    (w, rivals, actions) names: its first alive rival; None for None."""
    if hit is None:
        return None
    w, rivals, actions = hit
    first = int(np.argmax(alive.reshape(-1)[rivals] != 0))
    mp, tp = divmod(int(rivals[first]), alive.shape[1])
    return (w, mp, tp, int(actions[first]))


def retained_columns_qr_oracle(rows):
    """Frank-Wolfe column selection as written on ``scipy.linalg.qr``: the
    pivots whose |diag R| exceeds 1e-10, in ascending order."""
    _, r_fact, piv = qr(rows, mode="economic", pivoting=True)
    diag = np.abs(np.diag(np.atleast_2d(r_fact)))
    keep = piv[: int(np.sum(diag > 1e-10))]
    return np.sort(keep)


def start_rows_qr_oracle(red):
    """Frank-Wolfe starting rows as written on ``scipy.linalg.qr``: the
    first min(2r, k) row pivots of red.T, cut to those with a residual above
    1e-12 of the largest (at least one)."""
    k, r = red.shape
    _, r_fact, row_piv = qr(red.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(np.atleast_2d(r_fact)))
    scale = max(diag[0], 1.0) if diag.size else 1.0
    n_pivots = int(np.sum(diag > 1e-12 * scale))
    init = row_piv[: min(2 * r, k)]
    if n_pivots < len(init):
        init = init[: max(n_pivots, 1)]
    return init


def subset_elimination_reference(instance, subsets, estimates):
    """Phase 2 of design elimination as the paper states it, step by step.

    Each step takes the first alive pair (primary m, rival m') in
    lexicographic order whose predictions differ by more than
    2 eps (1 + sqrt(2s)) at some action, and the first such action x; it
    reads r_x off the reward table and removes m' if r_x is within
    eps (1 + sqrt(2s)) of m's prediction, else m, and m' too if r_x is not
    within that of m''s. Every step searches again from the first pair.
    Predictions never change, so each pair's first gap action is computed
    once, when a search first needs it, and kept. Returns the
    (action, reward) queries and the (step, action, reward, primary, rival,
    killed) log.
    """
    phi = instance.features.matrix
    preds = np.array([phi[:, list(subset)] @ estimates[subset] for subset in subsets])
    kill_thr = instance.epsilon * (1.0 + math.sqrt(2.0 * instance.s))
    n_sub = len(subsets)
    alive = np.ones(n_sub, dtype=bool)
    # first gap action of each (primary, rival): -1 none, -2 not computed yet
    first_gap = np.full((n_sub, n_sub), -2, dtype=np.int32)
    np.fill_diagonal(first_gap, -1)
    queries, log = [], []
    while True:
        hit = None
        for m in np.flatnonzero(alive).tolist():
            row = first_gap[m]
            while hit is None:
                open_rivals = np.flatnonzero(alive & (row != -1))
                if not open_rivals.size:
                    break
                unknown = row[open_rivals] == -2
                if not unknown[0]:
                    mp = int(open_rivals[0])
                    hit = m, mp, int(row[mp])
                    break
                # the leading rivals not computed yet, a few at a time
                lead = unknown.size if unknown.all() else int(np.argmin(unknown))
                todo = open_rivals[:min(lead, 64)]
                gaps = np.abs(preds[todo] - preds[m]) > 2.0 * kill_thr
                row[todo] = np.where(gaps.any(axis=1), gaps.argmax(axis=1), -1)
            if hit is not None:
                break
        if hit is None:
            return queries, log
        m, mp, x = hit
        reward = float(instance.rewards[x])
        if abs(reward - preds[m, x]) <= kill_thr:
            killed = (mp,)
        elif abs(reward - preds[mp, x]) > kill_thr:
            killed = (m, mp)
        else:
            killed = (m,)
        alive[list(killed)] = False
        queries.append((x, reward))
        log.append((len(log), x, reward, m, mp, killed))


def worst_case_misspecification(instance, ledger, predictions):
    """Worst uniform error of ``predictions`` over every misspecification
    |nu| <= epsilon under which the run would have gone the same way, and one
    nu that attains it.

    A learner sees rewards only through its queries, so keeping nu on the
    queried actions keeps the ledger, and with it the predictions. There the
    error is |r_a - pred_a| with r_a the ledger's reward; on an unqueried
    action nu = +-epsilon against the prediction gives
    |<a, theta*> - pred_a| + epsilon. <a, theta*> is summed here, not read
    off the instance's reward table.
    """
    preds = np.asarray(predictions, dtype=np.float64)
    truth = np.einsum("ij,j->i", instance.features.matrix,
                      instance.theta_star.coords)
    nu = np.where(truth >= preds, instance.epsilon, -instance.epsilon)
    errors = np.abs(truth - preds) + instance.epsilon
    for index, reward in ledger.entries:
        nu[index] = instance.misspec[index]
        errors[index] = abs(reward - preds[index])
    return float(errors.max()), nu
