"""Parameter elimination over a net of candidate estimators.

Candidates are triples (anchor point w, index set M, estimator point t), with
w and t drawn from a separated sphere net and M ranging over all size-s
subsets of the coordinates. Each triple owns the group of actions whose
restriction to M predicts close to the anchor value; querying an action that
two candidate families predict very differently kills one family outright.
When no such disagreement remains, any surviving family predicts every reward
within 4*epsilon.

Elimination is by (M, t) family: all triples carrying a condemned pair die
together, so the survivor state is one flag per (subset, net point) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import EmptySurvivorError, GuardExceededError, ValidationError
from .model import BanditInstance, FeatureMatrix, QueryLedger, query, uniform_error
from .net import CoveringNet

TRIPLE_GUARD = 10 ** 7


@dataclass(frozen=True)
class CandidateSets:
    """Initial candidate collection with per-triple action groups.

    Triple construction order is subset-major: (M, estimator t, anchor w),
    all lexicographic. Groups are derived on demand from the cached
    projection tensor P[M, x, t] = <x_M, net[t]> and anchor values
    W[w, t] = <net[w], net[t]>.
    """

    subsets: tuple
    net: CoveringNet
    epsilon: float
    projections: np.ndarray   # (n_subsets, k, n_net)
    anchors: np.ndarray       # (n_net, n_net) net Gram matrix

    @property
    def n_subsets(self) -> int:
        return len(self.subsets)

    @property
    def n_net(self) -> int:
        return self.net.size

    @property
    def n_pairs(self) -> int:
        return self.n_subsets * self.n_net

    @property
    def n_triples(self) -> int:
        return self.n_pairs * self.n_net

    def group(self, m_idx: int, t_idx: int, w_idx: int) -> np.ndarray:
        """Action indices in the triple's group R^w_M(theta_t)."""
        vals = self.projections[m_idx, :, t_idx]
        anchor = self.anchors[w_idx, t_idx]
        return np.nonzero(np.abs(vals - anchor) <= 0.5 * self.epsilon)[0]

    def fresh_alive(self) -> np.ndarray:
        return np.ones((self.n_subsets, self.n_net), dtype=np.uint8)


@dataclass(frozen=True)
class Violation:
    """First disagreement found in deterministic scan order."""

    m_idx: int
    t_idx: int
    w_idx: int
    rival_m_idx: int
    rival_t_idx: int
    action: int


@dataclass
class EliminationStep:
    step: int
    action: int
    reward: float
    anchor_value: float
    primary: tuple      # (m_idx, t_idx)
    rival: tuple        # (m_idx, t_idx)
    killed: str         # "primary" | "rival"


@dataclass
class ParamElimResult:
    index_set: tuple
    theta_hat: np.ndarray
    queries: int
    initial_triples: int
    remaining_triples: int
    final_error: float
    log: list
    candidates: CandidateSets
    alive: np.ndarray
    ground_truth_alive: bool | None = None


def subsets_of_size(d: int, s: int) -> tuple:
    return tuple(combinations(range(d), s))


def check_triple_guard(d: int, net: CoveringNet) -> None:
    """Refuse more than TRIPLE_GUARD candidate triples, C(d, s) * |net|^2."""
    n_triples = math.comb(d, net.s) * net.size * net.size
    if n_triples > TRIPLE_GUARD:
        raise GuardExceededError(
            f"{n_triples} candidate triples exceed the desk-scale guard {TRIPLE_GUARD}")


def build_candidate_sets(features: FeatureMatrix, net: CoveringNet) -> CandidateSets:
    """Project every action restriction onto the net and cache anchor values.

    The net's separation is eps/2, so the instance epsilon is recovered as
    twice the separation. Refuses configurations beyond the desk-scale guard
    on the triple count (the elimination loop is exponential by design)
    before enumerating the subsets.
    """
    check_triple_guard(features.d, net)
    subsets = subsets_of_size(features.d, net.s)
    phi = features.matrix
    proj = np.empty((len(subsets), features.k, net.size))
    for m_idx, subset in enumerate(subsets):
        proj[m_idx] = phi[:, subset] @ net.points.T
    anchors = net.points @ net.points.T
    return CandidateSets(
        subsets=subsets,
        net=net,
        epsilon=2.0 * net.separation,
        projections=np.ascontiguousarray(proj),
        anchors=np.ascontiguousarray(anchors),
    )


def pair_first_violation(P, W, alive, m_idx, t_idx, eps):
    """First violating tuple for the primary family (m_idx, t_idx).

    A tuple (w, mp, tp, x) violates when the action x lies in the primary
    family's group around anchor w (|P[m_idx,x,t_idx] - W[w,t_idx]| <= eps/2)
    and the alive rival family (mp, tp) != (m_idx, t_idx) predicts a value
    more than 5*eps/2 away from the anchor value W[w, t_idx].

    Scan order: w ascending, then rival pairs (mp, tp) lexicographic, then x
    ascending. Returns (w, mp, tp, x) or None.
    """
    n_sub, k, n = P.shape
    u = P[m_idx, :, t_idx]
    c = np.ascontiguousarray(W[:, t_idx])
    h = 0.5 * eps
    thr = 2.5 * eps
    near = np.abs(u[None, :] - c[:, None]) <= h        # (n, k)
    anyw = near.any(axis=0)
    if not anyw.any():
        return None
    c_lo = np.where(near, c[:, None], np.inf).min(axis=0)
    c_hi = np.where(near, c[:, None], -np.inf).max(axis=0)

    # Phase A: per rival family, candidates (x, tp) admitting some violating
    # anchor; the deviation over the anchor window is extremal at its ends.
    wstar = n
    for mp in range(n_sub):
        av = alive[mp].astype(bool)
        if mp == m_idx:
            av = av.copy()
            av[t_idx] = False
        if not av.any():
            continue
        V = P[mp]                                      # (k, n)
        dev = np.maximum(np.abs(V - c_lo[:, None]), np.abs(V - c_hi[:, None]))
        viol = (dev > thr) & av[None, :] & anyw[:, None]
        if not viol.any():
            continue
        xs, tps = np.nonzero(viol)
        vals = V[xs, tps]
        # Phase B: earliest anchor w admitting any candidate of this rival.
        for lo in range(0, xs.size, 4096):
            xs_c = xs[lo:lo + 4096]
            vals_c = vals[lo:lo + 4096]
            wmask = near[:wstar, xs_c] & (np.abs(vals_c[None, :] - c[:wstar, None]) > thr)
            hits = wmask.any(axis=1)
            if hits.any():
                wstar = int(np.argmax(hits))
        if wstar == 0:
            break
    if wstar >= n:
        return None

    # Final pass at the winning anchor: first rival pair, then first action.
    cw = c[wstar]
    rmask = np.abs(u - cw) <= h                        # (k,)
    for mp in range(n_sub):
        av = alive[mp].astype(bool)
        if mp == m_idx:
            av = av.copy()
            av[t_idx] = False
        if not av.any():
            continue
        V = P[mp]
        mask = rmask[:, None] & av[None, :] & (np.abs(V - cw) > thr)
        cols = mask.any(axis=0)
        if cols.any():
            tp = int(np.argmax(cols))
            x = int(np.argmax(mask[:, tp]))
            return (wstar, mp, tp, x)
    return None


def find_violation(candidates: CandidateSets, alive: np.ndarray | None = None):
    """First violating tuple across all surviving families, or None.

    A rival is any surviving family (M', t') distinct from the primary as a
    pair; two estimators on the same index set do test each other. (The
    termination guarantee needs the true family admissible as a rival for
    every survivor, same-support ones included.)

    Scan order: triples by construction order (M, t, w), rival pairs
    lexicographic, actions by row.
    """
    if alive is None:
        alive = candidates.fresh_alive()
    n = candidates.n_net
    for m_idx in range(candidates.n_subsets):
        for t_idx in range(n):
            if not alive[m_idx, t_idx]:
                continue
            hit = pair_first_violation(candidates.projections, candidates.anchors,
                                       alive, m_idx, t_idx, candidates.epsilon)
            if hit is not None:
                w_idx, mp, tp, x = hit
                return Violation(m_idx, t_idx, w_idx, mp, tp, x)
    return None


def run_parameter_elimination(instance: BanditInstance, ledger: QueryLedger, *,
                              net: CoveringNet) -> ParamElimResult:
    """Eliminate candidate families until no disagreement remains.

    Per loop iteration: query the disagreeing action once; if the observed
    reward is more than 3*eps/2 from the primary family's anchor value, the
    primary family dies, otherwise the rival does. Terminates within
    (net size) * (number of subsets) queries and returns the first surviving
    family in scan order together with its post-hoc uniform error.
    """
    if not instance.deterministic:
        raise ValidationError("parameter elimination requires a noiseless instance")
    if net.s > instance.d:
        raise ValidationError("net dimension exceeds feature dimension")
    cand = build_candidate_sets(instance.features, net)
    eps = cand.epsilon
    alive = cand.fresh_alive()
    clean = np.zeros_like(alive)
    n = cand.n_net
    log: list[EliminationStep] = []

    max_steps = cand.n_pairs + 1
    for _ in range(max_steps):
        found = None
        for m_idx in range(cand.n_subsets):
            row_alive = alive[m_idx]
            row_clean = clean[m_idx]
            for t_idx in range(n):
                if not row_alive[t_idx] or row_clean[t_idx]:
                    continue
                hit = pair_first_violation(cand.projections, cand.anchors,
                                           alive, m_idx, t_idx, eps)
                if hit is None:
                    # rivals only ever die, so a clean family stays clean
                    row_clean[t_idx] = 1
                    continue
                found = (m_idx, t_idx) + hit
                break
            if found:
                break
        if not found:
            break
        m_idx, t_idx, w_idx, mp, tp, x = found
        reward = query(instance, x, ledger)
        anchor_value = float(cand.anchors[w_idx, t_idx])
        if abs(reward - anchor_value) > 1.5 * eps:
            alive[m_idx, t_idx] = 0
            killed = "primary"
        else:
            alive[mp, tp] = 0
            killed = "rival"
        log.append(EliminationStep(
            step=len(log), action=x, reward=reward, anchor_value=anchor_value,
            primary=(m_idx, t_idx), rival=(mp, tp), killed=killed))

    survivors = np.argwhere(alive == 1)
    if survivors.size == 0:
        raise EmptySurvivorError(
            "every candidate family was eliminated; the net likely misses the "
            "ground-truth restriction (see the run log)")
    m_idx, t_idx = (int(v) for v in survivors[0])
    index_set = cand.subsets[m_idx]
    theta_hat = cand.net.points[t_idx].copy()
    return ParamElimResult(
        index_set=index_set,
        theta_hat=theta_hat,
        queries=len(log),
        initial_triples=cand.n_triples,
        remaining_triples=int(alive.sum()) * n,
        final_error=uniform_error(instance, theta_hat, index_set),
        log=log,
        candidates=cand,
        alive=alive,
    )


def mark_ground_truth(result: ParamElimResult, instance: BanditInstance) -> ParamElimResult:
    """Diagnostic: did the family of the true support and its nearest net
    point survive? Requires the restriction to be an exact net member to be
    a guarantee; otherwise this is informational."""
    supp = instance.theta_star.support
    cand = result.candidates
    if supp not in cand.subsets:
        result.ground_truth_alive = False
        return result
    m_idx = cand.subsets.index(supp)
    target = instance.theta_star.coords[list(supp)]
    exact = np.all(cand.net.points == target, axis=1)
    if exact.any():
        t_idx = int(np.argmax(exact))
    else:
        d2 = ((cand.net.points - target) ** 2).sum(axis=1)
        t_idx = int(np.argmin(d2))
    result.ground_truth_alive = bool(result.alive[m_idx, t_idx])
    return result

