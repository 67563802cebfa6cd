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
from .model import BanditInstance, Event, FeatureMatrix, QueryLedger, query
from .net import CoveringNet

TRIPLE_GUARD = 10 ** 7


@dataclass(frozen=True)
class CandidateSets:
    """Initial candidate collection over the triples (M, t, w).

    Triple construction order is subset-major: (M, estimator t, anchor w),
    all lexicographic. The triple's group R^w_M(theta_t) is the set of
    actions x with |P[M, x, t] - W[w, t]| <= eps/2, read off the cached
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

    def fresh_alive(self) -> np.ndarray:
        return np.ones((self.n_subsets, self.n_net), dtype=np.uint8)


@dataclass
class ParamElimResult:
    index_set: tuple
    theta_hat: np.ndarray
    queries: int
    initial_triples: int
    remaining_triples: int
    predictions: np.ndarray   # one per action, <a_M, theta_hat>
    log: list
    candidates: CandidateSets
    alive: np.ndarray


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


class Envelope:
    """Per-action max and min of P[mp, x, tp] over the alive families (mp, tp).

    Each action's values over all families are sorted once; a cursor from
    either end of that order rests on the smallest and the largest alive
    value. Families only die, so ``refresh`` moves the cursors forward past
    dead families only, at O(n_pairs * k) steps over a whole run.
    """

    def __init__(self, P: np.ndarray, alive: np.ndarray):
        k = P.shape[1]
        flat = P.transpose(1, 0, 2).reshape(k, -1)       # (k, n_pairs)
        self._order = np.argsort(flat, axis=1)
        self._sorted = np.take_along_axis(flat, self._order, axis=1)
        last = flat.shape[1] - 1
        self._cursor = np.array([[0] * k, [last] * k], dtype=np.intp)  # lo, hi
        self._family = self._order[np.arange(k), self._cursor]      # under each
        self.lo = self._sorted[:, 0].copy()
        self.hi = self._sorted[:, -1].copy()
        self.refresh(alive)

    def refresh(self, alive: np.ndarray) -> None:
        """Move the cursors past families that died since the last call.

        Only cursors resting on a dead family move, one at a time: a kill
        usually strands one or two of them. With no alive family left the
        cursors stop at the far ends."""
        flat = alive.reshape(-1)
        last = flat.size - 1
        for side, x in np.argwhere(flat[self._family] == 0).tolist():
            step, end, values = (1, last, self.lo) if side == 0 else (-1, 0, self.hi)
            order = self._order[x]
            c = int(self._cursor[side, x])
            while c != end and not flat[order[c]]:
                c += step
            self._cursor[side, x] = c
            self._family[side, x] = order[c]
            values[x] = self._sorted[x, c]


def pair_first_violation(P, W, alive, m_idx, t_idx, eps, envelope):
    """Anchor search for the primary family (m_idx, t_idx): the first anchor w
    with a violation, and its rival list.

    A tuple (w, mp, tp, x) violates when the action x lies in the primary
    family's group around anchor w (|P[m_idx,x,t_idx] - W[w,t_idx]| <= eps/2)
    and the alive rival family (mp, tp) != (m_idx, t_idx) predicts a value
    more than 5*eps/2 away from the anchor value W[w, t_idx].

    Scan order: w ascending, then rival pairs (mp, tp) lexicographic, then x
    ascending. Returns (w, rivals, actions) with ``rival_list`` at w, or None.
    ``envelope`` is first refreshed for ``alive``.

    Anchor w has a violating action iff some x in its group has
    fl(hi[x] - c_w) > 5*eps/2 or fl(lo[x] - c_w) < -5*eps/2: rounded
    subtraction is monotone, so no alive value lies further out than the
    envelope. The primary's own value at such an x is within eps/2 of c_w,
    so leaving it in the envelope changes nothing. At the winning anchor the
    first violation is the first alive entry of the rival list.
    """
    envelope.refresh(alive)
    c = W[:, t_idx, None]                                 # (n, 1)
    thr = 2.5 * eps
    near = np.abs(P[m_idx, :, t_idx] - c) <= 0.5 * eps    # (n, k)
    viol = near & ((envelope.hi - c > thr) | (envelope.lo - c < -thr))
    hits = viol.any(axis=1)
    if not hits.any():
        return None
    w = int(np.argmax(hits))
    return (w,) + rival_list(P, W, m_idx, t_idx, w, eps)


def rival_list(P, W, m_idx, t_idx, w, eps):
    """Every family far from the primary's anchor value at some action of its
    group around anchor w, alive or not: (flat pairs ascending, the first
    such action of each).

    A family (mp, tp) is far at x when |P[mp, x, tp] - W[w, t_idx]| >
    5*eps/2. The primary is never far on its own group, so it is not listed.
    The first alive entry is the primary's first violation at w for any
    ``alive``: an alive family far at a group action pushes the envelope out
    there too, so the envelope test keeps that action.
    """
    c = W[w, t_idx]
    group = np.flatnonzero(np.abs(P[m_idx, :, t_idx] - c) <= 0.5 * eps)
    far = np.abs(P[:, group, :] - c) > 2.5 * eps        # (n_sub, |group|, n)
    n_pairs = P.shape[0] * P.shape[2]
    far = far.transpose(0, 2, 1).reshape(n_pairs, group.size)
    rivals = np.flatnonzero(far.any(axis=1))
    return rivals, group[far[rivals].argmax(axis=1)]


def _violations(candidates: CandidateSets, alive: np.ndarray):
    """Yield each step's violating (m_idx, t_idx, w, mp, tp, x); the caller
    kills the primary or the rival before asking for the next.

    A rival is any surviving family (M', t') distinct from the primary as a
    pair; two estimators on the same index set do test each other. (The
    termination guarantee needs the true family admissible as a rival for
    every survivor, same-support ones included.) Primaries scan by flat pair
    (M, t), then ``pair_first_violation`` order.

    The scan resumes where the last step left it. Families only die, so
    every primary before the last one stays clean, and so do the anchors
    before the last one. At that anchor the next violation is the next alive
    entry of the rival list the anchor search returned, so a step whose
    primary survives walks that list; only an exhausted list sends the
    primary back to an anchor search, which refreshes the envelope first (its
    cursors only move forward, so one refresh after many kills lands where
    one per kill would).
    """
    P, W, eps = candidates.projections, candidates.anchors, candidates.epsilon
    n = candidates.n_net
    flat = alive.reshape(-1)
    envelope = Envelope(P, alive)
    for pair in range(candidates.n_pairs):
        m_idx, t_idx = divmod(pair, n)
        while flat[pair]:
            hit = pair_first_violation(P, W, alive, m_idx, t_idx, eps, envelope)
            if hit is None:
                break
            w, rivals, actions = hit
            for rival, x in zip(rivals.tolist(), actions.tolist()):
                if not flat[pair]:
                    break
                if flat[rival]:
                    yield (m_idx, t_idx, w) + divmod(rival, n) + (x,)


def run_parameter_elimination(instance: BanditInstance, ledger: QueryLedger, *,
                              net: CoveringNet) -> ParamElimResult:
    """Eliminate candidate families until no disagreement remains.

    Per loop iteration: query the disagreeing action once; if the observed
    reward is more than 3*eps/2 from the primary family's anchor value, the
    primary family dies, otherwise the rival does. Terminates within
    (net size) * (number of subsets) queries and returns the first surviving
    family in scan order together with its prediction for every action.

    Each step resumes the scan where the last one left it (``_violations``).
    """
    if not instance.deterministic:
        raise ValidationError("parameter elimination requires a noiseless instance")
    if net.s > instance.d:
        raise ValidationError("net dimension exceeds feature dimension")
    cand = build_candidate_sets(instance.features, net)
    eps = cand.epsilon
    alive = cand.fresh_alive()
    n = cand.n_net
    log: list[Event] = []

    for m_idx, t_idx, w_idx, mp, tp, x in _violations(cand, alive):
        reward = query(instance, x, ledger)
        anchor_value = float(cand.anchors[w_idx, t_idx])
        if abs(reward - anchor_value) > 1.5 * eps:
            alive[m_idx, t_idx] = 0
            killed = "primary"
        else:
            alive[mp, tp] = 0
            killed = "rival"
        log.append(Event("elimination", len(log), {
            "action": x, "reward": reward, "anchor": anchor_value,
            "primary": (m_idx, t_idx), "rival": (mp, tp), "killed": killed}))

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
        predictions=instance.features.matrix[:, list(index_set)] @ theta_hat,
        log=log,
        candidates=cand,
        alive=alive,
    )


def mark_ground_truth(result: ParamElimResult, instance: BanditInstance) -> bool:
    """Diagnostic: did the family of the true support and its nearest net
    point survive? Requires the restriction to be an exact net member to be
    a guarantee; otherwise this is informational."""
    supp = instance.theta_star.support
    cand = result.candidates
    if supp not in cand.subsets:
        return False
    m_idx = cand.subsets.index(supp)
    target = instance.theta_star.coords[list(supp)]
    exact = np.all(cand.net.points == target, axis=1)
    if exact.any():
        t_idx = int(np.argmax(exact))
    else:
        d2 = ((cand.net.points - target) ** 2).sum(axis=1)
        t_idx = int(np.argmin(d2))
    return bool(result.alive[m_idx, t_idx])

