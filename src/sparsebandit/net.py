"""Separated point nets on the unit sphere.

A net with separation eps/2 is the candidate grid for the guessed estimators
in the parameter-elimination algorithm. True maximality over the continuum is
replaced by maximality over a dense seeded candidate pool; the pool size is
recorded on the net so the coverage property stays reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import GuardExceededError, NormBoundError, ValidationError
from .model import NORM_TOL

POOL_CAP = 10 ** 6
POOL_FACTOR = 200
# relative half-width of the band of squared distances around sep**2 that
# packing re-tests exactly; it absorbs the rounding of that exact test
PACK_BAND = 1e-9
_CHUNK = 4096      # pool rows tested at once against the earlier accepts
_SUB = 256         # sorted candidates that share one coordinate-0 window
_EPS = np.finfo(np.float64).eps   # 2u, twice the unit roundoff


def _closer_than(points: np.ndarray, sep: float) -> bool:
    """True iff some pair of rows has sum((a - b)**2) < sep**2.

    Greedy packing keeps every row exactly when no row is that close to an
    earlier one, and the test is symmetric, so this asks the packing kernel
    whether it drops a row.
    """
    return len(_pack(points, sep)) < len(points)


def _blocked(block, acc, lifted, sep2, min_sep):
    """Which rows of ``block`` the exact test blocks against ``acc``.

    ``acc`` holds the accepted points sorted by their first coordinate and
    ``lifted`` the matching rows [-2a, |a|**2]. Row x is blocked iff some
    accepted a has e(x, a) < sep2 = fl(min_sep**2), where e(x, a) is
    sum((x - a)**2) computed as the einsum below; the result is that of
    testing every pair, found as follows. fl() is rounding to nearest and
    u = 2**-53.

    Window. The candidates are sorted by x[0] and taken in sub-blocks of
    _SUB; a sub-block with first coordinates in [lo, hi] is tested only
    against the points with a[0] in [fl(lo - min_sep), fl(hi + min_sep)].
    No pair with e(x, a) < sep2 is left out, at any separation, because
    rounding is monotone: every partial sum of e(x, a) adds terms >= 0, so
    fl(d0 * d0) <= e(x, a) < fl(min_sep * min_sep) for d0 = fl(x[0] - a[0]),
    hence |d0| < min_sep and then |x[0] - a[0]| < min_sep exactly (min_sep
    is a float). So lo - min_sep < a[0] < hi + min_sep, and rounding the
    ends keeps the float a[0] inside. The argument uses no error bound, so
    it holds however small min_sep is, and a point outside the window has
    e(x, a) >= sep2 by the same steps.

    Lifted product. Against the window, v = |x|**2 + min_a ([x, 1] .
    [-2a; |a|**2]) is the squared distance to the nearest point, to within
    tol_r. With p = |x|**2, q = |a|**2 <= R**2, each computed to a relative
    gamma_s (gamma_n = n*u / (1 - n*u)), and a length-(s+1) dot product off
    by at most gamma_{s+1} (2*sqrt(p*q) + q), in any order and with or
    without FMA, the sum before its last rounding is off by at most
    gamma_{s+1} (p + 2*sqrt(p*q) + 2q + gamma_s*q) <= 5.01*gamma_{s+1} R**2,
    and the last addition adds u * 4.01 R**2. Taking the minimum commutes
    with rounding, so tol_r = 4*(s+2)*eps*R**2 = 8*(s+2)*u*R**2 (eps = 2u)
    bounds the error, with room for R**2 and sep2 -+ tol being rounded; the
    smallest normal float covers every operation that underflows. e(x, a)
    is the exact squared distance to a relative gamma_{s+2}, far inside
    PACK_BAND. With tol = PACK_BAND*sep2 + tol_r, a row with v < sep2 - tol
    has a point at exact squared distance below sep2*(1 - PACK_BAND + u),
    whose e(x, a) is then below sep2: blocked. A row with v > sep2 + tol
    has every point past sep2*(1 + PACK_BAND), whose e(x, a) stays at or
    above sep2: free. Only the rows between get e(x, a) against their
    window.
    """
    blocked = np.zeros(len(block), dtype=bool)
    if not len(acc):
        return blocked
    s = block.shape[1]
    order = np.argsort(block[:, 0])
    cand = block[order]
    norms = np.einsum("ij,ij->i", cand, cand)
    r2 = max(float(norms.max()), float(lifted[:, s].max()))
    tol = PACK_BAND * sep2 + 4 * (s + 2) * _EPS * r2 + sys.float_info.min
    low, high = sep2 - tol, sep2 + tol
    rows = np.hstack([cand, np.ones((len(cand), 1))])
    key = acc[:, 0]
    out = np.zeros(len(cand), dtype=bool)
    for lo in range(0, len(cand), _SUB):
        hi = min(lo + _SUB, len(cand))
        first = np.searchsorted(key, cand[lo, 0] - min_sep, side="left")
        stop = np.searchsorted(key, cand[hi - 1, 0] + min_sep, side="right")
        if first == stop:
            continue
        near = (rows[lo:hi] @ lifted[first:stop].T).min(axis=1) + norms[lo:hi]
        out[lo:hi] = near < low
        for j in lo + np.flatnonzero((near >= low) & (near <= high)):
            diff = cand[j] - acc[first:stop]
            out[j] = np.einsum("ij,ij->i", diff, diff).min() < sep2
    blocked[order] = out
    return blocked


def _pack(pool, min_sep, cap=None):
    """greedy_pack's kernel, called directly when a net is validated so that
    only packing goes through the module-level name."""
    pool = np.ascontiguousarray(pool, dtype=np.float64)
    m, s = pool.shape
    sep2 = min_sep * min_sep
    accepted = []
    acc = np.empty((0, s))
    lifted = np.empty((0, s + 1))
    for start in range(0, m, _CHUNK):
        block = pool[start:start + _CHUNK]
        blocked = _blocked(block, acc, lifted, sep2, min_sep)
        # an accepted candidate blocks its later in-block neighbours; only
        # the rows earlier chunks left free can be accepted, and acceptances
        # are rare, so one vector update per accept keeps the loop scalar
        live = np.flatnonzero(~blocked)
        rows = block[live]
        hit = np.zeros(len(live), dtype=bool)
        new = []
        for k in range(len(live)):
            if hit[k]:
                continue
            new.append(live[k])
            accepted.append(start + live[k])
            if len(accepted) == cap:
                return np.asarray(accepted, dtype=np.int64)
            diff = rows[k + 1:] - rows[k]
            hit[k + 1:] |= np.einsum("ij,ij->i", diff, diff) < sep2
        if new:
            acc = np.vstack([acc, block[new]])
            acc = acc[np.argsort(acc[:, 0])]
            lifted = np.hstack([-2.0 * acc, np.einsum("ij,ij->i", acc, acc)[:, None]])
    return np.asarray(accepted, dtype=np.int64)


@dataclass(frozen=True)
class CoveringNet:
    """Unit vectors in s dimensions with pairwise distance >= separation."""

    points: np.ndarray        # (m, s)
    separation: float         # = eps/2
    s: int
    candidate_pool_size: int

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != self.s:
            raise ValidationError("net points must be (m, s)")
        if not np.isfinite(pts).all():
            raise ValidationError("net points must be finite")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            raise NormBoundError("net points must be unit vectors")
        eps = 2.0 * self.separation
        if pts.shape[0] > (4.0 / eps + 1.0) ** self.s:
            raise ValidationError("net size exceeds the packing bound")
        if pts.shape[0] > 1 and _closer_than(pts, self.separation):
            raise ValidationError("net points closer than the separation")

    @property
    def size(self) -> int:
        return self.points.shape[0]


def sphere_pool(s: int, size: int, seed: int) -> np.ndarray:
    """Deterministic pool of uniform unit vectors (normalized Gaussians)."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(size, s))
    norms = np.linalg.norm(pts, axis=1)
    # a zero draw is impossible in practice; regenerate defensively
    while np.any(norms == 0.0):
        bad = norms == 0.0
        pts[bad] = rng.normal(size=(int(bad.sum()), s))
        norms = np.linalg.norm(pts, axis=1)
    return pts / norms[:, None]


def greedy_pack(pool, min_sep, cap=None):
    """Greedy packing in pool order.

    Walks the candidate rows of ``pool`` in order and accepts a candidate iff
    its squared Euclidean distance to every previously accepted candidate is
    >= min_sep**2, computed as sum((a - b)**2). Returns the accepted row
    indices (int64, ascending); with ``cap``, packing stops at the cap-th
    accepted row, so the result is the first ``cap`` of the full packing.

    The pool is taken in chunks of 4096 rows. Each chunk is tested against
    the points accepted in earlier chunks by one lifted matrix product per
    coordinate-0 window, and only the rare rows within a rounding bound of
    min_sep**2 get the exact test (see _blocked for the bound and for why
    the window drops no close pair). Within a chunk, each accepted
    candidate blocks its neighbours by the exact test.
    """
    return _pack(pool, min_sep, cap)


def default_pool_size(s: int, epsilon: float) -> int:
    raw = POOL_FACTOR * (4.0 / epsilon + 1.0) ** s
    return int(min(raw, POOL_CAP))


def build_separated_net(s: int, epsilon: float, seed: int,
                        pool_size: int | None = None,
                        max_points: int | None = None) -> CoveringNet:
    """Greedy packing over a seeded sphere pool, acceptance in pool order.

    Accepts a candidate iff its distance to every accepted point is >= eps/2;
    the result is separated exactly and maximal relative to the pool. An
    explicit pool_size above the 1e6 cap is refused (beyond desk scale);
    the default size 200*(4/eps+1)^s is clamped to the cap. With
    ``max_points``, packing stops once that many points are accepted and a
    GuardExceededError is raised: a net only grows while it packs, so the
    full net would have at least that many.
    """
    if s < 1:
        raise ValidationError(f"dimension s must be >= 1, got {s}")
    if not (0.0 < epsilon <= 2.0):
        raise ValidationError(f"epsilon must be in (0, 2], got {epsilon}")
    if (epsilon / 2.0) ** 2 < sys.float_info.min:
        raise ValidationError(
            f"(eps/2)**2 underflows at eps = {epsilon:.6g}: the exact test "
            f"sum((a-b)**2) < (eps/2)**2 would separate no two points")
    if pool_size is None:
        pool_size = default_pool_size(s, epsilon)
    elif pool_size > POOL_CAP:
        raise GuardExceededError(
            f"pool size {pool_size} exceeds the desk-scale cap {POOL_CAP}")
    pool = sphere_pool(s, pool_size, seed)
    accepted = greedy_pack(pool, epsilon / 2.0, max_points)
    if len(accepted) == max_points:
        raise GuardExceededError(
            f"the net has more than {max_points - 1} points: packing stopped "
            f"at the cap {max_points}")
    return CoveringNet(points=pool[accepted], separation=epsilon / 2.0,
                       s=s, candidate_pool_size=pool_size)


def include_point(net: CoveringNet, v) -> CoveringNet:
    """Net containing v exactly, dropping points within eps/2 of it.

    Lets a harness plant a known parameter restriction so that its family is
    represented in the grid exactly. If v already is a net point the net is
    returned unchanged; otherwise v is appended after evicting its
    too-close neighbours, preserving all separation invariants.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (net.s,):
        raise ValidationError(f"point must have shape ({net.s},)")
    if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
        raise NormBoundError("inserted point must be a unit vector")
    exact = np.all(net.points == v, axis=1)
    if exact.any():
        return net
    diff = net.points - v
    keep = np.einsum("ij,ij->i", diff, diff) >= net.separation * net.separation
    points = np.vstack([net.points[keep], v])
    return CoveringNet(points=points, separation=net.separation,
                       s=net.s, candidate_pool_size=net.candidate_pool_size)
