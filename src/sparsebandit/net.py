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
# relative half-width of the distance band that greedy_pack re-tests exactly;
# far wider than the KD-tree's ~1e-15 rounding
PACK_BAND = 1e-9


def _closer_than(points: np.ndarray, sep: float) -> bool:
    """True iff some pair of rows has sum((a - b)**2) < sep**2.

    Decided the way greedy_pack decides it: a KD-tree nearest-other distance
    below sep*(1-PACK_BAND) is too close outright, and only the pairs the
    tree puts within sep*(1+PACK_BAND) get the exact squared-distance test.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    nearest = tree.query(points, k=2)[0][:, 1].min()
    if nearest < sep * (1.0 - PACK_BAND):
        return True
    if nearest > sep * (1.0 + PACK_BAND):
        return False
    pairs = tree.query_pairs(sep * (1.0 + PACK_BAND), output_type="ndarray")
    diff = points[pairs[:, 0]] - points[pairs[:, 1]]
    return bool((np.einsum("ij,ij->i", diff, diff) < sep * sep).any())


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


def greedy_pack(pool, min_sep):
    """Greedy packing in pool order.

    Walks the candidate rows of ``pool`` in order and accepts a candidate iff
    its squared Euclidean distance to every previously accepted candidate is
    >= min_sep**2. Returns the accepted row indices (int64, ascending).

    The pool is taken in chunks of 4096 rows. Against the points accepted in
    earlier chunks, a KD-tree gives each candidate its nearest distance. That
    distance is within a relative ~1e-15 of the exact sqrt(sum (a-b)**2), so
    a candidate nearer than min_sep*(1-PACK_BAND) is blocked, and one with no
    accepted point within min_sep*(1+PACK_BAND) is not, just as the exact
    test decides. Only the rare candidates inside that band get the exact
    squared-distance test against every accepted point, so the accepted
    indices are those of the direct scan. Within a chunk, each accepted
    candidate blocks its neighbours by the exact test.
    """
    from scipy.spatial import cKDTree

    pool = np.ascontiguousarray(pool, dtype=np.float64)
    m = pool.shape[0]
    sep2 = min_sep * min_sep
    accepted = []
    chunk = 4096
    for start in range(0, m, chunk):
        block = pool[start:start + chunk]
        if accepted:
            acc = pool[accepted]
            dist, _ = cKDTree(acc).query(
                block, distance_upper_bound=min_sep * (1.0 + PACK_BAND))
            blocked = dist < min_sep * (1.0 - PACK_BAND)
            band = np.flatnonzero(~blocked & np.isfinite(dist))
            diff = block[band][:, None, :] - acc[None, :, :]
            blocked[band] = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1) < sep2
        else:
            blocked = np.zeros(block.shape[0], dtype=bool)
        # an accepted candidate blocks its in-block neighbours; acceptances
        # are rare, so one vector update per accept keeps the loop scalar
        for i in np.flatnonzero(~blocked):
            if blocked[i]:
                continue
            accepted.append(start + i)
            diff_i = block - block[i]
            blocked |= np.einsum("ij,ij->i", diff_i, diff_i) < sep2
    return np.asarray(accepted, dtype=np.int64)


def default_pool_size(s: int, epsilon: float) -> int:
    raw = POOL_FACTOR * (4.0 / epsilon + 1.0) ** s
    return int(min(raw, POOL_CAP))


def build_separated_net(s: int, epsilon: float, seed: int,
                        pool_size: int | None = None) -> CoveringNet:
    """Greedy packing over a seeded sphere pool, acceptance in pool order.

    Accepts a candidate iff its distance to every accepted point is >= eps/2;
    the result is separated exactly and maximal relative to the pool. An
    explicit pool_size above the 1e6 cap is refused (beyond desk scale);
    the default size 200*(4/eps+1)^s is clamped to the cap.
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
    accepted = greedy_pack(pool, epsilon / 2.0)
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
