"""Inner-product-preserving random projections with empirical certificates.

The map is a dense random-sign matrix with entries +-1/sqrt(p); a map is
accepted for downstream use only after certifying that it distorts the inner
product of every action with the target parameter by at most 2*upsilon.
Certification is harness-side (it reads the ground truth); the algorithms
receive only the certified map. A map is fully reproducible from
(d, p, seed), which is all its serialized form needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, ValidationError

MAX_RETRIES = 32   # seeds tried before CertificationError


@dataclass(frozen=True)
class CompressionMap:
    matrix: np.ndarray          # (p, d)
    p: int
    d: int
    seed: int
    upsilon: float | None = None       # distortion target it was certified for
    max_violation: float | None = None
    # (shape, bytes) of the compressed rows of the last round-0 design run on
    # this map, and that design; set by compressed_elim, so a new map starts
    # empty and nothing outlives the map
    _round0: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.p, self.d):
            raise ValidationError(f"map matrix must be ({self.p}, {self.d})")

    def apply(self, x) -> np.ndarray:
        """Linear application; accepts a vector or a stack of row vectors."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self.matrix @ x
        return x @ self.matrix.T


def choose_target_dim(k_effective: int, upsilon: float, d: int,
                      c_jl: float = 8.0) -> int:
    """Target dimension ceil(c_jl * ln(k) / upsilon^2), clamped to [1, d]."""
    if k_effective < 2:
        raise ValidationError("k_effective must be at least 2")
    if not upsilon > 0:
        raise ValidationError("upsilon must be positive")
    if d < 1:
        raise ValidationError("d must be at least 1")
    raw = math.ceil(c_jl * math.log(k_effective) / (upsilon * upsilon))
    return max(1, min(raw, d))


def build_map(d: int, p: int, seed: int) -> CompressionMap:
    """Random-sign map; p = d with seed 0 is the identity (zero distortion)."""
    if not (1 <= p <= d):
        raise ValidationError(f"target dimension must satisfy 1 <= p <= d, got {p}")
    if p == d and seed == 0:
        return CompressionMap(matrix=np.eye(d), p=p, d=d, seed=0)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(p, d)) * 2 - 1
    return CompressionMap(matrix=signs / math.sqrt(p), p=p, d=d, seed=seed)


def certify(cmap: CompressionMap, actions, theta) -> float:
    """max over actions of |<f(a), f(theta)> - <a, theta>|."""
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    theta = np.asarray(theta, dtype=np.float64)
    if actions.shape[1] != cmap.d or theta.shape != (cmap.d,):
        raise ValidationError("actions/theta dimensions do not match the map")
    f_actions = cmap.apply(actions)
    f_theta = cmap.apply(theta)
    exact = actions @ theta
    compressed = f_actions @ f_theta
    return float(np.max(np.abs(compressed - exact)))


def find_certified_map(d: int, p: int, actions, theta, upsilon: float,
                       base_seed: int = 0) -> CompressionMap:
    """Redraw seeds until the distortion certificate <= 2*upsilon holds.

    Tries MAX_RETRIES seeds base_seed, base_seed+1, ... When p = d the
    seed-0 identity is tried first since compression is a no-op at full
    dimension.
    """
    seeds = list(range(base_seed, base_seed + MAX_RETRIES))
    if p == d and 0 not in seeds:
        seeds = [0] + seeds[:-1]
    worst = math.inf
    for seed in seeds:
        cmap = build_map(d, p, seed)
        violation = certify(cmap, actions, theta)
        worst = min(worst, violation)
        if violation <= 2.0 * upsilon:
            return CompressionMap(matrix=cmap.matrix, p=p, d=d, seed=seed,
                                  upsilon=upsilon, max_violation=violation)
    raise CertificationError(
        f"no map met the certificate 2*upsilon = {2 * upsilon:.6g} within "
        f"{MAX_RETRIES} retries (best violation {worst:.6g})")
