"""Sparse near-orthogonal matrix generator and the hidden-index embedding.

The generator draws each row with exactly s nonzero entries: a support of s
coordinates chosen uniformly without replacement, each carrying +-1/sqrt(s)
with a fair sign. Every row is then s-sparse with unit norm (up to rounding),
and two rows meet only through a Rademacher sum over the overlap of their
supports, divided by s. The draw is normalized and certified exhaustively on
three conditions: unit row norms, row sparsity at most s, and pairwise inner
products at most the orthogonality level. Only the pairwise condition is
random, which is the one the union bound in k_threshold budgets. On such
a matrix, planting reward 2*Delta at one hidden row (zero elsewhere) yields a
misspecified instance whose optimal action cannot be found without
effectively searching the index, which is what makes the family a stress
harness for the learning algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MisspecificationBoundError,
    OverflowGuardError,
    RetriesExhaustedError,
    ValidationError,
)
from .model import (
    BanditInstance,
    FeatureMatrix,
    NoiseModel,
    QueryLedger,
    SparseParameter,
    brute_force_best,
    query,
)

K_SATURATION = 10 ** 9
MAX_RETRIES = 100   # seeds tried before RetriesExhaustedError
PAIRWISE_TOL = 1e-12   # rounding slack on a computed pairwise inner product


@dataclass(frozen=True)
class HardMatrixSpec:
    d: int
    s: int
    epsilon: float          # pairwise orthogonality level
    tau: float              # norm/sparsity slack, in [0, 1)
    delta: float            # failure budget, in (0, 1)
    seed: int
    k: int | None = None    # rows to generate; defaults to k_threshold
    c: float = 2.0          # any c > 1; enters the regime constant

    def __post_init__(self):
        if self.d < 1 or not 1 <= self.s <= self.d:
            raise ValidationError("need 1 <= s <= d")
        if not 0.0 < self.epsilon:
            raise ValidationError("epsilon must be positive")
        if not 0.0 <= self.tau < 1.0:
            raise ValidationError("tau must lie in [0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if not self.c > 1.0:
            raise ValidationError("c must exceed 1")


def c_prime(spec: HardMatrixSpec) -> float:
    c = spec.c
    return 2.0 * c ** 3 / ((1.0 + spec.tau) * math.sqrt(c * c - 1.0))


def small_epsilon_regime(spec: HardMatrixSpec) -> bool:
    return spec.epsilon <= c_prime(spec) * spec.s / spec.d


def k_threshold(spec: HardMatrixSpec) -> int:
    """Row count above which the construction succeeds with margin delta."""
    if small_epsilon_regime(spec):
        exponent = spec.d * (1.0 + spec.tau) * spec.epsilon ** 2 / (4.0 * c_prime(spec))
    else:
        exponent = spec.s * (1.0 + spec.tau) * spec.epsilon / 4.0
    log_k = 0.5 * math.log(spec.delta) + exponent
    if log_k > math.log(K_SATURATION):
        raise OverflowGuardError(
            f"threshold saturates beyond {K_SATURATION} "
            f"(log k = {log_k:.3g})")
    return max(1, math.ceil(math.sqrt(spec.delta) * math.exp(exponent)))


def spec_rows(spec: HardMatrixSpec) -> int:
    return spec.k if spec.k is not None else k_threshold(spec)


def sample_raw_matrix(spec: HardMatrixSpec, seed: int | None = None) -> np.ndarray:
    """Seeded raw draw of k rows, each with exactly s entries +-1/sqrt(s).

    Each row's support is a uniform s-subset of the d coordinates and each
    of its entries takes a fair random sign, all from one seeded stream.
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    k = spec_rows(spec)
    support = np.argsort(rng.random((k, spec.d)), axis=1)[:, :spec.s]
    signs = rng.integers(0, 2, size=(k, spec.s)) * 2.0 - 1.0
    raw = np.zeros((k, spec.d))
    np.put_along_axis(raw, support, signs / math.sqrt(spec.s), axis=1)
    return raw


@dataclass(frozen=True)
class RejectionReport:
    seed: int
    norm_failures: int       # rows with | ||a||^2 - 1 | > tau
    sparsity_failures: int   # rows with ||a||_0 > s + tau
    pairwise_failures: int   # normalized pairs with |<a_i, a_j>| > epsilon

    @property
    def accepted(self) -> bool:
        return (self.norm_failures + self.sparsity_failures
                + self.pairwise_failures) == 0


@dataclass(frozen=True)
class ValidationOutcome:
    report: RejectionReport
    features: FeatureMatrix | None   # populated iff accepted


def normalize_and_validate(raw: np.ndarray, spec: HardMatrixSpec,
                           seed: int | None = None) -> ValidationOutcome:
    """Normalize rows to unit norm and certify the three conditions.

    Checks are deterministic and exhaustive: sparsity and squared-norm slack
    on the raw rows (integer sparsity with tau < 1 forces at most s nonzeros
    after normalization), pairwise inner products on the normalized rows.
    """
    raw = np.asarray(raw, dtype=np.float64)
    norms_sq = np.einsum("ij,ij->i", raw, raw)
    if np.any(norms_sq == 0.0):
        raise ValidationError("raw matrix contains a zero row")
    nnz = np.count_nonzero(raw, axis=1)
    sparsity_failures = int(np.sum(nnz > spec.s + spec.tau))
    norm_failures = int(np.sum(np.abs(norms_sq - 1.0) > spec.tau))
    normalized = raw / np.sqrt(norms_sq)[:, None]
    gram = normalized @ normalized.T
    iu = np.triu_indices(raw.shape[0], k=1)
    pairwise_failures = int(np.sum(np.abs(gram[iu]) > spec.epsilon + PAIRWISE_TOL))
    report = RejectionReport(
        seed=spec.seed if seed is None else seed,
        norm_failures=norm_failures,
        sparsity_failures=sparsity_failures,
        pairwise_failures=pairwise_failures,
    )
    features = FeatureMatrix(normalized) if report.accepted else None
    return ValidationOutcome(report=report, features=features)


def generate_validated(spec: HardMatrixSpec):
    """Retry MAX_RETRIES seeds spec.seed, spec.seed+1, ... until one certifies.

    Returns (features, attempts, reports); when every retry fails, raises
    RetriesExhaustedError with the collected rejection reports as
    ``reports``.
    """
    reports = []
    for attempt in range(MAX_RETRIES):
        seed = spec.seed + attempt
        raw = sample_raw_matrix(spec, seed=seed)
        outcome = normalize_and_validate(raw, spec, seed=seed)
        reports.append(outcome.report)
        if outcome.report.accepted:
            return outcome.features, attempt + 1, reports
    raise RetriesExhaustedError(
        f"no validated matrix within {MAX_RETRIES} retries; failure counts "
        f"(norm/sparsity/pairwise) of the last report: "
        f"{reports[-1].norm_failures}/{reports[-1].sparsity_failures}/"
        f"{reports[-1].pairwise_failures}", reports=reports)


def pairwise_level(matrix: np.ndarray) -> float:
    """max |<a_i, a_j>| over distinct rows i < j; 0 for a single row."""
    gram = matrix @ matrix.T
    iu = np.triu_indices(matrix.shape[0], k=1)
    return float(np.max(np.abs(gram[iu]))) if iu[0].size else 0.0


def embed_index_query(features: FeatureMatrix, i_star: int, delta_gap: float,
                      epsilon: float) -> BanditInstance:
    """Instance with reward 2*Delta planted at the hidden row, 0 elsewhere.

    Requires pairwise inner products at most epsilon / (2*Delta), up to
    PAIRWISE_TOL; the planted parameter 2*Delta*a_star then represents the
    reward table with misspecification at most epsilon (or its realized
    maximum, if rounded above), exactly zero at the hidden row. The parameter
    norm 2*Delta may exceed 1; the instance records the bypass.
    """
    if not 0 <= i_star < features.k:
        raise ValidationError(f"hidden index {i_star} out of range")
    if delta_gap <= 0:
        raise ValidationError("the reward gap must be positive")
    level = pairwise_level(features.matrix)
    if level > epsilon / (2.0 * delta_gap) + PAIRWISE_TOL:
        raise ValidationError(
            f"pairwise level {level:.6g} exceeds epsilon/(2*Delta) = "
            f"{epsilon / (2 * delta_gap):.6g}")
    theta = 2.0 * delta_gap * features.matrix[i_star]
    fitted = features.matrix @ theta
    rewards = np.zeros(features.k)
    rewards[i_star] = fitted[i_star]
    nu = rewards - fitted
    nu_max = float(np.max(np.abs(nu)))
    if nu_max > epsilon + 2.0 * delta_gap * PAIRWISE_TOL:
        raise MisspecificationBoundError(
            "embedding produced misspecification above epsilon; "
            "the orthogonality precondition was violated")
    bypass = bool(np.linalg.norm(theta) > 1.0 + 1e-9)
    return BanditInstance(
        features=features,
        theta_star=SparseParameter(theta, skip_norm_check=True),
        misspec=nu,
        epsilon=max(epsilon, nu_max),
        noise=NoiseModel(),
        theta_norm_bypassed=bypass,
        orthogonality=level,
    )


def random_search(instance: BanditInstance, seed: int,
                  ledger: QueryLedger) -> tuple[int, int]:
    """Uniform search without replacement; returns (queries until the best
    action is first queried, best action index)."""
    best, _ = brute_force_best(instance)
    order = np.random.default_rng(seed).permutation(instance.k)
    for count, idx in enumerate(order, start=1):
        query(instance, int(idx), ledger)
        if int(idx) == best:
            return count, best
    raise AssertionError("unreachable: permutation covers all actions")
