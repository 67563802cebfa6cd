"""Tests for the hard-matrix generator and hidden-index embedding."""

import math

import numpy as np
import pytest

from sparsebandit import QueryLedger, load_instance, save_instance
from sparsebandit import hardness as hardness_mod
from sparsebandit.errors import (
    OverflowGuardError,
    RetriesExhaustedError,
    ValidationError,
)
from sparsebandit.hardness import (
    HardMatrixSpec,
    c_prime,
    embed_index_query,
    generate_validated,
    k_threshold,
    normalize_and_validate,
    pairwise_level,
    random_search,
    sample_raw_matrix,
    small_epsilon_regime,
    spec_rows,
)

FRIENDLY = HardMatrixSpec(d=64, s=8, epsilon=0.5, tau=0.95, delta=0.25,
                          seed=0, k=3)


def test_raw_matrix_monte_carlo_moments():
    spec = HardMatrixSpec(d=64, s=8, epsilon=0.5, tau=0.1, delta=0.25,
                          seed=0, k=2)
    cross_dots = []
    for seed in range(1000):
        raw = sample_raw_matrix(spec, seed=seed)
        # every row has exactly s entries and unit norm up to rounding, so
        # these are exact checks rather than Monte-Carlo ones
        assert np.all(np.count_nonzero(raw, axis=1) == spec.s)
        norms_sq = np.einsum("ij,ij->i", raw, raw)
        assert np.max(np.abs(norms_sq - 1.0)) <= 1e-12
        cross_dots.append(float(raw[0] @ raw[1]))
    vals = np.asarray(cross_dots)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) <= 3 * se


def test_raw_matrix_dense_when_s_equals_d():
    spec = HardMatrixSpec(d=16, s=16, epsilon=0.5, tau=0.5, delta=0.25,
                          seed=3, k=4)
    raw = sample_raw_matrix(spec)
    assert np.count_nonzero(raw) == raw.size


def test_raw_matrix_deterministic():
    a = sample_raw_matrix(FRIENDLY)
    b = sample_raw_matrix(FRIENDLY)
    assert np.array_equal(a, b)


def test_validated_matrix_properties():
    features, attempts, reports = generate_validated(FRIENDLY)
    assert attempts == len(reports) <= 100
    m = features.matrix
    norms = np.linalg.norm(m, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    assert np.count_nonzero(m, axis=1).max() <= FRIENDLY.s
    for i in range(m.shape[0]):
        for j in range(i + 1, m.shape[0]):
            assert abs(float(m[i] @ m[j])) <= FRIENDLY.epsilon


@pytest.mark.parametrize("d,s,epsilon,tau", [(512, 16, 0.5, 0.0),
                                               (1024, 64, 0.3, 0.1)])
def test_validated_at_default_k_threshold(d, s, epsilon, tau):
    # k_threshold budgets only the pairwise union bound, so at the default
    # row count the norm and sparsity checks must hold for every draw
    spec = HardMatrixSpec(d=d, s=s, epsilon=epsilon, tau=tau, delta=0.25,
                          seed=0)
    features, _, reports = generate_validated(spec)
    assert features.matrix.shape == (k_threshold(spec), d)
    assert all(r.norm_failures == r.sparsity_failures == 0 for r in reports)
    assert np.all(np.count_nonzero(features.matrix, axis=1) == s)


def test_rejection_report_counts(monkeypatch):
    spec = HardMatrixSpec(d=64, s=8, epsilon=1e-6, tau=1e-9, delta=0.25,
                          seed=1, k=4)
    raw = sample_raw_matrix(spec)
    outcome = normalize_and_validate(raw, spec)
    assert not outcome.report.accepted
    assert outcome.features is None
    total = (outcome.report.norm_failures + outcome.report.sparsity_failures
             + outcome.report.pairwise_failures)
    assert total > 0
    monkeypatch.setattr(hardness_mod, "MAX_RETRIES", 3)
    with pytest.raises(RetriesExhaustedError):
        generate_validated(spec)


def test_pairwise_count_matches_integer_oracle():
    # rows are +-1/sqrt(s), so s * <a_i, a_j> is the integer sign overlap and
    # a pair at exactly the level (overlap s * epsilon) must not count
    at_level = 0
    for seed in range(20):
        spec = HardMatrixSpec(d=64, s=8, epsilon=0.5, tau=0.1, delta=0.25,
                              seed=seed, k=200)
        raw = sample_raw_matrix(spec)
        signs = np.sign(raw).astype(np.int64)
        overlap = np.abs(signs @ signs.T)[np.triu_indices(spec.k, k=1)]
        report = normalize_and_validate(raw, spec).report
        assert report.pairwise_failures == int(np.sum(overlap > spec.s * spec.epsilon))
        at_level += int(np.sum(overlap == spec.s * spec.epsilon))
    assert at_level > 0


def test_embedding_accepts_pairs_at_the_level():
    # s = 2: a pair sharing one coordinate sits at exactly 1/2, the level
    spec = HardMatrixSpec(d=8, s=2, epsilon=0.5, tau=0.95, delta=0.25,
                          seed=0, k=16)
    features, _, _ = generate_validated(spec)
    gram = features.matrix @ features.matrix.T
    assert np.max(np.abs(gram[np.triu_indices(16, k=1)])) > 0.5
    inst = embed_index_query(features, i_star=0, delta_gap=0.5, epsilon=0.5)
    assert 0.5 <= inst.epsilon <= 0.5 + 1e-12
    assert np.max(np.abs(inst.misspec)) <= inst.epsilon
    assert inst.misspec[0] == 0.0


def test_regime_selector_and_constant():
    spec = HardMatrixSpec(d=64, s=8, epsilon=0.5, tau=0.1, delta=0.25, seed=0)
    assert c_prime(spec) == pytest.approx(
        2 * 8 / (1.1 * math.sqrt(3)), rel=1e-12)
    assert small_epsilon_regime(spec)
    large = HardMatrixSpec(d=512, s=16, epsilon=0.5, tau=0.0, delta=0.25, seed=0)
    assert not small_epsilon_regime(large)


def test_k_threshold_values():
    # large regime: ceil(sqrt(0.25) * e^2) = ceil(3.694...) = 4
    large = HardMatrixSpec(d=512, s=16, epsilon=0.5, tau=0.0, delta=0.25, seed=0)
    assert k_threshold(large) == 4
    # small regime at the acceptance-scale parameters
    small = HardMatrixSpec(d=64, s=8, epsilon=0.5, tau=0.1, delta=0.25, seed=0)
    want = math.ceil(math.sqrt(0.25) * math.exp(
        64 * 1.1 * 0.25 / (4 * c_prime(small))))
    assert k_threshold(small) == want == 1
    # near-trivial exponent collapses to one row
    tiny = HardMatrixSpec(d=8, s=2, epsilon=1e-6, tau=0.0, delta=0.9999, seed=0)
    assert k_threshold(tiny) == 1
    assert spec_rows(tiny) == 1


def test_k_threshold_monotonicity():
    base = dict(tau=0.1, delta=0.25, seed=0)
    small = [k_threshold(HardMatrixSpec(d=d, s=8, epsilon=0.9, **base))
             for d in (64, 128, 256)]
    assert small == sorted(small)
    eps_small = [k_threshold(HardMatrixSpec(d=256, s=8, epsilon=e, **base))
                 for e in (0.3, 0.5, 0.7)]
    assert eps_small == sorted(eps_small)
    large = [k_threshold(HardMatrixSpec(d=4096, s=s, epsilon=2.0, **base))
             for s in (8, 16, 24)]
    assert large == sorted(large)


def test_k_threshold_overflow_guard():
    spec = HardMatrixSpec(d=4096, s=512, epsilon=1.0, tau=0.0, delta=0.5, seed=0)
    with pytest.raises(OverflowGuardError, match="saturates"):
        k_threshold(spec)


def test_embedding_soundness():
    features, _, _ = generate_validated(FRIENDLY)
    delta_gap = 0.5
    eps_target = 2 * delta_gap * FRIENDLY.epsilon
    inst = embed_index_query(features, i_star=1, delta_gap=delta_gap,
                             epsilon=eps_target)
    assert inst.misspec[1] == 0.0
    assert np.max(np.abs(inst.misspec)) <= eps_target
    off = np.delete(inst.rewards, 1)
    assert np.max(np.abs(off)) == 0.0
    assert inst.rewards[1] == pytest.approx(2 * delta_gap, abs=1e-9)
    assert inst.orthogonality <= eps_target / (2 * delta_gap)


def test_pairwise_level_is_the_largest_off_diagonal_inner_product():
    rng = np.random.default_rng(5)
    for k in (1, 2, 7):
        rows = rng.normal(size=(k, 4))
        want = max((abs(float(rows[i] @ rows[j]))
                    for i in range(k) for j in range(i + 1, k)), default=0.0)
        assert pairwise_level(rows) == pytest.approx(want, rel=1e-12)
    features, _, _ = generate_validated(FRIENDLY)
    inst = embed_index_query(features, i_star=1, delta_gap=0.5, epsilon=0.5)
    assert inst.orthogonality == pairwise_level(features.matrix)


def test_embedding_norm_bypass_flag_and_round_trip(tmp_path):
    features, _, _ = generate_validated(FRIENDLY)
    inst = embed_index_query(features, i_star=0, delta_gap=0.9, epsilon=0.9)
    assert inst.theta_norm_bypassed  # parameter norm 1.8 > 1
    path = tmp_path / "hard.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.theta_norm_bypassed
    assert back.orthogonality == inst.orthogonality
    assert np.array_equal(back.rewards, inst.rewards)


def test_embedding_rejects_bad_orthogonality():
    # dense regime: supports must overlap, so pairwise levels are nonzero
    spec = HardMatrixSpec(d=16, s=8, epsilon=0.99, tau=0.95, delta=0.25,
                          seed=4, k=4)
    features, _, _ = generate_validated(spec)
    gram = features.matrix @ features.matrix.T
    level = np.max(np.abs(gram[np.triu_indices(4, k=1)]))
    assert level > 1e-4
    with pytest.raises(ValidationError):
        embed_index_query(features, i_star=0, delta_gap=0.5, epsilon=1e-4)


def test_random_search_single_action():
    spec = HardMatrixSpec(d=16, s=4, epsilon=0.5, tau=0.95, delta=0.25,
                          seed=2, k=1)
    features, _, _ = generate_validated(spec)
    inst = embed_index_query(features, i_star=0, delta_gap=0.5, epsilon=0.5)
    ledger = QueryLedger()
    queries, best = random_search(inst, 0, ledger)
    assert (queries, best) == (1, 0) and len(ledger) == 1


def test_random_search_mean_matches_closed_form():
    features, _, _ = generate_validated(FRIENDLY)
    inst = embed_index_query(features, i_star=2, delta_gap=0.5, epsilon=0.5)
    counts = [random_search(inst, trial, QueryLedger())[0] for trial in range(400)]
    mean = float(np.mean(counts))
    assert abs(mean - (inst.k + 1) / 2) <= 0.1 * (inst.k + 1) / 2
