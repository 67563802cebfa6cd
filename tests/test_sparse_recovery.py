"""Tests for the representative-collection and sparse-recovery pipeline."""

import math

import numpy as np
import pytest
from helpers import minimax_residual_oracle, sparse_minimax_oracle

from sparsebandit import QueryLedger, build_instance, random_sparse_instance
from sparsebandit.design import core_set_bound
from sparsebandit.errors import GuardExceededError, ValidationError
from sparsebandit.sparse_recovery import (
    collect_representatives,
    run_general_features,
    sparse_linf_recover,
)


def test_single_subset_when_d_equals_s():
    inst = random_sparse_instance(2, 2, 8, 0.1, seed=0)
    reps = collect_representatives(inst.features, 2)
    assert len(reps.subsets) == 1
    assert reps.matrix.shape == (reps.z, 2)
    assert reps.z == core_set_bound(2)


def test_representative_row_count_and_provenance():
    inst = random_sparse_instance(6, 2, 20, 0.1, seed=1)
    reps = collect_representatives(inst.features, 2)
    assert reps.matrix.shape[0] == math.comb(6, 2) * reps.z
    phi_rows = {tuple(r) for r in inst.features.matrix}
    for row in reps.matrix:
        assert tuple(row) in phi_rows
    for pos, src in enumerate(reps.source_rows):
        assert np.array_equal(reps.matrix[pos], inst.features.matrix[src])


def test_recover_exact_interpolation():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=(30, 6))
    theta0 = np.zeros(6)
    theta0[[1, 4]] = [0.7, -0.4]
    targets = psi @ theta0
    rec = sparse_linf_recover(psi, targets, 2)
    assert rec.objective <= 1e-9
    assert np.max(np.abs(rec.theta - theta0)) < 1e-7


def test_recover_matches_independent_enumerator():
    rng = np.random.default_rng(3)
    for trial in range(6):
        psi = rng.normal(size=(24, 6))
        targets = rng.normal(size=24)
        rec = sparse_linf_recover(psi, targets, 2)
        want = sparse_minimax_oracle(psi, targets, 2)
        assert rec.objective == pytest.approx(want, abs=1e-9)


def test_recover_objective_beats_ground_truth_value():
    inst = random_sparse_instance(6, 2, 24, 0.1, seed=4)
    reps = collect_representatives(inst.features, 2)
    targets = reps.matrix @ inst.theta_star.coords
    targets += np.sin(np.arange(len(targets)))  * 0.05  # arbitrary perturbation
    rec = sparse_linf_recover(reps.matrix, targets, 2)
    truth_obj = float(np.max(np.abs(reps.matrix @ inst.theta_star.coords - targets)))
    assert rec.objective <= truth_obj + 1e-12


def test_recover_rejects_degenerate_input():
    with pytest.raises(ValidationError):
        sparse_linf_recover(np.zeros((5, 4)), np.zeros(5), 2)
    with pytest.raises(GuardExceededError):
        sparse_linf_recover(np.ones((4, 60)), np.ones(4), 5)


def test_exchange_oracle_agrees_with_lp_on_single_support():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a_mat = rng.normal(size=(18, 3))
        y = rng.normal(size=18)
        rec = sparse_linf_recover(a_mat, y, 3)
        assert rec.objective == pytest.approx(minimax_residual_oracle(a_mat, y), abs=1e-9)


def test_pipeline_exact_linear_identity_regime():
    base = random_sparse_instance(6, 2, 20, 1e-9, seed=6)
    inst = build_instance(base.features, base.theta_star, np.zeros(base.k), 1e-9)
    res = run_general_features(inst, QueryLedger())
    assert res.recovered_support == inst.theta_star.support
    assert np.max(np.abs(res.theta_hat - inst.theta_star.coords)) < 1e-5
    assert res.final_error < 1e-5


def test_pipeline_error_within_calibrated_bound():
    for seed in range(4):
        inst = random_sparse_instance(6, 2, 24, 0.05, seed=seed)
        ledger = QueryLedger()
        res = run_general_features(inst, ledger)
        assert res.queries == len(ledger)
        unit = (2 * math.log(6)) ** 0.25 * math.sqrt(2 * 0.05) + 0.05
        assert res.final_error <= 10 * unit
        assert res.psi_rows == math.comb(6, 2) * 17
