"""Tests for the representative-collection and sparse-recovery pipeline."""

import math

import numpy as np
import pytest
from helpers import minimax_residual_oracle, sparse_minimax_oracle

from sparsebandit import (
    FeatureMatrix,
    QueryLedger,
    build_instance,
    random_sparse_instance,
    sparse_recovery,
    uniform_error,
)
from sparsebandit.design import core_set_bound
from sparsebandit.errors import GuardExceededError, ValidationError
from sparsebandit.param_elim import subsets_of_size
from sparsebandit.sparse_recovery import (
    _restricted_minimax,
    _support_bounds,
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


@pytest.fixture
def nothing_solved(monkeypatch):
    """Fails the test on any least-squares bound, design or LP."""
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the input was refused")
    for name in ("_support_bounds", "frank_wolfe_designs", "linprog"):
        monkeypatch.setattr(sparse_recovery, name, refuse)


@pytest.mark.parametrize("s", [-1, 0, 3, 1.5, 2.0])
def test_sparsity_outside_one_to_d_is_refused(s, nothing_solved):
    psi = np.arange(6.0).reshape(3, 2)
    with pytest.raises(ValidationError, match=rf"need 1 <= s <= d = 2, got s = {s}"):
        sparse_linf_recover(psi, np.ones(3), s)
    with pytest.raises(ValidationError, match=rf"need 1 <= s <= d = 2, got s = {s}"):
        collect_representatives(FeatureMatrix(psi / np.linalg.norm(psi, axis=1)[:, None]), s)


def test_collect_refuses_s_above_d(nothing_solved):
    with pytest.raises(ValidationError, match=r"need 1 <= s <= d = 3, got s = 4"):
        collect_representatives(FeatureMatrix(np.eye(3)), 4)


@pytest.mark.parametrize("psi", [np.ones(3), np.ones((3, 2, 1))])
def test_recover_refuses_a_representative_matrix_that_is_not_2d(psi, nothing_solved):
    with pytest.raises(ValidationError, match=rf"must be 2-d, got {psi.ndim}-d"):
        sparse_linf_recover(psi, np.ones(3), 1)


@pytest.mark.parametrize("where,value,message", [
    ("psi", np.nan, "representative matrix is not finite"),
    ("psi", -np.inf, "representative matrix is not finite"),
    ("targets", np.inf, "targets is not finite"),
    ("targets", np.nan, "targets is not finite")])
def test_recover_refuses_non_finite_input(where, value, message, nothing_solved):
    inputs = {"psi": np.arange(6.0).reshape(3, 2), "targets": np.ones(3)}
    inputs[where].flat[1] = value
    with pytest.raises(ValidationError, match=message):
        sparse_linf_recover(inputs["psi"], inputs["targets"], 1)


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
    assert uniform_error(inst, res.predictions) < 1e-5


def test_pipeline_error_within_calibrated_bound():
    for seed in range(4):
        inst = random_sparse_instance(6, 2, 24, 0.05, seed=seed)
        ledger = QueryLedger()
        res = run_general_features(inst, ledger)
        assert res.queries == len(ledger)
        unit = (2 * math.log(6)) ** 0.25 * math.sqrt(2 * 0.05) + 0.05
        assert uniform_error(inst, res.predictions) <= 10 * unit
        assert res.psi_rows == math.comb(6, 2) * 17


def full_enumeration(psi, targets, s):
    """Every support's LP in lexicographic order; the first support attaining
    the minimum wins."""
    best = None
    for subset in subsets_of_size(psi.shape[1], s):
        theta_m, obj = _restricted_minimax(psi[:, list(subset)], targets)
        if best is None or obj < best[1]:
            best = (subset, obj, theta_m)
    subset, obj, theta_m = best
    theta = np.zeros(psi.shape[1])
    theta[list(subset)] = theta_m
    return tuple(int(i) for i in np.nonzero(theta)[0]), obj, theta


def representative_problem(d, seed):
    """Representatives of a pipeline-sized instance (k = 4d, s = 2) with
    targets off the truth by a deterministic eps-scale perturbation."""
    inst = random_sparse_instance(d, 2, 4 * d, 0.05, seed=seed)
    psi = collect_representatives(inst.features, 2).matrix
    targets = psi @ inst.theta_star.coords + 0.05 * np.sin(np.arange(len(psi)))
    return psi, targets


def random_problems():
    rng = np.random.default_rng(11)
    for s in (1, 2, 3):
        for _ in range(3):
            yield rng.normal(size=(24, 6)), rng.normal(size=24), s


def assert_bitwise_equal(rec, want):
    support, obj, theta = want
    assert rec.support == support
    assert np.float64(rec.objective).tobytes() == np.float64(obj).tobytes()
    assert rec.theta.tobytes() == theta.tobytes()


def test_pruned_recovery_is_bitwise_the_full_enumeration():
    for d in (8, 12, 14):
        psi, targets = representative_problem(d, seed=d)
        assert_bitwise_equal(sparse_linf_recover(psi, targets, 2),
                             full_enumeration(psi, targets, 2))
    for psi, targets, s in random_problems():
        assert_bitwise_equal(sparse_linf_recover(psi, targets, s),
                             full_enumeration(psi, targets, s))


def test_tied_supports_go_to_the_lexicographically_first():
    rng = np.random.default_rng(12)
    psi = rng.normal(size=(20, 5))
    psi[:, 3] = psi[:, 0]
    targets = 0.8 * psi[:, 0] + 0.01 * rng.normal(size=20)
    rec = sparse_linf_recover(psi, targets, 1)
    assert rec.support == (0,)
    assert_bitwise_equal(rec, full_enumeration(psi, targets, 1))
    psi = rng.normal(size=(20, 5))
    psi[:, 4] = psi[:, 1]
    targets = psi[:, [0, 1]] @ [0.5, -0.4] + 0.01 * rng.normal(size=20)
    rec = sparse_linf_recover(psi, targets, 2)
    assert rec.support == (0, 1)                  # (0, 4) solves the same LP
    assert_bitwise_equal(rec, full_enumeration(psi, targets, 2))
    # a tie between different LPs, the later support solved first: rows 2
    # and 3 hold either support's objective at exactly 1
    psi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    targets = np.array([0.0, 1.0, 1.0, 1.0])
    bounds = _support_bounds(psi, targets, ((0,), (1,)))
    assert bounds[1] < bounds[0]
    assert (_restricted_minimax(psi[:, [0]], targets)[1]
            == _restricted_minimax(psi[:, [1]], targets)[1] == 1.0)
    rec = sparse_linf_recover(psi, targets, 1)
    assert rec.support == (0,) and rec.lp_solves == 2
    assert_bitwise_equal(rec, full_enumeration(psi, targets, 1))


def test_support_bound_never_exceeds_the_lp_value():
    rng = np.random.default_rng(13)
    collinear = rng.normal(size=(20, 5))
    collinear[:, 4] = collinear[:, 1]            # support (1, 4) is rank 1
    problems = [(*representative_problem(8, seed=0), 2),
                (collinear, rng.normal(size=20), 2)] + list(random_problems())
    for psi, targets, s in problems:
        supports = subsets_of_size(psi.shape[1], s)
        bounds = _support_bounds(psi, targets, supports)
        objs = [_restricted_minimax(psi[:, list(m)], targets)[1] for m in supports]
        assert np.all(bounds <= objs)


def test_lp_solves_counts_the_linprog_calls(monkeypatch):
    calls = []
    real = sparse_recovery.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sparse_recovery, "linprog", counting)
    psi, targets = representative_problem(12, seed=0)
    rec = sparse_linf_recover(psi, targets, 2)
    assert rec.lp_solves == len(calls) < math.comb(12, 2)
    calls.clear()
    res = run_general_features(random_sparse_instance(8, 2, 32, 0.05, seed=0),
                               QueryLedger())
    assert res.lp_solves == len(calls) < math.comb(8, 2)
