"""Tests for the bandit environment module."""

import numpy as np
import pytest

from sparsebandit import (
    FeatureMatrix,
    NoiseModel,
    QueryLedger,
    SparseParameter,
    brute_force_best,
    build_instance,
    load_instance,
    query,
    random_sparse_instance,
    save_instance,
    uniform_error,
)
from sparsebandit.errors import (
    DimensionMismatchError,
    MisspecificationBoundError,
    NormBoundError,
    SparsityError,
    ValidationError,
)
from sparsebandit.model import InstanceParseError


def test_build_trivial_zero_misspec():
    inst = build_instance([[1.0, 0.0]], [0.5, 0.0], [0.0], 0.1)
    assert inst.rewards[0] == pytest.approx(0.5, abs=1e-15)


def test_build_rejects_misspec_exceeding_epsilon():
    with pytest.raises(MisspecificationBoundError, match="exceeds epsilon"):
        build_instance([[1.0, 0.0]], [0.5, 0.0], [0.2], 0.1)


@pytest.mark.parametrize("misspec,epsilon,noise,error,message", [
    ([0.0, np.nan], 0.1, None, MisspecificationBoundError, "max [|]nu[|] = nan is not <="),
    ([np.inf, 0.0], 0.1, None, MisspecificationBoundError, "max [|]nu[|] = inf is not <="),
    ([0.0, 0.0], np.inf, None, ValidationError, "epsilon must be finite and > 0, got inf"),
    ([0.0, 0.0], np.nan, None, ValidationError, "epsilon must be finite and > 0, got nan"),
    ([0.0, 0.0], 0.1, ("gaussian", np.nan), ValidationError,
     "noise scale must be finite, got nan"),
], ids=["nan-nu", "inf-nu", "inf-epsilon", "nan-epsilon", "nan-noise-scale"])
def test_build_refuses_non_finite_misspec_epsilon_and_noise_scale(misspec, epsilon, noise,
                                                                   error, message):
    """A nan never satisfies max |nu| <= epsilon, and epsilon and the noise
    scale must be finite."""
    with pytest.raises(error, match=message):
        build_instance([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.0], misspec, epsilon,
                       noise=NoiseModel(*noise) if noise else None)


def test_build_hand_computed_reward():
    # 0.6*0.5 + 0.8*0.5 + 0.05 = 0.75, computed by hand
    inst = build_instance([[0.5, 0.5, 0.5, 0.5]], [0.6, 0.0, 0.8, 0.0], [0.05], 0.1)
    assert inst.rewards[0] == pytest.approx(0.75, abs=1e-12)
    assert inst.s == 2


def test_build_distinct_validation_errors():
    with pytest.raises(DimensionMismatchError):
        build_instance([[1.0, 0.0]], [0.5, 0.0, 0.0], [0.0], 0.1)
    with pytest.raises(DimensionMismatchError):
        build_instance([[1.0, 0.0]], [0.5, 0.0], [0.0, 0.0], 0.1)
    with pytest.raises(NormBoundError):
        build_instance([[1.0, 0.0]], [1.5, 0.0], [0.0], 0.1)
    with pytest.raises(SparsityError):
        SparseParameter(np.zeros(3))
    with pytest.raises(NormBoundError):
        FeatureMatrix([[1.2, 0.0]])


def test_query_deterministic_and_ledger_grows():
    inst = build_instance([[1.0, 0.0]], [0.5, 0.0], [0.0], 0.1)
    ledger = QueryLedger()
    r1 = query(inst, 0, ledger)
    r2 = query(inst, 0, ledger)
    assert r1 == r2 == 0.5
    assert len(ledger) == 2
    assert [e[0] for e in ledger.entries] == [0, 0]


def test_query_out_of_range():
    inst = build_instance([[1.0, 0.0]], [0.5, 0.0], [0.0], 0.1)
    with pytest.raises(IndexError):
        query(inst, 1, QueryLedger())


def test_noisy_query_sample_mean():
    inst = build_instance([[1.0, 0.0]], [0.5, 0.0], [0.0], 0.1,
                          noise=NoiseModel(kind="gaussian", seed=7))
    ledger = QueryLedger()
    draws = [query(inst, 0, ledger) for _ in range(10_000)]
    assert abs(np.mean(draws) - 0.5) < 0.05
    assert len(ledger) == 10_000


def test_noise_stream_private_per_ledger():
    inst = build_instance([[1.0, 0.0]], [0.5, 0.0], [0.0], 0.1,
                          noise=NoiseModel(kind="gaussian", seed=7))
    first, second = QueryLedger(), QueryLedger()
    a = [query(inst, 0, first) for _ in range(3)]
    b = [query(inst, 0, second) for _ in range(3)]
    assert a == b and len(set(a)) == 3


def test_brute_force_best_tie_break():
    rows = [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    inst = build_instance(rows, [0.0, 0.9], [0.1, 0.0, 0.0], 0.2)
    idx, val = brute_force_best(inst)
    assert (idx, val) == (1, 0.9)


def test_brute_force_best_single_action():
    inst = build_instance([[1.0, 0.0]], [0.5, 0.0], [0.0], 0.1)
    assert brute_force_best(inst) == (0, 0.5)


def test_brute_force_best_matches_scan():
    inst = random_sparse_instance(5, 2, 20, 0.1, seed=3)
    best_idx, best_val = brute_force_best(inst)
    scan_idx, scan_val = 0, float(inst.rewards[0])
    for i in range(1, inst.k):
        if float(inst.rewards[i]) > scan_val:
            scan_idx, scan_val = i, float(inst.rewards[i])
    assert (best_idx, best_val) == (scan_idx, scan_val)


def test_uniform_error_exact_and_zero_estimator():
    inst = random_sparse_instance(5, 2, 16, 0.1, seed=4)
    nu0 = build_instance(inst.features, inst.theta_star, np.zeros(inst.k), 0.1)
    supp = list(inst.theta_star.support)
    preds = inst.features.matrix[:, supp] @ inst.theta_star.coords[supp]
    assert uniform_error(nu0, preds) < 1e-12
    err0 = uniform_error(inst, np.zeros(inst.k))
    assert err0 == pytest.approx(np.max(np.abs(inst.rewards)), abs=1e-15)


@pytest.mark.parametrize("shape", [(15,), (17,), (16, 1), ()])
def test_uniform_error_needs_one_prediction_per_action(shape):
    inst = random_sparse_instance(5, 2, 16, 0.1, seed=4)
    with pytest.raises(DimensionMismatchError, match=r"\(16,\) actions"):
        uniform_error(inst, np.zeros(shape))


def test_misspec_soundness_property():
    for seed in range(5):
        inst = random_sparse_instance(6, 2, 20, 0.07, seed=seed)
        linear = inst.features.matrix @ inst.theta_star.coords
        assert np.max(np.abs(inst.rewards - linear)) <= 0.07


def test_serialization_round_trip_bit_exact(tmp_path):
    inst = random_sparse_instance(5, 2, 14, 0.1, seed=11)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.features.matrix, inst.features.matrix)
    assert np.array_equal(back.theta_star.coords, inst.theta_star.coords)
    assert np.array_equal(back.misspec, inst.misspec)
    assert back.epsilon == inst.epsilon
    # serialize again: byte-identical file
    path2 = tmp_path / "inst2.txt"
    save_instance(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_reports_line_numbers(tmp_path):
    inst = random_sparse_instance(4, 1, 8, 0.1, seed=0)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    lines = path.read_text().splitlines()
    lines[10] = "not a number at all"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(InstanceParseError, match="line 11"):
        load_instance(bad)


@pytest.mark.parametrize("extra, message", [
    ("noize gaussian", "line 9: key 'noize': unknown key"),
    ("epsilon 0.5", "line 9: duplicate key 'epsilon'"),
])
def test_load_rejects_unknown_and_duplicate_header_keys(tmp_path, extra, message):
    inst = random_sparse_instance(4, 1, 8, 0.1, seed=0)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    lines = path.read_text().splitlines()
    assert lines[7] == "seed 0" and lines[8] == "phi"
    lines.insert(8, extra)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(InstanceParseError, match=message):
        load_instance(bad)


def edited_instance_file(tmp_path, edit):
    """A saved instance whose header lines pass through ``edit`` first."""
    inst = random_sparse_instance(4, 1, 8, 0.1, seed=0)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    lines = path.read_text().splitlines()
    assert lines[7] == "seed 0" and lines[8] == "phi"
    edit(lines)
    bad = tmp_path / "edited.txt"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def test_load_rejects_a_negative_noise_seed(tmp_path):
    def negative(lines):
        lines[5], lines[7] = "noise gaussian", "seed -1"
    with pytest.raises(InstanceParseError, match="line 8: bad value for 'seed': seed must be >= 0, got -1"):
        load_instance(edited_instance_file(tmp_path, negative))


def bypass_flag_file(tmp_path, flag):
    return edited_instance_file(
        tmp_path, lambda lines: lines.insert(8, f"theta_norm_bypassed {flag}"))


@pytest.mark.parametrize("flag", ["yes", "true", "2", "01"])
def test_load_accepts_only_0_or_1_as_the_norm_bypass_flag(tmp_path, flag):
    message = (f"line 9: bad value for 'theta_norm_bypassed': "
               f"expected 0 or 1, got '{flag}'")
    with pytest.raises(InstanceParseError, match=message):
        load_instance(bypass_flag_file(tmp_path, flag))
    assert not load_instance(bypass_flag_file(tmp_path, "0")).theta_norm_bypassed
    assert load_instance(bypass_flag_file(tmp_path, "1")).theta_norm_bypassed


def test_corrupted_misspec_fails_validation(tmp_path):
    inst = random_sparse_instance(4, 1, 8, 0.1, seed=0)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    lines = path.read_text().splitlines()
    nu_row = lines.index("nu") + 1
    vals = lines[nu_row].split()
    vals[0] = "0.5"
    lines[nu_row] = " ".join(vals)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(MisspecificationBoundError):
        load_instance(bad)


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel(kind="laplace")
