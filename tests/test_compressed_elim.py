"""Tests for compressed-space action elimination."""

import math

import numpy as np
import pytest

from sparsebandit import NoiseModel, QueryLedger, build_instance, random_sparse_instance
from sparsebandit import compressed_elim
from sparsebandit.compressed_elim import (
    compressed_uniform_error,
    noisy_threshold,
    run_benign_elimination,
)
from sparsebandit.compression import build_map, find_certified_map
from sparsebandit.errors import DimensionMismatchError, ValidationError


def test_identity_map_exact_linear_keeps_best():
    base = random_sparse_instance(8, 2, 24, 1e-9, seed=0)
    inst = build_instance(base.features, base.theta_star, np.zeros(base.k), 1e-9)
    cmap = build_map(8, 8, 0)
    res = run_benign_elimination(inst, cmap, n=500, ledger=QueryLedger())
    best = int(np.argmax(inst.rewards))
    assert best in res.surviving.tolist()
    assert res.soundness_ok
    err = compressed_uniform_error(inst, cmap, res.theta_f)
    assert err <= 1e-6


def test_error_bound_shape_noiseless():
    for seed in range(5):
        inst = random_sparse_instance(10, 2, 40, 0.1, seed=seed)
        cmap = build_map(10, 10, 0)
        res = run_benign_elimination(inst, cmap, n=2000, ledger=QueryLedger())
        err = compressed_uniform_error(inst, cmap, res.theta_f)
        unit = math.log(inst.k) ** 0.25 * math.sqrt(0.1) + 0.1
        assert err <= 10 * unit


def test_budget_compliance_and_monotone_active():
    inst = random_sparse_instance(10, 2, 40, 0.1, seed=7)
    cmap = build_map(10, 10, 0)
    ledger = QueryLedger()
    res = run_benign_elimination(inst, cmap, n=60, ledger=ledger)
    assert res.queries <= 60
    assert res.queries == len(ledger)
    sizes = ([r.fields["active_before"] for r in res.log]
             + [res.log[-1].fields["active_after"]])
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_budget_too_small_for_one_round():
    inst = random_sparse_instance(10, 2, 40, 0.1, seed=7)
    cmap = build_map(10, 10, 0)
    with pytest.raises(ValidationError, match="budget"):
        run_benign_elimination(inst, cmap, n=2, ledger=QueryLedger())


def test_noisy_threshold_monotone_in_queries():
    vals = [noisy_threshold(2.0, 50, 0.1, p=10, t=t, n=400) for t in (1, 5, 20, 100, 400)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_noisy_run_stays_within_budget_and_uses_noisy_threshold():
    inst = random_sparse_instance(10, 2, 30, 0.1, seed=3,
                                  noise=NoiseModel(kind="gaussian", seed=5))
    cmap = build_map(10, 10, 0)
    res = run_benign_elimination(inst, cmap, n=300, ledger=QueryLedger())
    assert res.queries <= 300
    noiseless = 2.0 * math.log(30) ** 0.25 * math.sqrt(0.1)
    assert res.final_threshold > noiseless
    assert all(r.fields["threshold"] > noiseless for r in res.log)


def test_row_indices_restriction_and_repeats():
    inst = random_sparse_instance(8, 2, 20, 0.1, seed=9)
    cmap = build_map(8, 8, 0)
    rows = np.array([0, 1, 2, 2, 5, 7, 11, 11])
    ledger = QueryLedger()
    res = run_benign_elimination(inst, cmap, n=200, ledger=ledger, row_indices=rows)
    assert set(res.surviving.tolist()) <= set(range(len(rows)))
    queried = {e[0] for e in ledger.entries}
    assert queried <= set(rows.tolist())


@pytest.mark.parametrize("rows, match", [
    ([], "non-empty"),
    ([25], r"\[0, 20\)"),
    ([-1, 3], r"\[0, 20\)"),
    ([0.5, 1], "integer"),
    ([[0, 1], [2, 3]], "1-d"),
], ids=["empty", "past-k", "negative", "fractional", "2-d"])
def test_bad_row_indices_raise_before_any_query(rows, match):
    inst = random_sparse_instance(8, 2, 20, 0.1, seed=9)
    ledger = QueryLedger()
    with pytest.raises(ValidationError, match=match):
        run_benign_elimination(inst, build_map(8, 8, 0), n=200, ledger=ledger,
                               row_indices=rows)
    assert len(ledger) == 0


def test_map_of_another_dimension_is_refused():
    inst = random_sparse_instance(8, 2, 20, 0.1, seed=9)
    with pytest.raises(DimensionMismatchError, match="map takes 10 features"):
        run_benign_elimination(inst, build_map(10, 10, 0), n=200,
                               ledger=QueryLedger())


# (40, 2, 60, 0.1) compressed to 12 dimensions at C 0.5: the clean run takes
# 3 rounds and the noisy one 6, so both have rounds after round 0
REUSE_POINT = (40, 2, 60, 0.1)


def _reuse_pair(seed=0):
    clean = random_sparse_instance(*REUSE_POINT, seed, basis_probes=False)
    noisy = random_sparse_instance(*REUSE_POINT, seed, basis_probes=False,
                                   noise=NoiseModel(kind="gaussian", seed=seed))
    return clean, noisy


def _run(inst, cmap, **kwargs):
    ledger = QueryLedger()
    res = run_benign_elimination(inst, cmap, 1200, ledger, C_const=0.5, **kwargs)
    return res, ledger


@pytest.fixture
def designed(monkeypatch):
    """The row counts of the blocks compressed_elim designs, in call order."""
    sizes = []
    solve = compressed_elim.frank_wolfe_design

    def counted(rows):
        sizes.append(len(rows))
        return solve(rows)

    monkeypatch.setattr(compressed_elim, "frank_wolfe_design", counted)
    return sizes


def test_clean_then_noisy_on_one_map_matches_fresh_maps(designed):
    clean, noisy = _reuse_pair()
    shared = build_map(40, 12, 1)
    reused = [_run(inst, shared) for inst in (clean, noisy)]
    fresh = [_run(inst, build_map(40, 12, 1)) for inst in (clean, noisy)]
    for (got, got_ledger), (want, want_ledger) in zip(reused, fresh):
        assert got.theta_f.tobytes() == want.theta_f.tobytes()
        assert got.theta_first.tobytes() == want.theta_first.tobytes()
        assert got.surviving.tolist() == want.surviving.tolist()
        assert got_ledger.entries == want_ledger.entries
        assert got.log == want.log
        assert (got.rounds, got.queries, got.final_threshold) == (
            want.rounds, want.queries, want.final_threshold)
    assert [res.rounds for res, _ in reused] == [3, 6]


def test_round0_is_designed_once_per_map_and_later_rounds_every_time(designed):
    clean, noisy = _reuse_pair()
    cmap = build_map(40, 12, 1)
    first, _ = _run(clean, cmap)
    second, _ = _run(noisy, cmap)
    assert len(designed) == first.rounds + second.rounds - 1
    # one block of all 60 rows; the noisy run designs only its later rounds
    assert designed.count(60) == 1
    assert designed[0] == 60
    later = [event.fields["active_before"] for event in second.log[1:]]
    assert designed[first.rounds:] == later


def test_other_row_indices_miss(designed):
    clean, noisy = _reuse_pair()
    cmap = build_map(40, 12, 1)
    _run(clean, cmap)
    calls = len(designed)
    res, _ = _run(noisy, cmap, row_indices=np.arange(60)[::-1])
    assert designed.count(60) == 2
    assert len(designed) - calls == res.rounds


def test_other_features_miss(designed):
    clean, _ = _reuse_pair()
    other, _ = _reuse_pair(seed=1)
    cmap = build_map(40, 12, 1)
    first, _ = _run(clean, cmap)
    second, _ = _run(other, cmap)
    assert designed.count(60) == 2
    assert len(designed) == first.rounds + second.rounds


def test_second_certified_map_misses(designed):
    clean, noisy = _reuse_pair()
    upsilon = math.log(60) ** 0.25 * math.sqrt(0.1)
    maps = [find_certified_map(40, 12, clean.features.matrix,
                               clean.theta_star.coords, upsilon)
            for _ in range(2)]
    # the same map twice, each with a store of its own
    assert maps[0].matrix.tobytes() == maps[1].matrix.tobytes()
    assert maps[0].seed == maps[1].seed
    first, _ = _run(clean, maps[0])
    second, _ = _run(noisy, maps[1])
    assert designed.count(60) == 2
    assert len(designed) == first.rounds + second.rounds


def test_rows_differing_only_in_a_zero_sign_miss(designed):
    cmap = build_map(3, 3, 0)
    block = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                      [0.6, 0.8, 0.0]])
    signed = block.copy()
    signed[3, 2] = -0.0
    assert np.array_equal(block, signed)
    first = compressed_elim._round0_design(cmap, block)
    assert compressed_elim._round0_design(cmap, block) is first
    assert len(designed) == 1
    compressed_elim._round0_design(cmap, signed)
    assert len(designed) == 2
