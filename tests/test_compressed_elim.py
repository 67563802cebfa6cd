"""Tests for compressed-space action elimination."""

import math

import numpy as np
import pytest

from sparsebandit import NoiseModel, QueryLedger, build_instance, random_sparse_instance
from sparsebandit.compressed_elim import (
    compressed_uniform_error,
    noisy_threshold,
    run_benign_elimination,
)
from sparsebandit.compression import build_map
from sparsebandit.errors import ValidationError


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
