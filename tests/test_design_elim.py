"""Tests for subset elimination with design-based estimates."""

import hashlib
import math
from operator import itemgetter

import numpy as np
import pytest

from sparsebandit import (
    QueryLedger,
    build_instance,
    design_elim,
    random_sparse_instance,
    uniform_error,
)
from sparsebandit.design_elim import (
    first_prediction_gap,
    query_bound,
    run_design_elimination,
)
from sparsebandit.errors import GuardExceededError


def test_exact_linear_instance_recovers_truth():
    base = random_sparse_instance(5, 2, 18, 1e-6, seed=0)
    inst = build_instance(base.features, base.theta_star, np.zeros(base.k), 1e-6)
    res = run_design_elimination(inst, QueryLedger())
    supp = base.theta_star.support
    est = res.estimates[supp]
    assert np.max(np.abs(est - base.theta_star.coords[list(supp)])) < 1e-8
    assert uniform_error(inst, res.predictions) <= 3 * inst.epsilon * (1 + math.sqrt(4)) + 1e-9


def test_gap_scan_threshold_is_strict():
    preds = np.array([[0.0, 0.0], [0.0, 1.0]])
    alive = np.ones(2, dtype=bool)
    assert first_prediction_gap(preds, alive, 1.0) is None  # gap == threshold
    assert first_prediction_gap(preds, alive, 0.999) == (0, 1, 1)


def test_gap_scan_order_is_lexicographic():
    preds = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    alive = np.ones(3, dtype=bool)
    assert first_prediction_gap(preds, alive, 1.0) == (0, 1, 0)
    alive[1] = False
    assert first_prediction_gap(preds, alive, 1.0) == (0, 2, 1)


def test_rival_start_skips_rivals_of_the_start_primary_only():
    # 0 and 2 agree, 1 disagrees with both on action 0
    preds = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    alive = np.ones(3, dtype=bool)
    assert first_prediction_gap(preds, alive, 1.0) == (0, 1, 0)
    # primary 0 resumes at rival 2 and finds no gap; primary 1 scans from rival 0
    assert first_prediction_gap(preds, alive, 1.0, 0, 2) == (1, 0, 0)
    assert first_prediction_gap(preds, alive, 1.0, 1, 2) == (1, 2, 0)
    assert first_prediction_gap(preds, alive, 1.0, 0, 3) == (1, 0, 0)
    # a dead start primary passes its rival cursor on to no one
    preds = np.vstack([preds, preds[2]])
    alive = np.array([False, True, True, True])
    assert first_prediction_gap(preds, alive, 1.0, 0, 3) == (1, 2, 0)
    preds[2:] = preds[1]
    assert first_prediction_gap(preds, alive, 1.0, 0, 3) is None


def test_runs_meet_error_and_query_bounds():
    for seed in range(10):
        inst = random_sparse_instance(5, 2, 20, 0.05, seed=seed)
        ledger = QueryLedger()
        res = run_design_elimination(inst, ledger)
        bound = 3 * inst.epsilon * (1 + math.sqrt(2 * inst.s))
        assert uniform_error(inst, res.predictions) <= bound + 1e-9
        assert uniform_error(inst, res.predictions) <= 0.45 + 1e-9
        assert len(ledger) == res.queries <= query_bound(5, 2)
        # ground-truth subset survives
        m_star = res.subsets.index(inst.theta_star.support)
        assert res.alive[m_star]


def test_one_sparse_runs():
    for seed in range(5):
        inst = random_sparse_instance(6, 1, 16, 0.1, seed=seed)
        res = run_design_elimination(inst, QueryLedger())
        bound = 3 * inst.epsilon * (1 + math.sqrt(2))
        assert uniform_error(inst, res.predictions) <= bound + 1e-9
        assert res.alive[res.subsets.index(inst.theta_star.support)]


def test_phase_two_progress():
    inst = random_sparse_instance(5, 2, 20, 0.05, seed=3)
    res = run_design_elimination(inst, QueryLedger())
    removed = sum(len(step.fields["killed"]) for step in res.log)
    assert removed == len(res.subsets) - int(res.alive.sum())
    assert all(len(step.fields["killed"]) >= 1 for step in res.log)
    assert res.queries - res.phase1_queries == len(res.log)
    assert res.queries - res.phase1_queries <= math.comb(5, 2)


def test_determinism():
    inst = random_sparse_instance(5, 2, 18, 0.08, seed=9)
    r1 = run_design_elimination(inst, QueryLedger())
    r2 = run_design_elimination(inst, QueryLedger())
    assert r1.index_set == r2.index_set
    assert np.array_equal(r1.theta_hat, r2.theta_hat)
    assert r1.log == r2.log


def test_guard():
    inst = random_sparse_instance(30, 5, 60, 0.1, seed=0)   # C(30,5) = 142,506
    with pytest.raises(GuardExceededError):
        run_design_elimination(inst, QueryLedger())


def restart_scan_log(instance, res):
    """Reference run: each step rescans every alive (m, mp, x) from subset 0
    with a plain nested loop and applies the same kill rule to predictions
    rebuilt from the run's phase-1 estimates."""
    phi = instance.features.matrix
    preds = np.array([phi[:, list(subset)] @ res.estimates[subset]
                      for subset in res.subsets])
    kill_thr = instance.epsilon * (1.0 + math.sqrt(2.0 * instance.s))
    n_sub = len(res.subsets)
    alive = [True] * n_sub
    log = []
    while True:
        hit = next(((m, mp, x) for m in range(n_sub) for mp in range(n_sub)
                    for x in range(instance.k)
                    if m != mp and alive[m] and alive[mp]
                    and abs(preds[mp, x] - preds[m, x]) > 2.0 * kill_thr), None)
        if hit is None:
            return log
        m, mp, x = hit
        reward = float(instance.rewards[x])
        if abs(reward - preds[m, x]) <= kill_thr:
            killed = (mp,)
        elif abs(reward - preds[mp, x]) > kill_thr:
            killed = (m, mp)
        else:
            killed = (m,)
        for i in killed:
            alive[i] = False
        log.append((len(log), x, reward, m, mp, killed))


def test_run_matches_a_restart_scan():
    cases = [(6, 1, 16, 0.1, seed) for seed in (1, 2)]
    cases += [(6, 2, 20, 0.05, seed) for seed in (0, 1)]
    cases += [(6, 3, 30, 0.05, 0), (6, 3, 30, 0.05, 2), (7, 3, 30, 0.03, 2)]
    # primaries 0-4 die against rival 5, then primary 5 kills rivals 6, 7, 8, ...
    cases += [(8, 2, 24, 0.05, 4)]
    pick = itemgetter("action", "reward", "primary", "rival", "killed")
    resumed = 0
    for d, s, k, eps, seed in cases:
        inst = random_sparse_instance(d, s, k, eps, seed=seed)
        res = run_design_elimination(inst, QueryLedger())
        got = [(e.step,) + pick(e.fields) for e in res.log]
        assert got == restart_scan_log(inst, res)
        assert len({e.fields["primary"] for e in res.log}) > 1   # the cursor moved
        pairs = [(e.fields["primary"], e.fields["rival"]) for e in res.log]
        resumed += sum(m == m_next and mp < mp_next
                       for (m, mp), (m_next, mp_next) in zip(pairs, pairs[1:]))
    assert resumed   # some step kept its primary and hit a later rival


# sha256 of design elimination's phase-1 predictions (the (C(d,s), k) float64
# array, C order) and of the repr of its phase-1 ledger entries, epsilon 0.1,
# seed 0, recorded with one design and one estimate per subset, before they
# were computed in stacks. At (40, 2, 500) every subset's design is its two
# basis probes; without probes, (16, 3, 300) has three-atom designs over
# dense rows, where the order in which an estimate sums its support shows.
PHASE1_GOLDEN = [
    ((40, 2, 500, True),
     "5a2533acb511079a5d9fb1be971128d0b18c94637a5be18ffcc898f2939b7dfc",
     "b1cb0c7433ea996c56c69a2c6430d00926868e7d56bbfe0a6041092ecb2a9b85"),
    ((16, 3, 300, False),
     "aa66890aced224bbce8ebc89eb703a7ae8100b8599415af3335705dc1f15a848",
     "5bd229187e5200a9c53cf51792eb5672493ef8fe3eca7768c014b96832aa214c"),
]


@pytest.mark.parametrize("case, preds_sha256, ledger_sha256", PHASE1_GOLDEN,
                         ids=["40-2-500-probes", "16-3-300-dense"])
def test_phase_one_is_byte_identical_to_the_golden_digests(
        monkeypatch, case, preds_sha256, ledger_sha256):
    d, s, k, probes = case
    seen = []
    scan = design_elim.first_prediction_gap

    def first_preds(preds, *args):
        if not seen:
            seen.append(preds.copy())
        return scan(preds, *args)

    monkeypatch.setattr(design_elim, "first_prediction_gap", first_preds)
    ledger = QueryLedger()
    instance = random_sparse_instance(d, s, k, 0.1, 0, basis_probes=probes)
    res = run_design_elimination(instance, ledger)
    assert seen[0].shape == (math.comb(d, s), k)
    assert hashlib.sha256(seen[0].tobytes()).hexdigest() == preds_sha256
    entries = repr(ledger.entries[:res.phase1_queries]).encode()
    assert hashlib.sha256(entries).hexdigest() == ledger_sha256
