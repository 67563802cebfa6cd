"""Tests for subset elimination with design-based estimates."""

import hashlib
import math
from operator import itemgetter

import numpy as np
import pytest
from helpers import subset_elimination_reference

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


def gap(found):
    """A gap search's (primary, rivals, actions) as plain lists; None as is."""
    if found is None:
        return None
    m, rivals, actions = found
    return m, rivals.tolist(), actions.tolist()


def test_gap_scan_threshold_is_strict():
    preds = np.array([[0.0, 0.0], [0.0, 1.0]])
    alive = np.ones(2, dtype=bool)
    assert first_prediction_gap(preds, alive, 1.0) is None  # gap == threshold
    assert gap(first_prediction_gap(preds, alive, 0.999)) == (0, [1], [1])


def test_gap_scan_order_is_lexicographic():
    preds = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    alive = np.ones(3, dtype=bool)
    assert gap(first_prediction_gap(preds, alive, 1.0)) == (0, [1, 2], [0, 1])
    alive[1] = False
    assert gap(first_prediction_gap(preds, alive, 1.0)) == (0, [2], [1])


def test_rival_start_skips_rivals_of_the_start_primary_only():
    # 0 and 2 agree, 1 disagrees with both on action 0
    preds = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    alive = np.ones(3, dtype=bool)
    assert gap(first_prediction_gap(preds, alive, 1.0)) == (0, [1], [0])
    # primary 0 resumes at rival 2 and finds no gap; primary 1 scans from rival 0
    assert gap(first_prediction_gap(preds, alive, 1.0, 0, 2)) == (1, [0, 2], [0, 0])
    assert gap(first_prediction_gap(preds, alive, 1.0, 1, 2)) == (1, [2], [0])
    assert gap(first_prediction_gap(preds, alive, 1.0, 0, 3)) == (1, [0, 2], [0, 0])
    # a dead start primary passes its rival cursor on to no one
    preds = np.vstack([preds, preds[2]])
    alive = np.array([False, True, True, True])
    assert gap(first_prediction_gap(preds, alive, 1.0, 0, 3)) == (1, [2, 3], [0, 0])
    preds[2:] = preds[1]
    assert first_prediction_gap(preds, alive, 1.0, 0, 3) is None


def test_rival_blocks_count_alive_rivals_of_the_primary_only():
    block = design_elim.RIVAL_BLOCK
    preds = np.zeros((3 * block, 4))
    alive = np.ones(len(preds), dtype=bool)
    alive[[0, 1, 2, 3, 4, 10, 11]] = False      # primary 5 comes first
    # primary 5's alive rivals: 6-9, then 12 on; its first block ends at
    # rival block + 7, the second starts at block + 8
    last, next_first = block + 7, block + 8
    preds[7] = [0.0, 2.0, 0.0, 0.0]
    preds[10] = [2.0, 0.0, 0.0, 0.0]            # dead: never a rival
    preds[last] = [0.0, 0.5, 2.0, -3.0]         # first gap action 2
    preds[next_first] = [-2.0, 0.0, 0.0, 0.0]
    assert gap(first_prediction_gap(preds, alive, 1.0)) == (5, [7, last], [1, 2])
    # resuming at a rival with a gap includes it and nothing before it
    assert gap(first_prediction_gap(preds, alive, 1.0, 5, last)) == (
        5, [last, next_first], [2, 0])
    assert gap(first_prediction_gap(preds, alive, 1.0, 5, next_first)) == (
        5, [next_first], [0])
    # past primary 5's last gap, primary 6 scans from rival 0, 5 included
    assert gap(first_prediction_gap(preds, alive, 1.0, 5, next_first + 1)) == (
        6, [7, last], [1, 2])
    alive[[7, last]] = False
    assert gap(first_prediction_gap(preds, alive, 1.0, 5)) == (5, [next_first], [0])


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


def test_a_shared_ledger_counts_only_the_runs_own_queries():
    """A run on a ledger that already holds entries reports the queries it
    added, in total and in phase 1, as a run on a fresh ledger does."""
    inst = random_sparse_instance(6, 2, 40, 0.1, seed=0)
    ledger = QueryLedger()
    first = run_design_elimination(inst, ledger)
    second = run_design_elimination(inst, ledger)
    assert (first.queries, first.phase1_queries) == (40, 30)
    assert (second.queries, second.phase1_queries) == (40, 30)
    assert len(ledger) == 80
    assert ledger.entries[40:] == ledger.entries[:40]


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


def assert_matches_the_reference(instance, monkeypatch=None):
    """Run design elimination and check its phase-2 queries and log against
    subset_elimination_reference; returns the result and, with
    monkeypatch, every gap search's (primary, rivals, alive count)."""
    searches = []
    if monkeypatch is not None:
        scan = design_elim.first_prediction_gap

        def recorded(preds, alive, *args):
            found = scan(preds, alive, *args)
            if found is not None:
                searches.append((found[0], found[1].tolist(), int(alive.sum())))
            return found

        monkeypatch.setattr(design_elim, "first_prediction_gap", recorded)
    ledger = QueryLedger()
    res = run_design_elimination(instance, ledger)
    queries, log = subset_elimination_reference(instance, res.subsets, res.estimates)
    assert ledger.entries[res.phase1_queries:] == queries
    pick = itemgetter("action", "reward", "primary", "rival", "killed")
    assert [(e.step,) + pick(e.fields) for e in res.log] == log
    return res, searches


def test_run_matches_a_restart_scan():
    cases = [(6, 1, 16, 0.1, seed) for seed in (1, 2)]
    cases += [(6, 2, 20, 0.05, seed) for seed in (0, 1)]
    cases += [(6, 3, 30, 0.05, 0), (6, 3, 30, 0.05, 2), (7, 3, 30, 0.03, 2)]
    # primaries 0-4 die against rival 5, then primary 5 kills rivals 6, 7, 8, ...
    cases += [(8, 2, 24, 0.05, 4)]
    resumed = 0
    for d, s, k, eps, seed in cases:
        res, _ = assert_matches_the_reference(random_sparse_instance(d, s, k, eps, seed=seed))
        assert len({e.fields["primary"] for e in res.log}) > 1   # the cursor moved
        pairs = [(e.fields["primary"], e.fields["rival"]) for e in res.log]
        resumed += sum(m == m_next and mp < mp_next
                       for (m, mp), (m_next, mp_next) in zip(pairs, pairs[1:]))
    assert resumed   # some step kept its primary and hit a later rival


def deaths_inside_a_block(res, searches):
    """Gap searches over more than RIVAL_BLOCK alive rivals whose primary
    died at a rival of the returned block after killing an earlier one."""
    found = 0
    for m, rivals, n_alive in searches:
        walked = [e.fields for e in res.log
                  if e.fields["primary"] == m and e.fields["rival"] in rivals]
        died = [i for i, fields in enumerate(walked) if m in fields["killed"]]
        found += (n_alive - 1 > design_elim.RIVAL_BLOCK and bool(died)
                  and 0 < died[0] and walked[died[0]]["rival"] != rivals[-1])
    return found


@pytest.mark.parametrize("d, s, k, probes, seeds, death_seed", [
    (40, 2, 500, True, range(10), 4), (16, 3, 300, False, [0], 0)],
    ids=["40-2-500-probes", "16-3-300-dense"])
def test_rival_blocks_match_the_reference_at_benchmark_scale(
        monkeypatch, d, s, k, probes, seeds, death_seed):
    """The benchmark's instances, including seed 4's many primaries that
    die early; at death_seed a primary dies inside a block of its rivals,
    after killing some of them, with more than RIVAL_BLOCK alive rivals."""
    inside = {}
    for seed in seeds:
        instance = random_sparse_instance(d, s, k, 0.1, seed, basis_probes=probes)
        res, searches = assert_matches_the_reference(instance, monkeypatch)
        inside[seed] = deaths_inside_a_block(res, searches)
        monkeypatch.undo()
    assert inside[death_seed] > 0


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
