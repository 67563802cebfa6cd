"""Tests for the parameter-elimination algorithm."""

import math
from operator import itemgetter

import numpy as np
import pytest
from helpers import first_alive, first_violation_oracle

from sparsebandit import (
    QueryLedger,
    build_instance,
    build_separated_net,
    include_point,
    random_sparse_instance,
    uniform_error,
)
from sparsebandit import param_elim
from sparsebandit.errors import GuardExceededError
from sparsebandit.param_elim import (
    Envelope,
    build_candidate_sets,
    mark_ground_truth,
    pair_first_violation,
    run_parameter_elimination,
)


def brute_force_violation(cand):
    """First violating (m, t, w, mp, tp, x) over fresh families by a direct
    nested-loop scan in the documented order, or None."""
    alive = cand.fresh_alive()
    h = 0.5 * cand.epsilon
    thr = 2.5 * cand.epsilon
    P, W = cand.projections, cand.anchors
    k = P.shape[1]
    for m in range(cand.n_subsets):
        for t in range(cand.n_net):
            if not alive[m, t]:
                continue
            for w in range(cand.n_net):
                c = W[w, t]
                for mp in range(cand.n_subsets):
                    for tp in range(cand.n_net):
                        if (mp, tp) == (m, t) or not alive[mp, tp]:
                            continue
                        for x in range(k):
                            if abs(P[m, x, t] - c) <= h and abs(P[mp, x, tp] - c) > thr:
                                return (m, t, w, mp, tp, x)
    return None


def assert_first_step_is_brute_force(instance, net):
    """The run's first query is the brute-force scan's first violation; with
    none the run makes no query."""
    res = run_parameter_elimination(instance, QueryLedger(), net=net)
    want = brute_force_violation(res.candidates)
    if want is None:
        assert res.queries == 0 and res.log == []
        return None
    m, t, w, mp, tp, x = want
    step = res.log[0].fields
    assert (step["action"], step["primary"], step["rival"], step["anchor"]) == (
        x, (m, t), (mp, tp), float(res.candidates.anchors[w, t]))
    return want


def seeded_net_for(instance, seed=0, pool_size=2000):
    net = build_separated_net(instance.s, instance.epsilon, seed, pool_size=pool_size)
    supp = list(instance.theta_star.support)
    restriction = instance.theta_star.coords[supp]
    return include_point(net, restriction)


def test_triple_counting_minimal_case():
    inst = build_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], [0.0, 0.0], 1.0)
    net = build_separated_net(1, 1.0, seed=0)
    cand = build_candidate_sets(inst.features, net)
    assert cand.n_subsets == 2 and cand.n_net == 2
    assert cand.n_triples == 8


def test_group_contains_action_matching_anchor():
    inst = random_sparse_instance(4, 2, 16, 0.3, seed=1)
    net = build_separated_net(2, 0.3, seed=2, pool_size=500)
    cand = build_candidate_sets(inst.features, net)
    # plant an action whose restriction equals a net anchor exactly
    w_idx = 3
    m_idx = 1
    subset = cand.subsets[m_idx]
    row = np.zeros(4)
    row[list(subset)] = net.points[w_idx]
    phi = np.vstack([inst.features.matrix, row])
    inst2 = build_instance(phi, inst.theta_star.coords,
                           np.append(inst.misspec, 0.0), inst.epsilon)
    cand2 = build_candidate_sets(inst2.features, net)
    planted = inst2.k - 1
    P, W = cand2.projections, cand2.anchors
    for t_idx in range(cand2.n_net):
        assert abs(P[m_idx, planted, t_idx] - W[w_idx, t_idx]) <= 0.5 * cand2.epsilon


def test_group_membership_matches_direct_scan():
    inst = random_sparse_instance(5, 2, 14, 0.4, seed=3)
    net = build_separated_net(2, 0.4, seed=4, pool_size=400)
    cand = build_candidate_sets(inst.features, net)
    h = 0.5 * cand.epsilon
    P, W = cand.projections, cand.anchors
    phi = inst.features.matrix
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(cand.n_subsets))
        t = int(rng.integers(cand.n_net))
        w = int(rng.integers(cand.n_net))
        direct = [phi[x, list(cand.subsets[m])] @ net.points[t] for x in range(inst.k)]
        anchor = net.points[w] @ net.points[t]
        assert np.allclose(P[m, :, t], direct, rtol=0.0, atol=1e-12)
        assert abs(W[w, t] - anchor) <= 1e-12
        got = set(np.flatnonzero(np.abs(P[m, :, t] - W[w, t]) <= h).tolist())
        want = {x for x in range(inst.k) if abs(direct[x] - anchor) <= h}
        assert got == want


def test_find_violation_none_when_groups_empty():
    # the lone action's restriction is far from every anchor value
    inst = build_instance([[0.6]], [0.9], [0.0], 0.5)
    net = build_separated_net(1, 0.5, seed=0)
    cand = build_candidate_sets(inst.features, net)
    near = np.abs(cand.projections[..., None] - cand.anchors.T) <= 0.5 * cand.epsilon
    assert not near.any()    # near[m, x, t, w]: x in the group of (m, t, w)
    assert assert_first_step_is_brute_force(inst, net) is None


def test_find_violation_fires_above_threshold():
    # gap between rival predictions is 1.0 > 5*eps/2 = 0.75
    inst = build_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], [0.0, 0.0], 0.3)
    net = build_separated_net(1, 0.3, seed=0)
    assert assert_first_step_is_brute_force(inst, net) is not None


def test_find_violation_matches_brute_force_scan():
    for seed in range(6):
        inst = random_sparse_instance(4, 1, 10, 0.3, seed=seed)
        assert_first_step_is_brute_force(inst, seeded_net_for(inst, seed=seed))
    for seed in range(3):
        inst = random_sparse_instance(4, 2, 10, 0.7, seed=seed)
        assert_first_step_is_brute_force(
            inst, seeded_net_for(inst, seed=seed, pool_size=300))


def restart_scan_log(instance, net):
    """Reference run: each step rescans every alive family from pair 0 with
    the definition oracle and applies the same kill rule."""
    cand = build_candidate_sets(instance.features, net)
    alive = cand.fresh_alive()
    log = []
    while True:
        hit = None
        for m, t in np.argwhere(alive).tolist():
            found = first_violation_oracle(cand.projections, cand.anchors, alive,
                                           m, t, cand.epsilon)
            if found is not None:
                hit = (m, t) + found
                break
        if hit is None:
            return log
        m, t, w, mp, tp, x = hit
        if abs(float(instance.rewards[x]) - cand.anchors[w, t]) > 1.5 * cand.epsilon:
            alive[m, t] = 0
            killed = "primary"
        else:
            alive[mp, tp] = 0
            killed = "rival"
        log.append((x, (m, t), (mp, tp), killed))


def test_run_matches_a_restart_scan():
    cases = [(random_sparse_instance(4, 1, 10, 0.3, seed=seed), seed, 2000)
             for seed in range(3)]
    cases += [(random_sparse_instance(4, 2, 12, 0.6, seed=seed), seed, 300)
              for seed in range(3)]
    cases.append((random_sparse_instance(5, 2, 16, 0.4, seed=7), 7, 600))
    pick = itemgetter("action", "primary", "rival", "killed")
    for inst, seed, pool in cases:
        net = seeded_net_for(inst, seed=seed, pool_size=pool)
        res = run_parameter_elimination(inst, QueryLedger(), net=net)
        got = [pick(e.fields) for e in res.log]
        assert got == restart_scan_log(inst, net)
        assert len(got) > 0


def fresh_scan(cand, alive):
    """First violating (m, t, w, mp, tp, x) over every alive primary from
    pair 0, each tested by ``pair_first_violation`` against an envelope built
    afresh for ``alive``; None if there is none."""
    envelope = Envelope(cand.projections, alive)
    for m, t in np.argwhere(alive).tolist():
        hit = first_alive(pair_first_violation(cand.projections, cand.anchors,
                                               alive, m, t, cand.epsilon, envelope),
                          alive)
        if hit is not None:
            return (m, t) + hit
    return None


def test_each_step_is_a_fresh_scan_and_only_an_exhausted_list_searches(monkeypatch):
    """Replays every run step by step against a fresh scan, and sorts each
    step after the first by how the scan got there: the same primary at the
    same anchor (the rival list walked on), the primary surviving but its list
    exhausted (a later anchor or primary), or the primary killed. Only the
    last two may search anchors."""
    searches, marks = [], []        # marks: searches made before each query
    search, query = param_elim.pair_first_violation, param_elim.query

    def counting_search(*args):
        searches.append(args[3:5])
        return search(*args)

    def marking_query(*args):
        marks.append(len(searches))
        return query(*args)

    monkeypatch.setattr(param_elim, "pair_first_violation", counting_search)
    monkeypatch.setattr(param_elim, "query", marking_query)
    cases = [(random_sparse_instance(4, 2, 12, 0.6, seed=seed), seed, 300)
             for seed in range(3)]
    cases.append((random_sparse_instance(5, 2, 16, 0.4, seed=7), 7, 600))
    branches = {"walk": 0, "exhausted": 0, "primary killed": 0}
    for inst, seed, pool in cases:
        net = seeded_net_for(inst, seed=seed, pool_size=pool)
        searches.clear()
        marks.clear()
        res = run_parameter_elimination(inst, QueryLedger(), net=net)
        cand = res.candidates
        alive = cand.fresh_alive()
        previous = None
        for i, event in enumerate(res.log):
            m, t, w, mp, tp, x = fresh_scan(cand, alive)
            step = event.fields
            assert (step["action"], step["primary"], step["rival"], step["anchor"]) == (
                x, (m, t), (mp, tp), float(cand.anchors[w, t]))
            searched = marks[i] - (marks[i - 1] if i else 0)
            if previous is not None:
                last, last_w, killed = previous
                if killed == "primary":
                    branches["primary killed"] += 1
                    assert searched >= 1
                elif last == (m, t) and last_w == w:
                    branches["walk"] += 1
                    assert searched == 0
                else:
                    branches["exhausted"] += 1
                    assert searched >= 1
            alive[step[step["killed"]]] = 0
            previous = ((m, t), w, step["killed"])
        assert fresh_scan(cand, alive) is None
    assert min(branches.values()) > 0, branches


def test_rival_list_is_built_once_per_hitting_anchor_search(monkeypatch):
    """The walk follows the list the anchor search returned, so each search
    that hits builds one rival list and a search that misses builds none."""
    hits, lists = [], []
    search, build = param_elim.pair_first_violation, param_elim.rival_list

    def counting_search(*args):
        hit = search(*args)
        hits.append(hit is not None)
        return hit

    def counting_list(*args):
        lists.append(args[2:5])
        return build(*args)

    monkeypatch.setattr(param_elim, "pair_first_violation", counting_search)
    monkeypatch.setattr(param_elim, "rival_list", counting_list)
    for seed in range(3):
        inst = random_sparse_instance(4, 2, 12, 0.6, seed=seed)
        hits.clear()
        lists.clear()
        run_parameter_elimination(inst, QueryLedger(),
                                  net=seeded_net_for(inst, seed=seed, pool_size=300))
        assert sum(hits) > 0 and not all(hits)
        assert len(lists) == sum(hits)


def test_degenerate_runs_match_a_restart_scan():
    """Duplicated action rows (with their own misspecification), s = d, and
    epsilon = 2, where no violation can exist."""
    base = random_sparse_instance(4, 2, 12, 0.6, seed=4)
    phi = np.vstack([base.features.matrix, base.features.matrix[:6]])
    nu = np.concatenate([base.misspec, -base.misspec[:6]])
    duplicated = build_instance(phi, base.theta_star.coords, nu, base.epsilon)
    cases = [(duplicated, 4, 300),
             (random_sparse_instance(2, 2, 10, 0.3, seed=2), 2, 2000),
             (random_sparse_instance(3, 3, 12, 0.6, seed=5), 5, 2000),
             (random_sparse_instance(4, 1, 10, 2.0, seed=3), 3, 2000),
             (random_sparse_instance(3, 2, 10, 2.0, seed=6), 6, 300)]
    pick = itemgetter("action", "primary", "rival", "killed")
    lengths = []
    for inst, seed, pool in cases:
        net = seeded_net_for(inst, seed=seed, pool_size=pool)
        res = run_parameter_elimination(inst, QueryLedger(), net=net)
        got = [pick(e.fields) for e in res.log]
        assert got == restart_scan_log(inst, net)
        assert uniform_error(inst, res.predictions) <= 4 * inst.epsilon + 1e-9
        lengths.append(len(got))
    assert min(lengths[:3]) > 0 and lengths[3:] == [0, 0]


def test_run_with_huge_epsilon_is_vacuous():
    inst = random_sparse_instance(4, 1, 10, 1.9, seed=5)
    net = seeded_net_for(inst, seed=5)
    res = run_parameter_elimination(inst, QueryLedger(), net=net)
    assert res.queries <= 2
    assert uniform_error(inst, res.predictions) <= 4 * inst.epsilon + 1e-9


def test_run_guarantees_error_and_query_bounds():
    for seed in range(8):
        inst = random_sparse_instance(4, 1, 12, 0.1, seed=seed)
        net = seeded_net_for(inst, seed=seed)
        ledger = QueryLedger()
        res = run_parameter_elimination(inst, ledger, net=net)
        assert uniform_error(inst, res.predictions) <= 4 * inst.epsilon + 1e-9
        assert res.queries == len(ledger)
        assert res.queries <= net.size * math.comb(4, 1)
        assert res.queries <= (4 / inst.epsilon + 1) ** 1 * math.comb(4, 1)
        assert mark_ground_truth(res, inst)


def test_run_two_sparse_instance():
    inst = random_sparse_instance(4, 2, 14, 0.2, seed=11)
    net = seeded_net_for(inst, seed=11, pool_size=3000)
    ledger = QueryLedger()
    res = run_parameter_elimination(inst, ledger, net=net)
    assert uniform_error(inst, res.predictions) <= 4 * inst.epsilon + 1e-9
    assert res.queries <= net.size * math.comb(4, 2)
    assert mark_ground_truth(res, inst)
    # progress invariant: one family killed per query
    assert int(res.alive.sum()) == res.candidates.n_pairs - res.queries


def test_run_norm_point_nine_example():
    # ground truth 0.9*e2; net seeded with the normalized restriction
    rng = np.random.default_rng(7)
    extra = rng.normal(size=(4, 4))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    phi = np.vstack([np.eye(4), -np.eye(4), extra])
    theta = np.array([0.0, 0.9, 0.0, 0.0])
    nu = rng.uniform(-0.1, 0.1, size=12)
    inst = build_instance(phi, theta, nu, 0.1)
    net = include_point(build_separated_net(1, 0.1, seed=0), [1.0])
    res = run_parameter_elimination(inst, QueryLedger(), net=net)
    assert uniform_error(inst, res.predictions) <= 0.4
    assert np.array_equal(
        res.predictions, inst.features.matrix[:, list(res.index_set)] @ res.theta_hat)


def test_run_is_deterministic():
    inst = random_sparse_instance(5, 1, 12, 0.15, seed=2)
    net = seeded_net_for(inst, seed=2)
    r1 = run_parameter_elimination(inst, QueryLedger(), net=net)
    r2 = run_parameter_elimination(inst, QueryLedger(), net=net)
    assert r1.log == r2.log
    assert r1.index_set == r2.index_set
    assert np.array_equal(r1.theta_hat, r2.theta_hat)


def test_desk_scale_guard():
    inst = random_sparse_instance(16, 2, 34, 0.01, seed=0)
    net = build_separated_net(2, 0.01, seed=0, pool_size=200_000)
    with pytest.raises(GuardExceededError):
        build_candidate_sets(inst.features, net)
