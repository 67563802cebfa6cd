"""Acceptance suite: every guarantee the library promises, at its stated
tolerance, one pass/fail line per criterion (run with -s to see them all).

The two bound constants below were frozen after one calibration sweep and
must not be re-tuned per run; the compressed-elimination and pipeline tests
print their worst measured ratios under -s.
"""

import math
from dataclasses import replace

import numpy as np
from helpers import sparse_minimax_oracle, worst_case_misspecification

from sparsebandit import (
    NoiseModel,
    QueryLedger,
    build_instance,
    build_separated_net,
    design,
    design_elim,
    include_point,
    param_elim,
    query,
    random_sparse_instance,
    sparse_recovery,
    uniform_error,
)
from sparsebandit.compressed_elim import (
    compressed_uniform_error,
    noisy_threshold,
    run_benign_elimination,
)
from sparsebandit.compression import choose_target_dim, find_certified_map
from sparsebandit.design import (
    core_set_bound,
    design_for_subsets,
    estimate_parameter,
    frank_wolfe_design,
    subset_blocks,
)
from sparsebandit.design_elim import run_design_elimination
from sparsebandit.errors import CertificationError
from sparsebandit.hardness import (
    PAIRWISE_TOL,
    HardMatrixSpec,
    embed_index_query,
    generate_validated,
    k_threshold,
    normalize_and_validate,
    random_search,
    sample_raw_matrix,
)
from sparsebandit.param_elim import run_parameter_elimination
from sparsebandit.sparse_recovery import run_general_features, sparse_linf_recover

ARITH_TOL = 1e-9

# frozen by the calibration sweep: worst measured ratios were 1.016
# (compressed, noisy) and 0.246 (pipeline)
KAPPA_COMPRESSED = 2.0
KAPPA_PIPELINE = 0.5


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _grid_instances():
    cells = [(d, s, eps) for d in (3, 4, 5) for s in (1, 2)
             for eps in (0.05, 0.1)]
    combos = [(d, s, eps, seed) for seed in range(5) for (d, s, eps) in cells]
    for d, s, eps, seed in combos[:50]:
        yield random_sparse_instance(d, s, 2 * d + 10, eps, seed=seed), seed


def _seeded_net(instance, seed):
    net = build_separated_net(instance.s, instance.epsilon, seed)
    restriction = instance.theta_star.coords[list(instance.theta_star.support)]
    return include_point(net, restriction)


def test_parameter_elimination_uniform_error_and_queries():
    worst = worst_nu = 0.0
    for instance, seed in _grid_instances():
        ledger = QueryLedger()
        net = _seeded_net(instance, seed)
        res = run_parameter_elimination(instance, ledger, net=net)
        eps, d, s = instance.epsilon, instance.d, instance.s
        err = uniform_error(instance, res.predictions)
        assert err <= 4 * eps + ARITH_TOL, (d, s, eps, seed)
        assert len(ledger) <= (4 / eps + 1) ** s * math.comb(d, s)
        adversarial, _ = worst_case_misspecification(instance, ledger, res.predictions)
        assert adversarial <= 4 * eps + ARITH_TOL, (d, s, eps, seed)
        worst = max(worst, err / (4 * eps))
        worst_nu = max(worst_nu, adversarial / (4 * eps))
    _report("parameter elimination: uniform error within 4*eps, also for the "
            "worst nu, and query bound on 50 seeded instances", True,
            f"worst error/bound = {worst:.3f}, worst over nu {worst_nu:.3f}")


def test_subset_elimination_error_queries_and_truth_survival():
    worst = worst_nu = 0.0
    for instance, seed in _grid_instances():
        ledger = QueryLedger()
        res = run_design_elimination(instance, ledger)
        eps, d, s = instance.epsilon, instance.d, instance.s
        bound = 3 * eps * (1 + math.sqrt(2 * s))
        err = uniform_error(instance, res.predictions)
        assert err <= bound + ARITH_TOL, (d, s, eps, seed)
        assert len(ledger) <= (core_set_bound(s) + 1) * math.comb(d, s)
        assert res.alive[res.subsets.index(instance.theta_star.support)], \
            (d, s, eps, seed)
        adversarial, _ = worst_case_misspecification(instance, ledger, res.predictions)
        assert adversarial <= bound + ARITH_TOL, (d, s, eps, seed)
        worst = max(worst, err / bound)
        worst_nu = max(worst_nu, adversarial / bound)
    _report("subset elimination: error within 3*eps*(1+sqrt(2s)), also for "
            "the worst nu, query bound, true support survives on 50 "
            "instances", True,
            f"worst error/bound = {worst:.3f}, worst over nu {worst_nu:.3f}")


def test_design_certificates_on_random_matrices():
    rng = np.random.default_rng(90)
    worst_g = 0.0
    for _ in range(100):
        s = int(rng.integers(1, 9))
        k = int(rng.integers(s + 1, 501))
        rows = rng.normal(size=(k, s))
        rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1.0)
        design = frank_wolfe_design(rows)
        assert design.g_value <= 2 * s * (1 + 1e-6)
        assert len(design.support) <= core_set_bound(s)
        hist = design.g_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        worst_g = max(worst_g, design.g_value / (2 * s))
    _report("experimental design: g <= 2s, core-set support bound, monotone "
            "objective on 100 random matrices", True,
            f"worst g/(2s) = {worst_g:.3f}")


def test_estimator_certificate_on_true_support():
    worst = 0.0
    for instance, seed in _grid_instances():
        supp = list(instance.theta_star.support)
        blocks = subset_blocks(instance.features.matrix, [supp])
        theta_hat, = estimate_parameter(instance, blocks, design_for_subsets(blocks),
                                        QueryLedger())
        preds = instance.features.matrix[:, supp] @ theta_hat
        truth = instance.features.matrix @ instance.theta_star.coords
        err = float(np.max(np.abs(preds - truth)))
        bound = instance.epsilon * math.sqrt(2 * instance.s)
        assert err <= bound + ARITH_TOL, (instance.d, instance.s, seed)
        worst = max(worst, err / bound)
    _report("design estimator: uniform error within eps*sqrt(2s) on the true "
            "support, every seed", True, f"worst error/bound = {worst:.3f}")


def test_compression_certificates_found_within_retries():
    d = 1024
    successes = trials = 0
    for case in range(20):
        rng = np.random.default_rng(case)
        k = int(rng.integers(30, 101))
        actions = rng.normal(size=(k, d))
        actions /= np.linalg.norm(actions, axis=1, keepdims=True)
        theta = np.zeros(d)
        support = rng.choice(d, 8, replace=False)
        theta[support] = rng.normal(size=8)
        theta /= np.linalg.norm(theta)
        for upsilon in (0.2, 0.3):
            trials += 1
            p = choose_target_dim(k, upsilon, d)
            try:
                cmap = find_certified_map(d, p, actions, theta, upsilon,
                                          base_seed=case * 100 + 1)
                assert cmap.max_violation <= 2 * upsilon
                successes += 1
            except CertificationError:
                pass
    ok = successes >= math.ceil(0.95 * trials)
    _report("compression: certified map within 32 retries in >= 95% of "
            "cases", ok, f"{successes}/{trials} succeeded")


def test_compressed_elimination_error_shape():
    d, s, k, eps = 96, 3, 160, 0.25
    upsilon = math.log(k) ** 0.25 * math.sqrt(eps)
    unit = math.log(k) ** 0.25 * math.sqrt(eps) + eps
    worst_clean = worst_noisy = 0.0
    for seed in range(30):
        inst = random_sparse_instance(d, s, k, eps, seed=seed,
                                      basis_probes=False)
        p = choose_target_dim(k, upsilon, d)
        cmap = find_certified_map(d, p, inst.features.matrix,
                                  inst.theta_star.coords, upsilon,
                                  base_seed=seed)
        res = run_benign_elimination(inst, cmap, 1200, QueryLedger())
        err = compressed_uniform_error(inst, cmap, res.theta_f)
        assert err <= KAPPA_COMPRESSED * unit, seed
        worst_clean = max(worst_clean, err / unit)

        noisy = random_sparse_instance(
            d, s, k, eps, seed=seed, basis_probes=False,
            noise=NoiseModel(kind="gaussian", seed=seed))
        resn = run_benign_elimination(noisy, cmap, 1200, QueryLedger())
        errn = compressed_uniform_error(noisy, cmap, resn.theta_f)
        unit_noisy = noisy_threshold(1.0, k, eps, cmap.p, resn.queries, 1200)
        assert errn <= KAPPA_COMPRESSED * unit_noisy, seed
        worst_noisy = max(worst_noisy, errn / unit_noisy)
    _report("compressed elimination: error within the frozen-constant bound, "
            "noiseless and noisy, 30 seeds", True,
            f"kappa={KAPPA_COMPRESSED}, worst ratios "
            f"{worst_clean:.3f}/{worst_noisy:.3f}")


def test_sparse_recovery_oracle_equivalence_and_pipeline_bound():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for trial in range(50):
        d = (6, 7, 8)[trial % 3]
        psi = rng.normal(size=(30, d))
        targets = rng.normal(size=30)
        rec = sparse_linf_recover(psi, targets, 2)
        want = sparse_minimax_oracle(psi, targets, 2)
        gap = abs(rec.objective - want)
        assert gap <= ARITH_TOL, (trial, rec.objective, want)
        worst_gap = max(worst_gap, gap)

    d, s, eps, k = 6, 2, 0.05, 24
    unit = (s * math.log(d)) ** 0.25 * math.sqrt(s * eps) + eps
    worst = worst_nu = 0.0
    for seed in range(20):
        inst = random_sparse_instance(d, s, k, eps, seed=seed)
        ledger = QueryLedger()
        res = run_general_features(inst, ledger)
        err = uniform_error(inst, res.predictions)
        assert err <= KAPPA_PIPELINE * unit, seed
        adversarial, _ = worst_case_misspecification(inst, ledger, res.predictions)
        assert adversarial <= KAPPA_PIPELINE * unit, seed
        worst = max(worst, err / unit)
        worst_nu = max(worst_nu, adversarial / unit)
    _report("sparse recovery: exact oracle equivalence on 50 problems and "
            "pipeline error within the frozen-constant bound, also for the "
            "worst nu, on 20 seeds",
            True, f"worst lp/oracle gap = {worst_gap:.2g}, "
                  f"kappa'={KAPPA_PIPELINE}, worst ratio {worst:.3f}, "
                  f"worst over nu {worst_nu:.3f}")


def test_worst_case_misspecification_replays_the_run():
    """Keep nu on the queried actions and set nu = +-eps against the
    prediction on the others: each learner queries the same actions, sees
    the same rewards and predicts the same bits, and its uniform error is
    the worst case the helper works out from the first run alone."""
    grid = [point for i, point in enumerate(_grid_instances()) if i in (7, 20, 33, 47)]
    learners = [(f"param-elim {seed}", inst,
                 lambda i, led, seed=seed: run_parameter_elimination(
                     i, led, net=_seeded_net(i, seed)))
                for inst, seed in grid]
    learners += [(f"design-elim {seed}", inst, run_design_elimination)
                 for inst, seed in grid]
    learners += [(f"general-features {seed}",
                  random_sparse_instance(6, 2, 24, 0.05, seed=seed),
                  run_general_features) for seed in (0, 1)]
    worst_gap = 0.0
    for name, instance, learner in learners:
        ledger = QueryLedger()
        preds = learner(instance, ledger).predictions
        want, nu = worst_case_misspecification(instance, ledger, preds)
        adversary = build_instance(instance.features, instance.theta_star, nu,
                                   instance.epsilon)
        replay = QueryLedger()
        replayed = learner(adversary, replay).predictions
        assert replay.entries == ledger.entries, name
        assert np.array_equal(replayed, preds), name
        gap = abs(uniform_error(adversary, replayed) - want)
        assert gap <= 1e-12, (name, gap)
        worst_gap = max(worst_gap, gap)
    _report("worst case over nu: the adversarial instance replays every run "
            "and attains the helper's error", True,
            f"{len(learners)} replays, worst gap {worst_gap:.2g}")


class _HiddenTable:
    """An instance whose rewards and misspecification can be read only
    through ``query``."""

    def __init__(self, instance):
        self.instance = instance

    def __getattr__(self, name):
        assert name not in ("rewards", "misspec"), f"a learner read {name}"
        return getattr(self.instance, name)


def test_learners_see_rewards_only_through_query(monkeypatch):
    """The worst case over nu rests on this. General features hands the real
    instance to benign elimination, whose harness-side soundness dial reads
    the table; its estimates still come from queries alone."""
    inst = random_sparse_instance(5, 2, 16, 0.1, seed=3)
    net = _seeded_net(inst, 3)
    learners = (lambda i, led: run_parameter_elimination(i, led, net=net),
                run_design_elimination, run_general_features)
    runs = []
    for learner in learners:
        ledger = QueryLedger()
        runs.append((ledger.entries, learner(inst, ledger).predictions))
    for module in (param_elim, design, design_elim):
        monkeypatch.setattr(module, "query",
                            lambda hidden, *args: query(hidden.instance, *args))
    benign = sparse_recovery.run_benign_elimination
    monkeypatch.setattr(sparse_recovery, "run_benign_elimination",
                        lambda hidden, *args, **kw: benign(hidden.instance, *args, **kw))
    for learner, (entries, preds) in zip(learners, runs):
        ledger = QueryLedger()
        assert np.array_equal(learner(_HiddenTable(inst), ledger).predictions, preds)
        assert ledger.entries == entries
    _report("learners see rewards only through query: the same ledger and "
            "predictions with the reward table hidden", True,
            f"{len(learners)} learners")


HARD_SPEC = HardMatrixSpec(d=64, s=8, epsilon=0.5, tau=0.1, delta=0.25,
                           seed=0, c=2.0)


def test_hard_instance_certification():
    k = k_threshold(HARD_SPEC)
    features, attempts, _ = generate_validated(HARD_SPEC)
    m = features.matrix
    assert m.shape[0] == k
    assert np.max(np.abs(np.linalg.norm(m, axis=1) - 1.0)) <= 1e-9
    assert np.count_nonzero(m, axis=1).max() <= HARD_SPEC.s
    for i in range(m.shape[0]):
        for j in range(i + 1, m.shape[0]):
            assert abs(float(m[i] @ m[j])) <= HARD_SPEC.epsilon
    _report("hard instances: validated matrix at k = threshold within 100 "
            "retries, all three exhaustive checks", True,
            f"k={k}, attempts={attempts}")


def test_hard_instance_pairwise_certificate():
    """At k = 64 (2,016 pairs), every row has s entries +-1/sqrt(s), so a
    pair's inner product is the integer sum of sign products over their
    shared coordinates, divided by s. The bound |<a_i, a_j>| <= eps is
    certified on that integer sum, and the float products must match it."""
    spec = replace(HARD_SPEC, k=64)
    features, attempts, _ = generate_validated(spec)
    m = features.matrix
    assert m.shape[0] == spec.k
    assert np.all(np.count_nonzero(m, axis=1) == spec.s)
    signs = np.sign(m).astype(np.int64)
    pairs = np.triu_indices(spec.k, k=1)
    sums = (signs @ signs.T)[pairs]
    rounding = float(np.max(np.abs((m @ m.T)[pairs] - sums / spec.s)))
    assert rounding <= PAIRWISE_TOL
    worst = int(np.max(np.abs(sums)))
    _report("hard instances: exact pairwise certificate |sum of shared sign "
            "products| <= eps*s on every pair at k = 64", worst <= spec.epsilon * spec.s,
            f"pairs={sums.size}, worst |sum|={worst} vs {spec.epsilon * spec.s:g}, "
            f"float rounding {rounding:.2g}, attempts={attempts}")


def test_hard_instance_failure_rate_budgets():
    # Per-condition empirical failure rates over 200 raw draws at
    # k = k_threshold, compared against 3x the stated per-condition budgets
    # (delta per condition after the union bound; at k = 1 this coincides
    # with the per-row/per-pair budgets).
    k = k_threshold(HARD_SPEC)
    spec = HardMatrixSpec(d=64, s=8, epsilon=0.5, tau=0.1, delta=0.25,
                          seed=0, k=k, c=2.0)
    fails = {"norm": 0, "sparsity": 0, "pairwise": 0}
    n_seeds = 200
    for seed in range(n_seeds):
        raw = sample_raw_matrix(spec, seed=seed)
        report = normalize_and_validate(raw, spec, seed=seed).report
        fails["norm"] += report.norm_failures > 0
        fails["sparsity"] += report.sparsity_failures > 0
        fails["pairwise"] += report.pairwise_failures > 0
    rates = {c: fails[c] / n_seeds for c in fails}
    budget = 3 * spec.delta
    ok = all(rate <= budget for rate in rates.values())
    _report("hard instances: per-condition failure rates within 3x their "
            "stated budgets over 200 seeds", ok,
            f"rates={ {c: round(r, 3) for c, r in rates.items()} } vs "
            f"3*delta={budget}")


def test_embedding_soundness_and_uniform_search():
    spec = HardMatrixSpec(d=64, s=8, epsilon=0.5, tau=0.95, delta=0.25,
                          seed=0, k=6)
    features, _, _ = generate_validated(spec)
    inst = embed_index_query(features, i_star=2, delta_gap=0.5, epsilon=0.5)
    assert inst.misspec[2] == 0.0
    assert float(np.max(np.abs(inst.misspec))) <= inst.epsilon
    counts = [random_search(inst, t, QueryLedger())[0] for t in range(100)]
    mean = float(np.mean(counts))
    target = (inst.k + 1) / 2
    ok = abs(mean - target) <= 0.1 * target
    _report("hidden-index embedding: zero misspecification at the planted "
            "row, |nu| <= eps, uniform search mean within 10% of (k+1)/2",
            ok, f"mean={mean:.2f} vs {target:.2f}")


def test_query_count_grows_geometrically_in_sparsity():
    eps, d, k = 0.6, 8, 20
    means = []
    for s in (1, 2, 3):
        counts = []
        for seed in (0, 1, 2):
            inst = random_sparse_instance(d, s, k, eps, seed=seed)
            net = _seeded_net(inst, seed)
            ledger = QueryLedger()
            run_parameter_elimination(inst, ledger, net=net)
            counts.append(len(ledger))
        means.append(float(np.mean(counts)))
    ratios = [b / a for a, b in zip(means, means[1:])]
    ok = all(r >= 2.0 for r in ratios)
    _report("exponential wall: parameter-elimination queries grow at least "
            "2x per sparsity step at fixed d", ok,
            f"means={['%.0f' % m for m in means]}, "
            f"ratios={['%.1f' % r for r in ratios]}")
