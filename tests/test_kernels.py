"""The numpy hot kernels against oracles that follow their definitions."""

import numpy as np
from helpers import first_violation_oracle, greedy_pack_oracle

from sparsebandit import random_sparse_instance
from sparsebandit.net import build_separated_net, greedy_pack, sphere_pool
from sparsebandit.param_elim import build_candidate_sets, pair_first_violation


def test_greedy_pack_matches_oracle():
    rng = np.random.default_rng(0)
    for s in (1, 2, 3, 6):
        for trial in range(4):
            pool = sphere_pool(s, 4000, seed=trial)
            sep = float(rng.uniform(0.05, 0.8))
            assert np.array_equal(greedy_pack(pool, sep), greedy_pack_oracle(pool, sep))


def test_pair_first_violation_matches_oracle():
    rng = np.random.default_rng(1)
    for trial in range(60):
        d = int(rng.integers(3, 6))
        s = int(rng.integers(1, 3))
        inst = random_sparse_instance(d, s, 12, float(rng.uniform(0.1, 0.7)),
                                      seed=trial)
        net = build_separated_net(s, inst.epsilon, seed=trial, pool_size=400)
        cand = build_candidate_sets(inst.features, net)
        alive = (rng.random((cand.n_subsets, cand.n_net)) < 0.8).astype(np.uint8)
        for m in range(cand.n_subsets):
            for t in range(cand.n_net):
                if not alive[m, t]:
                    continue
                args = (cand.projections, cand.anchors, alive, m, t, cand.epsilon)
                assert pair_first_violation(*args) == first_violation_oracle(*args)
