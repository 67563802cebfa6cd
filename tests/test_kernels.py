"""The numpy hot kernels against oracles that follow their definitions."""

import numpy as np
import pytest
from helpers import first_alive, first_violation_oracle, greedy_pack_oracle

from sparsebandit import random_sparse_instance
from sparsebandit.errors import ValidationError
from sparsebandit.net import CoveringNet, build_separated_net, greedy_pack, sphere_pool
from sparsebandit.param_elim import (Envelope, build_candidate_sets, pair_first_violation,
                                     rival_list)


def test_greedy_pack_matches_oracle():
    rng = np.random.default_rng(0)
    for s in (1, 2, 3, 6):
        for trial in range(4):
            pool = sphere_pool(s, 4000, seed=trial)
            sep = float(rng.uniform(0.05, 0.8))
            assert np.array_equal(greedy_pack(pool, sep), greedy_pack_oracle(pool, sep))
    # pools of several 4096-point chunks reach the step against earlier chunks
    for s, seps in ((1, (0.5, 2.0)), (2, (0.05, 0.2, 0.7)), (3, (0.1, 0.3, 0.9))):
        pool = sphere_pool(s, 10_000, seed=s)
        for sep in seps:
            assert np.array_equal(greedy_pack(pool, sep), greedy_pack_oracle(pool, sep))


def test_greedy_pack_windows_match_oracle():
    """A multi-chunk pool where each sub-block's coordinate-0 window holds a
    small part of the 903 accepted points; the last is accepted in chunk 2."""
    pool = sphere_pool(2, 12_000, seed=7)
    assert np.array_equal(greedy_pack(pool, 0.005), greedy_pack_oracle(pool, 0.005))


def test_greedy_pack_windows_keep_pairs_just_under_the_separation():
    """Each pool is one point repeated through chunk 0 and one chunk-1
    candidate at a band offset from it, mostly along coordinate 0 and to
    either side, so the candidate is its sub-block's whole range and the
    pair's first coordinates differ by about sep, the window's half-width.
    At sep 1.2e-7 the offsets are near an ulp of the coordinates, and the
    rounding bound of the lifted product exceeds PACK_BAND * sep**2."""
    rng = np.random.default_rng(11)
    for sep in (0.3, 1.2e-7):
        kept = []
        for (major, minor), sign in zip(band_offsets(sep) * 4,
                                        rng.choice([-1.0, 1.0], size=76)):
            a = sphere_pool(2, 1, seed=len(kept))[0] * rng.uniform(0.5, 1.9)
            pool = np.vstack([np.tile(a, (4096, 1)), a + [sign * major, minor]])
            want = greedy_pack_oracle(pool, sep)
            assert np.array_equal(greedy_pack(pool, sep), want)
            kept.append(len(want))
        assert set(kept) == {1, 2}                   # the band splits both ways


def test_greedy_pack_with_repeated_and_non_unit_rows():
    """Rows of norm 0 to 10, each repeated a few times across chunks; the
    rounding bound scales with the largest norm."""
    rng = np.random.default_rng(12)
    for s in (1, 2, 4):
        rows = rng.normal(size=(1_500, s)) * rng.uniform(0.0, 10.0, size=(1_500, 1))
        rows[:50] = 0.0
        pool = rows[rng.integers(0, len(rows), size=6_000)]
        for sep in (0.1, 0.7):
            assert np.array_equal(greedy_pack(pool, sep), greedy_pack_oracle(pool, sep))


def band_offsets(sep):
    """Offsets at distance sep*(1 +- delta) for delta from 1e-10 down to
    1e-15, then offsets whose squared distance steps one ulp at a time across
    sep**2: one ulp below it has a square root that rounds to sep, so only
    the exact squared test finds it too close."""
    offsets = [(sep * (1 + sign * 10.0 ** -e), 0.0)
               for e in range(10, 16) for sign in (1, -1)]
    major = sep * (1 - 1e-14)
    d2 = sep * sep
    for _ in range(3):
        d2 = np.nextafter(d2, 0.0)
    for _ in range(7):
        offsets.append((major, np.sqrt(d2 - major * major)))
        d2 = np.nextafter(d2, 1.0)
    return offsets


def test_greedy_pack_decides_the_distance_band_exactly():
    """Later-chunk candidates at the band offsets from the origin, which
    chunk 0 accepts, each on its own pair of axes so that they are more than
    sep apart from each other."""
    sep = 0.3
    sep2 = sep * sep
    offsets = band_offsets(sep)
    n = len(offsets)
    candidates = np.zeros((n, 2 * n))
    for j, (a, b) in enumerate(offsets):
        candidates[j, 2 * j:2 * j + 2] = a, b
    dist2 = (candidates ** 2).sum(axis=1)
    assert ((dist2 < sep2) & (np.sqrt(dist2) >= sep)).any()
    pool = np.vstack([np.zeros((4096, 2 * n)), candidates])
    want = greedy_pack_oracle(pool, sep)
    assert 1 < len(want) < 1 + n                 # the band splits both ways
    assert np.array_equal(greedy_pack(pool, sep), want)


def test_net_validation_decides_the_distance_band_exactly():
    """A net is refused iff some pair has sum((a-b)**2) < sep**2, the test
    greedy_pack accepts by. Unit pairs (c, +-a/2, +-b/2) differ by exactly a
    band offset (0, a, b); random nets are checked with the separation set
    at their closest pair's distance and one ulp to either side."""
    sep = 0.3
    refused = []
    for a, b in band_offsets(sep):
        half = np.array([a, b]) / 2
        c = np.sqrt(1.0 - half @ half)
        pair = np.array([[c, *half], [c, *-half]])
        dist2 = ((pair[0] - pair[1]) ** 2).sum()
        assert dist2 == a * a + b * b
        too_close = dist2 < sep * sep
        if too_close:
            with pytest.raises(ValidationError, match="closer than the separation"):
                CoveringNet(points=pair, separation=sep, s=3, candidate_pool_size=2)
        else:
            CoveringNet(points=pair, separation=sep, s=3, candidate_pool_size=2)
        refused.append((too_close, np.sqrt(dist2) >= sep))
    assert (True, True) in refused and (False, True) in refused
    for s in (2, 3, 4):
        pts = sphere_pool(s, 40, seed=s)
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        pair_sq = sq[np.triu_indices(len(pts), 1)]
        closest = np.sqrt(pair_sq.min())
        for sep in (np.nextafter(closest, 0.0), closest, np.nextafter(closest, 1.0)):
            too_close = bool((pair_sq < sep * sep).any())
            if too_close:
                with pytest.raises(ValidationError):
                    CoveringNet(points=pts, separation=sep, s=s, candidate_pool_size=40)
            else:
                CoveringNet(points=pts, separation=sep, s=s, candidate_pool_size=40)


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
        envelope = Envelope(cand.projections, alive)
        for m in range(cand.n_subsets):
            for t in range(cand.n_net):
                if not alive[m, t]:
                    continue
                args = (cand.projections, cand.anchors, alive, m, t, cand.epsilon)
                assert (first_alive(pair_first_violation(*args, envelope), alive)
                        == first_violation_oracle(*args))


def test_rival_list_matches_its_definition():
    """At anchors where the primary's group is not empty: every family far at
    some group action, by a nested loop in scan order, with its first one."""
    inst = random_sparse_instance(5, 2, 12, 0.5, seed=4)
    net = build_separated_net(2, inst.epsilon, seed=4, pool_size=400)
    cand = build_candidate_sets(inst.features, net)
    P, W, eps = cand.projections, cand.anchors, cand.epsilon
    near = np.abs(P[..., None] - W.T) <= 0.5 * eps      # near[m, x, t, w]
    triples = np.argwhere(near.any(axis=1))             # (m, t, w) with a group
    rng = np.random.default_rng(5)
    listed = 0
    for m, t, w in triples[rng.permutation(len(triples))[:40]].tolist():
        c = W[w, t]
        group = [x for x in range(inst.k) if abs(P[m, x, t] - c) <= 0.5 * eps]
        want = []
        for mp in range(cand.n_subsets):
            for tp in range(cand.n_net):
                far = [x for x in group if abs(P[mp, x, tp] - c) > 2.5 * eps]
                if far:
                    want.append((mp * cand.n_net + tp, far[0]))
        rivals, actions = rival_list(P, W, m, t, w, eps)
        assert list(zip(rivals.tolist(), actions.tolist())) == want
        assert m * cand.n_net + t not in rivals
        listed += len(want) > 0
    assert listed > 30


def test_envelope_tracks_alive_extremes():
    inst = random_sparse_instance(5, 2, 12, 0.5, seed=3)
    net = build_separated_net(2, inst.epsilon, seed=3, pool_size=400)
    P = build_candidate_sets(inst.features, net).projections
    rng = np.random.default_rng(2)
    alive = np.ones((P.shape[0], P.shape[2]), dtype=np.uint8)
    env = Envelope(P, alive)
    values = P.transpose(1, 0, 2).reshape(P.shape[1], -1)
    for pair in rng.permutation(alive.size)[:-1]:
        alive.reshape(-1)[pair] = 0
        env.refresh(alive)
        live = alive.reshape(-1).astype(bool)
        assert np.array_equal(env.hi, values[:, live].max(axis=1))
        assert np.array_equal(env.lo, values[:, live].min(axis=1))


def _boundary_case(c, rival_values):
    """Primary (0, 0) groups both actions at anchor 0, whose value is c; the
    rival family (1, 0) takes ``rival_values``; every other family sits at c."""
    P = np.full((2, 2, 2), c)
    P[1, :, 0] = rival_values
    W = np.array([[c, c], [10.0, 10.0]])
    return P, W, np.ones((2, 2), dtype=np.uint8), 0, 0, 0.25


def test_violation_threshold_is_strict_in_floating_point():
    thr = 2.5 * 0.25
    past = np.nextafter(thr, np.inf)
    up, down = -0.5, 0.5                 # anchors where both offsets are exact
    assert (up + thr) - up == thr and (up + past) - up == past
    assert (down - thr) - down == -thr and (down - past) - down == -past
    cases = [
        (up, (up + thr, up + thr), None),
        (up, (up + thr, up + past), (0, 1, 0, 1)),
        (down, (down - thr, down - thr), None),
        (down, (down - past, down - thr), (0, 1, 0, 0)),
    ]
    for c, values, want in cases:
        args = _boundary_case(c, values)
        assert first_violation_oracle(*args) == want
        hit = pair_first_violation(*args, Envelope(args[0], args[2]))
        assert first_alive(hit, args[2]) == want
