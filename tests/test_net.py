"""Tests for sphere net construction and maintenance."""

import numpy as np
import pytest

from sparsebandit import CoveringNet, build_separated_net, include_point
from sparsebandit.errors import GuardExceededError, NormBoundError, ValidationError
from sparsebandit.net import greedy_pack, sphere_pool


def pairwise_min_dist(points):
    if len(points) < 2:
        return np.inf
    best = np.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = min(best, float(np.linalg.norm(points[i] - points[j])))
    return best


def test_one_dimensional_net_is_both_poles():
    net = build_separated_net(1, 1.0, seed=0)
    assert net.size == 2
    assert sorted(net.points.ravel().tolist()) == [-1.0, 1.0]
    assert net.size <= 5


def test_two_dimensional_coarse_net():
    net = build_separated_net(2, 2.0, seed=1)
    assert net.size <= (4 / 2 + 1) ** 2
    assert pairwise_min_dist(net.points) >= 1.0


@pytest.mark.parametrize("s,eps,seed", [(1, 0.5, 0), (2, 0.7, 1), (2, 0.25, 2), (3, 1.0, 3)])
def test_size_bound_and_separation(s, eps, seed):
    net = build_separated_net(s, eps, seed, pool_size=20_000)
    assert net.size <= (4 / eps + 1) ** s
    assert pairwise_min_dist(net.points) >= eps / 2


def test_determinism():
    a = build_separated_net(2, 0.5, seed=9)
    b = build_separated_net(2, 0.5, seed=9)
    assert np.array_equal(a.points, b.points)


def test_pool_coverage():
    s, eps, seed, pool = 2, 0.6, 5, 5_000
    net = build_separated_net(s, eps, seed, pool_size=pool)
    cand = sphere_pool(s, pool, seed)
    d2 = ((cand[:, None, :] - net.points[None, :, :]) ** 2).sum(-1)
    assert np.sqrt(d2.min(axis=1)).max() < eps / 2 + 1e-12


def test_input_validation():
    with pytest.raises(ValidationError):
        build_separated_net(0, 0.5, seed=0)
    with pytest.raises(ValidationError):
        build_separated_net(2, 0.0, seed=0)
    with pytest.raises(ValidationError):
        build_separated_net(2, 2.5, seed=0)
    with pytest.raises(GuardExceededError):
        build_separated_net(2, 0.5, seed=0, pool_size=10 ** 7)


def test_capped_packing_is_a_prefix_of_the_full_packing():
    """A cap stops packing at its cap-th accept; build_separated_net then
    refuses the net, and a cap above the net's size changes nothing."""
    pool = sphere_pool(2, 10_000, seed=3)
    full = greedy_pack(pool, 0.05)
    for cap in (1, 7, len(full) - 1, len(full), len(full) + 1):
        assert np.array_equal(greedy_pack(pool, 0.05, cap), full[:cap])
    with pytest.raises(GuardExceededError, match=f"more than {len(full) - 1} points"):
        build_separated_net(2, 0.1, seed=3, pool_size=10_000, max_points=len(full))
    net = build_separated_net(2, 0.1, seed=3, pool_size=10_000, max_points=len(full) + 1)
    assert np.array_equal(net.points, pool[full])


def test_separation_that_underflows_is_refused_before_the_pool(monkeypatch):
    """At eps 1e-300 the squared separation is 0.0, so the exact distance
    test would block no point and every pool point would be accepted."""
    assert (1e-300 / 2.0) ** 2 == 0.0
    monkeypatch.setattr("sparsebandit.net.sphere_pool",
                        lambda *args: pytest.fail("the pool was drawn"))
    with pytest.raises(ValidationError, match=r"\(eps/2\)\*\*2 underflows"):
        build_separated_net(2, 1e-300, seed=0)


def test_include_point_noop_when_member():
    net = build_separated_net(2, 0.5, seed=2, pool_size=2_000)
    same = include_point(net, net.points[0])
    assert np.array_equal(same.points, net.points)


def test_include_point_evicts_close_neighbour():
    net = build_separated_net(2, 0.5, seed=2, pool_size=2_000)
    base = net.points[0]
    # rotate base by an angle giving distance about eps/4
    angle = 2 * np.arcsin(0.125 / 2)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    v = rot @ base
    out = include_point(net, v)
    assert any(np.array_equal(p, v) for p in out.points)
    assert not any(np.array_equal(p, base) for p in out.points)


def test_include_point_arbitrary_keeps_separation():
    net = build_separated_net(2, 0.5, seed=2, pool_size=2_000)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        out = include_point(net, v)
        assert pairwise_min_dist(out.points) >= net.separation
        assert any(np.array_equal(p, v) for p in out.points)


def test_non_finite_points_are_refused():
    """A NaN point passes no norm test; the net refuses it, and so the net
    include_point would return with every point evicted."""
    with pytest.raises(ValidationError, match="must be finite"):
        CoveringNet(points=[[np.nan, 1.0]], separation=0.25, s=2, candidate_pool_size=1)
    with pytest.raises(ValidationError, match="must be finite"):
        include_point(build_separated_net(2, 0.5, 0), [np.nan, np.nan])


def test_include_point_rejects_non_unit():
    net = build_separated_net(2, 0.5, seed=2, pool_size=1_000)
    with pytest.raises(NormBoundError):
        include_point(net, [0.5, 0.5])
