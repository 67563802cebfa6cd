"""Tests for the random-projection compression maps."""

import math

import numpy as np
import pytest

from sparsebandit import compression as compression_mod
from sparsebandit.compression import (
    build_map,
    certify,
    choose_target_dim,
    find_certified_map,
)
from sparsebandit.errors import CertificationError, ValidationError


def test_identity_map_zero_distortion():
    cmap = build_map(6, 6, 0)
    assert np.array_equal(cmap.matrix, np.eye(6))
    rng = np.random.default_rng(0)
    actions = rng.normal(size=(10, 6))
    theta = rng.normal(size=6)
    assert certify(cmap, actions, theta) == 0.0


def test_map_is_deterministic_and_linear():
    a = build_map(20, 5, 42)
    b = build_map(20, 5, 42)
    assert np.array_equal(a.matrix, b.matrix)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=20), rng.normal(size=20)
    assert np.allclose(a.apply(x + y), a.apply(x) + a.apply(y), atol=1e-12)
    assert np.allclose(a.apply(3.0 * x), 3.0 * a.apply(x), atol=1e-12)


def test_sign_map_column_norms_are_one():
    for seed in range(5):
        cmap = build_map(30, 7, seed + 1)
        norms = np.linalg.norm(cmap.matrix, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_zero_theta_certifies_exactly():
    cmap = build_map(12, 4, 3)
    rng = np.random.default_rng(2)
    actions = rng.normal(size=(8, 12))
    assert certify(cmap, actions, np.zeros(12)) == 0.0


def test_certify_matches_brute_force():
    cmap = build_map(15, 6, 9)
    rng = np.random.default_rng(3)
    actions = rng.normal(size=(20, 15))
    theta = rng.normal(size=15)
    got = certify(cmap, actions, theta)
    want = max(abs(float(cmap.apply(a) @ cmap.apply(theta) - a @ theta))
               for a in actions)
    assert got == pytest.approx(want, rel=1e-12)


def test_choose_target_dim_arithmetic():
    assert choose_target_dim(50, 0.3, d=400) == 348
    assert choose_target_dim(50, 0.3, d=100) == 100     # clamped to d
    assert choose_target_dim(10, 1e9, d=50) == 1        # clamp floor
    raw = math.ceil(8.0 * math.log(120) / 0.25 ** 2)
    assert choose_target_dim(120, 0.25, d=10 ** 6) == raw
    with pytest.raises(ValidationError):
        choose_target_dim(1, 0.3, d=10)
    with pytest.raises(ValidationError):
        choose_target_dim(10, 0.0, d=10)


def test_find_certified_map_succeeds_with_retries():
    rng = np.random.default_rng(4)
    d, k = 40, 60
    actions = rng.normal(size=(k, d))
    actions /= np.linalg.norm(actions, axis=1, keepdims=True)
    theta = rng.normal(size=d)
    theta /= np.linalg.norm(theta)
    upsilon = 0.3
    p = choose_target_dim(k, upsilon, d)
    cmap = find_certified_map(d, p, actions, theta, upsilon, base_seed=1)
    assert cmap.max_violation <= 2 * upsilon
    assert certify(cmap, actions, theta) == cmap.max_violation


def test_find_certified_map_prefers_identity_at_full_dim():
    rng = np.random.default_rng(5)
    actions = rng.normal(size=(10, 8))
    theta = rng.normal(size=8)
    cmap = find_certified_map(8, 8, actions, theta, 0.05, base_seed=17)
    assert cmap.seed == 0
    assert cmap.max_violation == 0.0


def test_find_certified_map_exhausts(monkeypatch):
    rng = np.random.default_rng(6)
    actions = rng.normal(size=(50, 30))
    actions /= np.linalg.norm(actions, axis=1, keepdims=True)
    theta = rng.normal(size=30)
    theta /= np.linalg.norm(theta)
    monkeypatch.setattr(compression_mod, "MAX_RETRIES", 4)
    with pytest.raises(CertificationError):
        find_certified_map(30, 2, actions, theta, 0.01, base_seed=0)
