"""Tests for the experimental-design solver and estimator."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import retained_columns_qr_oracle, start_rows_qr_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebandit import QueryLedger, build_instance, random_sparse_instance
from sparsebandit import design as design_mod
from sparsebandit.compression import build_map, choose_target_dim
from sparsebandit.design import (
    core_set_bound,
    estimate_parameter,
    frank_wolfe_design,
    frank_wolfe_designs,
    g_value,
    subset_blocks,
    subset_chunks,
    weighted_estimate,
)
from sparsebandit.design_elim import run_design_elimination
from sparsebandit.errors import (
    ConvergenceError,
    DimensionMismatchError,
    SparseBanditError,
    ValidationError,
)
from sparsebandit.param_elim import subsets_of_size
from sparsebandit.sparse_recovery import collect_representatives


def subset_estimate(instance, index_set, ledger):
    """The design of one index set and its estimate, as stacks of one."""
    blocks = subset_blocks(instance.features.matrix, [index_set])
    design, = frank_wolfe_designs(blocks)
    return design, estimate_parameter(instance, blocks, [design], ledger)[0]


def random_rows(rng, k, s):
    rows = rng.normal(size=(k, s))
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1.0)


def test_basis_rows_give_uniform_design():
    s = 4
    design = frank_wolfe_design(np.eye(s))
    weights = dict(design.support)
    assert set(weights) == set(range(s))
    for w in weights.values():
        assert w == pytest.approx(1.0 / s, abs=1e-12)
    assert np.allclose(design.design_matrix, np.eye(s) / s, atol=1e-12)
    assert design.g_value == pytest.approx(s, rel=1e-9)


def test_repeated_single_row_collapses_to_one_atom():
    rows = np.tile([[0.8]], (5, 1))
    design = frank_wolfe_design(rows)
    assert design.support == ((0, 1.0),)
    assert design.g_value == pytest.approx(1.0, rel=1e-12)


def test_iteration_cap_raises_convergence_error(monkeypatch):
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(60, 5))
    rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1.0)
    free = frank_wolfe_design(rows)
    assert free.iterations == 1 and free.g_history[0] > 2 * 5
    monkeypatch.setattr(design_mod, "MAX_ITER", 0)
    with pytest.raises(ConvergenceError, match="iteration cap 0 reached"):
        frank_wolfe_design(rows)
    assert frank_wolfe_design(np.eye(3)).iterations == 0   # starts at target
    monkeypatch.setattr(design_mod, "MAX_ITER", 1)
    capped = frank_wolfe_design(rows)
    assert capped.support == free.support and capped.g_value == free.g_value


def test_random_matrices_meet_certificates():
    rng = np.random.default_rng(42)
    for _ in range(20):
        s = int(rng.integers(1, 9))
        k = int(rng.integers(s + 1, 400))
        rows = random_rows(rng, k, s)
        design = frank_wolfe_design(rows)
        assert design.g_value <= 2 * s * (1 + 1e-6)
        assert len(design.support) <= core_set_bound(s)
        # direct evaluation oracle
        assert g_value(rows, design) == pytest.approx(design.g_value, rel=1e-12)
        hist = design.g_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        weights = np.array([w for _, w in design.support])
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert (weights > 0).all()
        # cached design matrix equals the weighted Gram
        red = rows[:, list(design.retained_columns)]
        gram = sum(w * np.outer(red[i], red[i]) for i, w in design.support)
        assert np.allclose(gram, design.design_matrix, atol=1e-9)


def test_cached_design_is_exactly_that_of_the_returned_weights():
    """Bitwise, whether the final prune renormalized the weights, (5, 3, 0)
    and (12, 6, 3), or left them as they were, the rest; designs that start
    at the target and designs that iterate both."""
    iterated = 0
    for k, s, seed in ((3, 2, 0), (5, 3, 0), (12, 6, 3), (40, 2, 0),
                       (200, 3, 0), (500, 8, 1)):
        rows = random_rows(np.random.default_rng(seed), k, s)
        design = frank_wolfe_design(rows)
        iterated += design.iterations > 0
        w = np.zeros(k)
        for i, weight in design.support:
            w[i] = weight
        red = rows[:, list(design.retained_columns)]
        assert np.array_equal(design.design_matrix, red.T @ (red * w[:, None]))
        assert g_value(rows, design) == design.g_value
    assert iterated


def test_g_value_trivial_cases():
    design = frank_wolfe_design(np.eye(3))
    assert g_value(np.eye(3), design) == pytest.approx(3.0, rel=1e-12)
    single = frank_wolfe_design([[1.0]])
    assert single.g_value == pytest.approx(1.0, rel=1e-12)


def test_g_value_matches_quadratic_form_scan():
    rng = np.random.default_rng(5)
    rows = random_rows(rng, 60, 3)
    design = frank_wolfe_design(rows)
    ginv = np.linalg.inv(design.design_matrix)
    scan = max(float(r @ ginv @ r) for r in rows)
    assert g_value(rows, design) == pytest.approx(scan, rel=1e-10)


def test_rank_deficient_columns_are_discarded():
    rng = np.random.default_rng(6)
    base = random_rows(rng, 40, 2)
    rows = np.column_stack([base[:, 0], base[:, 1], base[:, 0]])  # col 2 = col 0
    design = frank_wolfe_design(rows)
    assert len(design.retained_columns) == 2
    assert design.g_value <= 2 * 2 * (1 + 1e-6)


def test_zero_rows_rejected():
    with pytest.raises(ValidationError):
        frank_wolfe_design(np.zeros((4, 3)))


def test_column_less_blocks_rejected():
    with pytest.raises(DimensionMismatchError, match="non-empty 2-d array"):
        frank_wolfe_design(np.zeros((4, 0)))
    with pytest.raises(DimensionMismatchError, match="stack of non-empty 2-d arrays"):
        frank_wolfe_designs(np.zeros((2, 4, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(bad):
    rows = random_rows(np.random.default_rng(7), 12, 3)
    rows[4, 1] = bad
    with pytest.raises(ValidationError, match="rows must be finite"):
        frank_wolfe_design(rows)
    with pytest.raises(ValidationError, match="rows must be finite"):
        frank_wolfe_designs(subset_blocks(rows, [[0, 1]]))
    frank_wolfe_designs(subset_blocks(rows, [[0, 2]]))   # without the bad column: fine


def design_blocks():
    """Every Frank-Wolfe input of the benchmark's design-elim instance
    (40, 2, 500) at seed 0, of its general-features instances at d = 8, 12,
    14, one compressed-stage 160 x 73 matrix and a few degenerate shapes."""
    phi = random_sparse_instance(40, 2, 500, 0.1, 0).features.matrix
    blocks = [phi[:, list(sub)] for sub in subsets_of_size(40, 2)]
    for d, k in ((8, 40), (12, 48), (14, 56)):
        phi = random_sparse_instance(d, 2, k, 0.05, 0).features.matrix
        blocks += [phi[:, list(sub)] for sub in subsets_of_size(d, 2)]
    d, s, k, eps = 96, 3, 160, 0.25
    clean = random_sparse_instance(d, s, k, eps, 0, basis_probes=False)
    p = choose_target_dim(k, math.log(k) ** 0.25 * math.sqrt(eps), d)
    blocks.append(build_map(d, p, 0).apply(clean.features.matrix))
    rng = np.random.default_rng(11)
    dependent = random_rows(rng, 30, 4)
    dependent[:, 2] = 0.5 * dependent[:, 0] - dependent[:, 3]
    blocks += [dependent, random_rows(rng, 5, 8), random_rows(rng, 1, 3)]
    return blocks


def test_designs_match_the_scipy_qr_setup_bitwise(monkeypatch):
    """Also for the blocks the rank certificate clears: under the oracle
    every block takes the QR path."""
    blocks = design_blocks()
    assert blocks[-4].shape == (160, 73)
    got = [frank_wolfe_design(block) for block in blocks]
    assert sum(keeps_every_column(block) for block in blocks) == 965
    monkeypatch.setattr(design_mod, "_keeps_every_column",
                        lambda stack: np.zeros(len(stack), dtype=bool))
    monkeypatch.setattr(design_mod, "_retained_columns", retained_columns_qr_oracle)
    monkeypatch.setattr(design_mod, "_certified_start_rows", clears_nothing)
    monkeypatch.setattr(design_mod, "_start_rows", start_rows_qr_oracle)
    for block, design in zip(blocks, got):
        want = frank_wolfe_design(block)
        assert design.support == want.support
        assert design.design_matrix.shape == want.design_matrix.shape
        assert np.array_equal(design.design_matrix, want.design_matrix)
        assert design.g_value == want.g_value
        assert design.retained_columns == want.retained_columns
        assert design.g_history == want.g_history
        assert design.iterations == want.iterations


def keeps_every_column(block):
    return bool(design_mod._keeps_every_column(block[None])[0])


def near_rank_one_blocks():
    """Two-column blocks A = Q diag(1, sigma) V^T c with orthonormal Q
    (k, 2), for sigma_min = c sigma from 1e-6 down to 1e-12 and k 2-500.
    The rotation V is the identity, where Gershgorin is sharp, 45 degrees,
    where the two columns have equal norms and the computed Gram is
    rounding noise around sigma^2, or random."""
    rng = np.random.default_rng(21)
    blocks = []
    for sigma in np.logspace(-6, -12, 31):
        for k in (2, 40, 500):
            for angle in (0.0, np.pi / 4, rng.uniform(0, 2 * np.pi)):
                for _ in range(3):
                    q, _ = np.linalg.qr(rng.normal(size=(k, 2)))
                    v = np.array([[np.cos(angle), -np.sin(angle)],
                                  [np.sin(angle), np.cos(angle)]])
                    blocks.append((q * [1.0, sigma]) @ v.T * rng.uniform(0.5, 2.0))
    return blocks


def test_rank_certificate_never_clears_a_block_the_qr_trims():
    """The Gram certificate may clear only blocks whose pivoted QR keeps
    every column, and it clears every benchmark subset block."""
    rng = np.random.default_rng(22)
    base = random_rows(rng, 40, 3)
    scaled = base.copy()
    scaled[:, 1] *= 1e-11
    degenerate = [base[:, [0, 1, 0]], np.column_stack([base, np.zeros(40)]), scaled,
                  base[[0, 1, 2, 0, 1, 2]], base[:2]]
    benchmark, sweep = design_blocks(), near_rank_one_blocks()
    cleared = trimmed = 0
    for block in benchmark + sweep + degenerate:
        full = retained_columns_qr_oracle(block).size == block.shape[1]
        trimmed += not full
        if keeps_every_column(block):
            assert full, block
            cleared += 1
    assert trimmed >= 250 and cleared >= 1150
    # every benchmark subset block and every general-features one is cleared
    assert all(keeps_every_column(block) for block in benchmark[:965])
    # a stack decides each block as it is decided alone
    stack = np.stack([block for block in sweep if len(block) == 500])
    assert design_mod._keeps_every_column(stack).tolist() == [
        keeps_every_column(block) for block in stack]


def clears_nothing(red_t):
    """A start-row certificate that sends every block to _start_rows."""
    n, r, k = red_t.shape
    return np.zeros((n, min(r, k)), dtype=np.intp), np.zeros(n, dtype=bool)


def certified_starts(blocks):
    """_certified_start_rows of a stack of same-shape blocks."""
    red_t = np.ascontiguousarray(np.stack(blocks).transpose(0, 2, 1))
    return design_mod._certified_start_rows(red_t)


def by_shape(blocks):
    groups: dict = {}
    for block in blocks:
        groups.setdefault(block.shape, []).append(block)
    return list(groups.values())


def near_tie_blocks():
    """Same-shape groups of blocks whose largest rows, or largest residuals
    after a pick, are equal or within a few ulps, r from 1 to 4; numpy's
    norms and dgeqp3's order such rows differently about as often as not."""
    rng = np.random.default_rng(31)
    groups = {}

    def add(name, block):
        groups.setdefault(name, []).append(np.asarray(block, dtype=np.float64))

    def ulps(v, n):
        return v * (1.0 + n * 2.0 ** -52)

    for _ in range(60):
        for r in (2, 3, 4):
            # two rows of one norm, give or take two ulps, over small rows
            x = rng.normal(size=r)
            x /= np.linalg.norm(x)
            y = rng.normal(size=r)
            y = ulps(y / np.linalg.norm(y), rng.integers(-2, 3))
            add(f"norms {r}", np.vstack([rng.normal(size=(3, r)) * 0.1, x, y]))
            # equal squares from different coordinates
            add(f"permuted {r}", np.vstack([x, np.roll(x, 1), rng.normal(size=(2, r)) * 0.1]))
        # a pick, then two residuals of one size, give or take two ulps
        p0 = np.array([1.5, rng.uniform(-0.3, 0.3)])
        n0 = p0 / np.linalg.norm(p0)
        perp = np.array([-n0[1], n0[0]])
        h, a, b = rng.uniform(0.05, 0.5), *rng.uniform(-0.5, 0.5, size=2)
        add("residuals 2", np.vstack([a * n0 + h * perp, p0,
                                      b * n0 - ulps(h, rng.integers(-2, 3)) * perp]))
        p0 = np.array([1.5, *rng.uniform(-0.3, 0.3, size=2)])
        q, _ = np.linalg.qr(np.column_stack([p0, rng.normal(size=(3, 2))]))
        x = rng.uniform(-0.5, 0.5) * q[:, 0] + 0.4 * q[:, 1]
        y = rng.uniform(-0.5, 0.5) * q[:, 0] + ulps(0.4, rng.integers(-2, 3)) * q[:, 2]
        add("residuals 3", np.vstack([x, y, p0, 0.02 * rng.normal(size=3)]))
        # one column: every row has one entry, so every tie is exact
        v = rng.uniform(0.5, 1.0)
        add("one column", [[0.3 * v], [-v], [v], [ulps(v, rng.integers(-1, 2))]])
        # probes scaled by a power of two and by other factors
        scale = rng.choice([0.125, 3.0, 1e-5 * rng.uniform(1, 2)])
        probes = np.vstack([np.eye(2), -np.eye(2), random_rows(rng, 4, 2) * 0.9]) * scale
        add("scaled probes", probes[rng.permutation(8)])
        scale = rng.choice([0.5, 3.0])
        probes = np.vstack([np.eye(3), -np.eye(3), random_rows(rng, 4, 3) * 0.9]) * scale
        add("scaled probes 3", probes[rng.permutation(10)])
    # ties dgeqp3 breaks by position after its first swap moved row 0 later
    for a in (0.5, 0.25, 2.0, 4.0, 0.75, 1.5, -0.5, -0.25, -2.0, -4.0, -0.75, -1.5):
        add("moved", [[0.0, a], [0.0, -a], [0.0, a / 4], [1.0, 0.0]])
        add("moved 3", [[0.0, a, 0.0], [0.0, 0.0, a], [1.0, 0.0, 0.0], [0.0, -a, 0.0]])
    return groups


def pivot_cut_blocks():
    """Blocks of one-entry rows whose second direction has size 10^-13.5 to
    10^-10.5, about the 1e-12 cut of the pivot count (their QR keeps one
    column, so no design starts on them)."""
    rng = np.random.default_rng(37)
    base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.5, 0.0], [-1.0, 0.0]])
    return [(base * [1.0, 10.0 ** rng.uniform(-13.5, -10.5)])[rng.permutation(5)]
            for _ in range(60)]


def test_certified_start_rows_are_the_qr_oracle_rows():
    """Every block the start certificate clears gets the rows of the
    pivoted QR, near ties included, and a stack clears each block as it
    clears it alone. Every benchmark subset block is cleared; inexact near
    ties are not."""
    cleared_in = {}
    groups = near_tie_blocks()
    for name, blocks in [("benchmark", design_blocks()[:965]),
                         ("pivot cut", pivot_cut_blocks())] + list(groups.items()):
        count = 0
        for same in by_shape(blocks):
            rows, cleared = certified_starts(same)
            for block, got, ok in zip(same, rows.tolist(), cleared.tolist()):
                if ok:
                    assert got == start_rows_qr_oracle(block).tolist(), (name, block)
            alone = [certified_starts([block])[1][0] for block in same[:20]]
            assert cleared[:20].tolist() == alone
            count += int(cleared.sum())
        cleared_in[name] = (count, len(blocks))
    assert cleared_in["benchmark"] == (965, 965)
    assert cleared_in["one column"] == (60, 60)
    # for |a| < 1 the first pick is the row (1, 0, ...), which dgeqp3 swaps
    # with row 0; row 0 then ties the second pick and comes first by index,
    # so that pick has moved and the block goes to the QR
    assert cleared_in["moved"] == (6, 12) and cleared_in["moved 3"] == (6, 12)
    for name in ("norms 2", "norms 3", "norms 4", "permuted 2", "permuted 3",
                 "permuted 4", "residuals 2", "residuals 3"):
        assert cleared_in[name] == (0, 60), name
    # exact rows above the cut are cleared, with both pivots
    assert 10 < cleared_in["pivot cut"][0] < 50
    # powers of two keep every tie exact; other scales clear no tie after a pick
    assert 10 < cleared_in["scaled probes"][0] < 50
    assert 10 < cleared_in["scaled probes 3"][0] < 50


def test_uncertified_blocks_take_the_fallback(monkeypatch):
    """A block the certificate does not clear has its start rows from
    _start_rows, and every design is bitwise the one the pivoted QR gives."""
    stacks = [np.stack(same) for blocks in near_tie_blocks().values()
              for same in by_shape(blocks)]
    got = [frank_wolfe_designs(stack) for stack in stacks]
    calls = []

    def recorded(red):
        calls.append(red.copy())
        return start_rows_qr_oracle(red)

    monkeypatch.setattr(design_mod, "_start_rows", recorded)
    fallbacks = 0
    for stack in stacks:
        assert len(stack) >= design_mod.CERTIFIED_START_BLOCKS * stack.shape[2]
        _, cleared = certified_starts(stack)
        calls.clear()
        frank_wolfe_designs(stack)
        assert len(calls) == np.count_nonzero(~cleared)
        for block, call in zip(stack[~cleared], calls):
            assert np.array_equal(block, call)
        fallbacks += len(calls)
    assert fallbacks > 100
    monkeypatch.setattr(design_mod, "_certified_start_rows", clears_nothing)
    for stack, designs in zip(stacks, got):
        for design, want in zip(designs, frank_wolfe_designs(stack)):
            assert_same_design(design, want)


def solved_start_g(rows):
    """The step-0 solve's g-value of a block under the uniform design on
    its first two rows."""
    g_mat = (np.outer(rows[0], rows[0]) + np.outer(rows[1], rows[1])) / 2
    return float(design_mod._leverages(rows, g_mat).max())


def target_crossing(block):
    """The largest xi in [0, 1] whose block(xi) has a solved start g of at
    most 4, by bisection; the start g is below 4 at 0 and above it at 1."""
    lo, hi = 0.0, 1.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if solved_start_g(block(mid)) <= 4.0 else (lo, mid)
    return lo


def near_target_blocks():
    """Two-column blocks with start rows (1, 0) and b, whose worst row
    (xi, eta) has a start leverage within 40 ulps of 2r = 4, on either side,
    over small filler rows. Under the second b the closed form, evaluated
    with no rounding margin, falls below 4 on some blocks whose solved
    start g is above it. Returns the blocks and their solved start g."""
    filler = random_rows(np.random.default_rng(41), 6, 2) * 0.05
    blocks, start = [], []
    for b, eta in (((0.9, 0.3), -0.297),
                   ((0.6957263985013139, 0.7023460287942555), -0.6945289759308939)):
        def block(xi):
            return np.vstack([[1.0, 0.0], b, [xi, eta], filler])

        xis = [target_crossing(block)]
        for _ in range(40):
            xis = [np.nextafter(xis[0], -1.0)] + xis + [np.nextafter(xis[-1], 1.0)]
        blocks += [block(xi) for xi in xis]
        start += [solved_start_g(block(xi)) for xi in xis]
    return blocks, start


def ill_conditioned_near_target_blocks(k):
    """1,001 blocks of k two-column rows: start rows (1, 0) and 0.9
    (sqrt(1 - delta^2), delta), delta = 1e-3, so that det(B)^2 is about
    2.5e-7 ||B||_F^4 and the step-0 solve's rounding (omega) outweighs the
    closed form's own (mu); a worst row (xi, -0.8 delta) with xi within
    1e-6 relative of the start-g crossing of 4; k - 3 filler rows of norm
    0.01 delta."""
    delta = 1e-3
    filler = random_rows(np.random.default_rng(k), k - 3, 2)
    filler *= 0.01 * delta / np.linalg.norm(filler, axis=1, keepdims=True)
    b = 0.9 * np.array([math.sqrt(1 - delta ** 2), delta])

    def block(xi):
        return np.vstack([[1.0, 0.0], b, [xi, -0.8 * delta], filler])

    xi = target_crossing(block)
    return [block(x) for x in xi * (1 + np.linspace(-1e-6, 1e-6, 1001))]


def unmargined_start_g(block):
    """The closed form r ||adj(B^T) x||^2 / det(B)^2 over the rows x of a
    two-column block with start rows B = block[:2], in plain rounding."""
    (b00, b01), (b10, b11) = block[:2]
    c1 = b11 * block[:, 0] - b10 * block[:, 1]
    c2 = b00 * block[:, 1] - b01 * block[:, 0]
    return float((2 * (c1 * c1 + c2 * c2) / (b00 * b11 - b01 * b10) ** 2).max())


def test_near_target_blocks_are_solved():
    """A block whose start leverage sits within rounding of 2r is left to
    the solve, which alone decides whether it steps; certified blocks skip
    it and carry a bound on the g-value it would return."""
    blocks, start = near_target_blocks()
    assert min(start) <= 4.0 < max(start) and max(start) - min(start) < 1e-12
    # blocks that a certificate with no rounding margin would finish unsolved
    assert any(unmargined_start_g(block) < 4.0 < g0 for block, g0 in zip(blocks, start))
    rows, cleared = certified_starts(blocks)
    assert cleared.all() and (rows == [0, 1]).all()
    red_t = np.ascontiguousarray(np.stack(blocks).transpose(0, 2, 1))
    assert np.isinf(design_mod._meets_target_at_start(red_t, rows)).all()
    designs = frank_wolfe_designs(np.stack(blocks))
    for design, g0 in zip(designs, start):
        assert design.g_history[0] == g0
        assert (design.iterations == 0) == (g0 <= 4.0)
    # the same rows away from the boundary are cleared, with a bound on g
    far = [np.vstack([block[:2], 0.5 * block[2:]]) for block in blocks[:8]]
    red_t = np.ascontiguousarray(np.stack(far).transpose(0, 2, 1))
    assert (design_mod._meets_target_at_start(red_t, rows[:8]) < 4.0).all()
    fast = frank_wolfe_designs(np.stack(far))
    for design, block in zip(fast, far):
        alone = frank_wolfe_design(block)
        assert design.iterations == 0
        assert alone.g_value <= design.g_value < 4.0
    # ill-conditioned starts straddling the target: none is cleared
    for k in (103, 501):
        blocks = ill_conditioned_near_target_blocks(k)
        start = [solved_start_g(block) for block in blocks]
        assert min(start) <= 4.0 < max(start)
        rows, cleared = certified_starts(blocks)
        assert cleared.all() and (rows == [0, 1]).all()
        red_t = np.ascontiguousarray(np.stack(blocks).transpose(0, 2, 1))
        assert np.isinf(design_mod._meets_target_at_start(red_t, rows)).all()


def test_certified_designs_match_the_solved_start(monkeypatch):
    """Blocks the target certificate clears get bitwise the design of the
    step-0 solve, but for their g-value, near-target blocks too, r from 1
    to 4."""
    blocks, _ = near_target_blocks()
    rng = np.random.default_rng(43)
    stacks = [np.stack(blocks)] + [np.stack([random_rows(rng, 12, r) for _ in range(16)])
                                   for r in (1, 2, 3, 4)]
    stacks += [np.stack(same) for blocks in near_tie_blocks().values()
               for same in by_shape(blocks)]
    got = [frank_wolfe_designs(stack) for stack in stacks]
    monkeypatch.setattr(design_mod, "_meets_target_at_start", certifies_nothing)
    for stack, designs in zip(stacks, got):
        for design, want in zip(designs, frank_wolfe_designs(stack)):
            assert_same_design(design, want)


def certifies_nothing(red_t, start):
    """A start-target certificate that sends every block to the solve."""
    return np.full(len(red_t), np.inf)


def benchmark_chunks():
    """The subset_chunks of design elimination at (40, 2, 500), seeds 0-2,
    and of collect_representatives at (d, k) = (8, 40), (12, 48) and
    (14, 56), seed 0: the stacks the benchmark designs."""
    instances = [random_sparse_instance(40, 2, 500, 0.1, seed) for seed in range(3)]
    instances += [random_sparse_instance(d, 2, k, 0.05, 0)
                  for d, k in ((8, 40), (12, 48), (14, 56))]
    for instance in instances:
        subsets = subsets_of_size(instance.d, 2)
        for _, blocks in subset_chunks(instance.features.matrix, subsets):
            yield blocks


def test_certified_designs_carry_their_bound(monkeypatch):
    """Every benchmark design finishes on the start-target certificate: its
    g-value is its block's bound, at least the g-value the step-0 solve
    gives it and below 2r, and its history is that one value."""
    chunks = list(benchmark_chunks())
    got = [frank_wolfe_designs(blocks) for blocks in chunks]
    bounds = []
    for blocks in chunks:
        red_t = np.ascontiguousarray(blocks.transpose(0, 2, 1))
        rows, cleared = design_mod._certified_start_rows(red_t)
        assert cleared.all()
        bounds.append(design_mod._meets_target_at_start(red_t, rows))
    monkeypatch.setattr(design_mod, "_meets_target_at_start", certifies_nothing)
    count = 0
    for blocks, designs, bound in zip(chunks, got, bounds):
        assert [design.g_value for design in designs] == bound.tolist()
        for design, want in zip(designs, frank_wolfe_designs(blocks)):
            assert design.iterations == want.iterations == 0
            assert design.g_history == (design.g_value,)
            assert want.g_value <= design.g_value < 4.0
        count += len(designs)
    assert count == 3 * 780 + 28 + 66 + 91


def test_benchmark_runs_fall_back_nowhere(monkeypatch):
    """Design elimination at (40, 2, 500) and collect_representatives at
    (d, k) = (8, 40), (12, 48) and (14, 56), the general-features runs of
    the benchmark, certify every set-up: no pivoted QR and no leverage
    solve, a last chunk included. Design elimination at (16, 3, 300),
    seeds 0-2, takes no pivoted QR either; its r = 3 starts, which the
    start-target certificate does not decide, take the leverage solve."""
    calls = {"_retained_columns": 0, "_start_rows": 0, "_leverages": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(design_mod, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(design_mod, name, counted)
    instance = random_sparse_instance(40, 2, 500, 0.1, 0)
    run_design_elimination(instance, QueryLedger())
    for d, k, n_subsets in ((8, 40, 28), (12, 48, 66), (14, 56, 91)):
        instance = random_sparse_instance(d, 2, k, 0.05, 0)
        reps = collect_representatives(instance.features, 2)
        assert len(reps.subsets) == n_subsets
    assert calls == {"_retained_columns": 0, "_start_rows": 0, "_leverages": 0}
    for seed in range(3):
        run_design_elimination(random_sparse_instance(16, 3, 300, 0.1, seed), QueryLedger())
    assert calls["_retained_columns"] == calls["_start_rows"] == 0
    assert calls["_leverages"] > 0


@pytest.mark.parametrize("n,sizes", [(0, []), (1, [1]), (32, [32]), (33, [17, 16]),
                                     (66, [22, 22, 22]), (780, [32] * 5 + [31] * 20)])
def test_subset_chunks_cut_near_equal_runs(n, sizes):
    phi = np.arange(3 * 40.0).reshape(3, 40)
    subsets = subsets_of_size(40, 2)[:n]
    chunks = list(subset_chunks(phi, subsets))
    assert [len(blocks) for _, blocks in chunks] == sizes
    assert all(size <= design_mod.SUBSET_CHUNK for size in sizes)
    lo = 0
    for start, blocks in chunks:
        assert start == lo
        assert np.array_equal(blocks, subset_blocks(phi, subsets[lo:lo + len(blocks)]))
        lo += len(blocks)
    assert lo == n


# sha256 over every field of every design of design_blocks(), one BLAS thread,
# recorded when each design was computed on its own, before designs were
# computed in stacks; the stacked code must reproduce those bits, not only
# agree with itself
DESIGN_BLOCKS_SHA256 = "82b4456b26286feffd2edc3a7351852ee285232224f3bf08fb49d9fb323fd541"


def test_designs_are_byte_identical_to_the_golden_digest():
    digest = hashlib.sha256()
    for block in design_blocks():
        design = frank_wolfe_design(block)
        digest.update(repr((design.support, design.design_matrix.tobytes(),
                            design.g_value, design.retained_columns,
                            design.g_history, design.iterations)).encode())
    assert digest.hexdigest() == DESIGN_BLOCKS_SHA256


def assert_same_design(got, want):
    """Bitwise the same design, but that a design the start target
    certified carries that certificate's bound on want's solved g-value."""
    assert got.support == want.support
    assert got.design_matrix.shape == want.design_matrix.shape
    assert np.array_equal(got.design_matrix, want.design_matrix)
    assert got.retained_columns == want.retained_columns
    assert got.iterations == want.iterations
    if got.g_value == want.g_value:
        assert got.g_history == want.g_history
    else:
        assert got.iterations == 0 and got.g_history == (got.g_value,)
        assert want.g_value <= got.g_value < 2 * len(got.retained_columns)


def assert_stacks_match_single_blocks(blocks):
    """Each same-shape group of blocks, run as one stack, gives bitwise the
    designs of its blocks run alone."""
    groups: dict = {}
    for block in blocks:
        groups.setdefault(block.shape, []).append(block)
    for group in groups.values():
        for block, design in zip(group, frank_wolfe_designs(np.stack(group))):
            assert_same_design(design, frank_wolfe_design(block))


def test_a_stack_matches_its_blocks_run_alone():
    assert_stacks_match_single_blocks(design_blocks())
    for seed in range(3):       # the benchmark's design-elim instances
        phi = random_sparse_instance(40, 2, 500, 0.1, seed).features.matrix
        blocks = subset_blocks(phi, subsets_of_size(40, 2))
        designs = frank_wolfe_designs(blocks)
        assert all(design.support for design in designs)
        for block, design in zip(blocks, designs):
            assert_same_design(design, frank_wolfe_design(block))


def test_a_stack_matches_its_blocks_run_alone_on_two_blas_threads():
    """The same check in a fresh process, whose BLAS reads its thread count
    at start-up."""
    here = Path(__file__).resolve().parent
    package_root = Path(design_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here), str(package_root)]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    script = ("import test_design as t; "
              "t.assert_stacks_match_single_blocks(t.design_blocks())")
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=here,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_a_mixed_stack_matches_its_blocks_run_alone():
    """One stack with two retained ranks, a zero block, which gets the
    empty design in its place, and blocks that take Frank-Wolfe steps;
    their estimates match too."""
    rng = np.random.default_rng(10)
    stepping = rng.normal(size=(60, 5))      # as in the iteration-cap test
    stepping /= np.maximum(np.linalg.norm(stepping, axis=1, keepdims=True), 1.0)
    dependent = random_rows(np.random.default_rng(12), 60, 5)
    dependent[:, 2] = 0.5 * dependent[:, 0] - dependent[:, 3]
    blocks = np.stack([random_rows(np.random.default_rng(13), 60, 5), stepping,
                       np.zeros((60, 5)), dependent, stepping[::-1],
                       random_rows(np.random.default_rng(14), 60, 5)])
    designs = frank_wolfe_designs(blocks)
    assert designs[2].support == () and designs[2].retained_columns == ()
    assert designs[2] is design_mod._EMPTY_DESIGN
    assert len(designs[3].retained_columns) == 4
    assert designs[1].iterations > 0 and designs[4].iterations > 0
    for block, design in zip(blocks, designs):
        assert_same_design(design, frank_wolfe_designs(block[None])[0])
        if design.support:
            assert_same_design(design, frank_wolfe_design(block))

    theta = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
    depth = max(len(design.support) for design in designs)
    rows = np.zeros((len(blocks), depth, 5))
    rewards = np.zeros((len(blocks), depth))
    for i, design in enumerate(designs):
        picked = [a for a, _ in design.support]
        rows[i, :len(picked)] = blocks[i, picked]
        rewards[i, :len(picked)] = blocks[i, picked] @ theta + 0.01 * np.cos(picked)
    stacked = weighted_estimate(designs, rows, rewards)
    assert np.array_equal(stacked[2], np.zeros(5))
    for i, design in enumerate(designs):
        size = len(design.support)
        alone = weighted_estimate([design], rows[i:i + 1, :size], rewards[i:i + 1, :size])
        assert np.array_equal(stacked[i], alone[0])


STACK_KINDS = ("gaussian", "integers", "signs", "duplicated rows", "powers of two",
               "near rank one", "sparse")


def random_stack(kind, n, k, c, rng):
    """A stack (n, k, c) of one kind of block."""
    shape = (n, k, c)
    if kind == "integers":          # exact ties among rows and residuals
        return (rng.integers(-2, 3, size=shape) * (rng.random(shape) < 0.5)).astype(float)
    if kind == "signs":             # signed basis rows of norm 1/4 to 1, among small rows
        stack = np.eye(c)[rng.integers(c, size=(n, k))] * rng.choice([-1.0, 1.0], (n, k, 1))
        stack *= 2.0 ** -rng.integers(0, 3, size=(n, k, 1))
        small = rng.random((n, k)) < 0.3
        stack[small] = 0.1 * rng.normal(size=(small.sum(), c))
        return stack
    if kind == "duplicated rows":
        base = rng.normal(size=(n, max(1, k // 3), c))
        return base[:, rng.integers(base.shape[1], size=k)]
    if kind == "powers of two":     # rows scaled by 2^-20 to 2^20
        return rng.normal(size=shape) * 2.0 ** rng.integers(-20, 21, size=(n, k, 1))
    if kind == "near rank one":
        rank_one = rng.normal(size=(n, k, 1)) * rng.normal(size=(n, 1, c))
        return rank_one + 10.0 ** -rng.uniform(6, 12) * rng.normal(size=shape)
    if kind == "sparse":
        return rng.normal(size=shape) * (rng.random(shape) < 0.25)
    return rng.normal(size=shape)


# 25 draws of seven stacks of up to 19 blocks; a stack and its blocks run
# alone take well under 0.1 s, so the deadline only stops a lost run
@settings(derandomize=True, database=None, max_examples=25, deadline=5000)
@given(c=st.integers(1, 4), k=st.integers(1, 24), extra=st.integers(0, 3),
       zero=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_random_stacks_match_their_blocks_run_alone(c, k, extra, zero, seed):
    """Stacks of every kind, of at least CERTIFIED_START_BLOCKS blocks per
    column, so that each retained rank takes the stacked certificates, give
    each block bitwise the design of its run alone, which takes the QR and
    the solve; a stack that raises, raises a typed error."""
    rng = np.random.default_rng(seed)
    for kind in STACK_KINDS:
        stack = random_stack(kind, design_mod.CERTIFIED_START_BLOCKS * c + extra, k, c, rng)
        if zero:
            stack[rng.integers(len(stack))] = 0.0
        try:
            designs = frank_wolfe_designs(stack)
        except SparseBanditError:
            continue
        for block, design in zip(stack, designs):
            if not block.any():
                assert design is design_mod._EMPTY_DESIGN
            assert_same_design(design, frank_wolfe_designs(block[None])[0])


def test_zero_subset_gets_the_empty_design():
    # column 1 is zero on every row: the subset {1} predicts 0 and costs no query
    phi = np.array([[0.6, 0.0, 0.8], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    inst = build_instance(phi, np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.1)
    ledger = QueryLedger()
    design, theta = subset_estimate(inst, [1], ledger)
    assert design.support == () and design.retained_columns == ()
    assert np.array_equal(theta, [0.0])
    assert len(ledger) == 0
    # a subset with one live column keeps its Frank-Wolfe design
    assert frank_wolfe_designs(subset_blocks(phi, [[0, 1]]))[0].retained_columns == (0,)


def test_estimator_exact_recovery_noiseless():
    inst = random_sparse_instance(6, 2, 20, 1e-9, seed=8)
    exact = build_instance(inst.features, inst.theta_star, np.zeros(inst.k), 1.0)
    supp = list(exact.theta_star.support)
    ledger = QueryLedger()
    design, theta_hat = subset_estimate(exact, supp, ledger)
    assert np.max(np.abs(theta_hat - exact.theta_star.coords[supp])) < 1e-8
    assert len(ledger) == len(design.support)


def test_estimator_uniform_bound_under_misspecification():
    for seed in range(6):
        inst = random_sparse_instance(6, 2, 24, 0.05, seed=seed)
        supp = list(inst.theta_star.support)
        _, theta_hat = subset_estimate(inst, supp, QueryLedger())
        preds = inst.features.matrix[:, supp] @ theta_hat
        truth = inst.features.matrix @ inst.theta_star.coords
        err = np.max(np.abs(preds - truth))
        assert err <= 0.05 * np.sqrt(2 * 2) + 1e-9


def test_estimator_matches_scalar_weighted_regression():
    # d=3, s=1, two actions: hand-solved one-dimensional weighted fit
    phi = np.array([[0.9, 0.0, 0.0], [0.4, 0.0, 0.0]])
    theta = np.array([0.7, 0.0, 0.0])
    nu = np.array([0.02, -0.01])
    inst = build_instance(phi, theta, nu, 0.05)
    design, theta_hat = subset_estimate(inst, [0], QueryLedger())
    num = sum(w * float(inst.rewards[i]) * phi[i, 0] for i, w in design.support)
    den = sum(w * phi[i, 0] ** 2 for i, w in design.support)
    assert theta_hat[0] == pytest.approx(num / den, rel=1e-12)


def test_core_set_bound_values():
    assert core_set_bound(1) == 17
    assert core_set_bound(2) == 17
    assert core_set_bound(4) == 22
