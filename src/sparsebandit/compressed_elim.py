"""Action elimination in compressed feature space.

Each round solves a design over the active actions' compressed features,
estimates the compressed parameter from one query per design-support action,
and drops every action whose estimated reward trails the best by more than a
threshold. The noiseless threshold is C * (log k)^(1/4) * sqrt(eps); with
Gaussian reward noise it widens by sqrt((p/t) * log(k*n)) at cumulative query
count t, which shrinks as evidence accumulates.

Round 0 designs the map applied to every listed action, which depends on
no reward. The map keeps that design with its compressed rows, so a later
run on the same map over byte-identical rows (the noisy run after the
clean one, say) reuses it instead of solving it again; every other round
is solved afresh. A new map starts with nothing stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compression import CompressionMap
from .design import DesignDistribution, frank_wolfe_design, weighted_estimate
from .errors import DimensionMismatchError, ValidationError
from .model import BanditInstance, Event, QueryLedger, query, uniform_error


@dataclass
class CompressedElimResult:
    theta_f: np.ndarray          # last-round estimate (drives the survivors)
    theta_first: np.ndarray      # round-0 estimate from the full-set design;
                                 # the only one uniformly sound on every row
    surviving: np.ndarray        # positions into the supplied row list
    rounds: int
    queries: int
    log: list
    soundness_ok: bool
    final_threshold: float


def noiseless_threshold(C_const: float, k: int, epsilon: float) -> float:
    return C_const * math.log(k) ** 0.25 * math.sqrt(epsilon)


def noisy_threshold(C_const: float, k: int, epsilon: float, p: int, t: int,
                    n: int) -> float:
    base = math.log(k) ** 0.25 * math.sqrt(epsilon)
    return C_const * (base + math.sqrt((p / max(t, 1)) * math.log(k * n)))


def _checked_rows(k: int, row_indices) -> np.ndarray:
    """row_indices as intp action indices; every action when None."""
    if row_indices is None:
        return np.arange(k)
    idx = np.asarray(row_indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ValidationError("row_indices must be a non-empty 1-d list of actions")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValidationError(
            f"row_indices must be integer action indices, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= k:
        raise ValidationError(
            f"row_indices must lie in [0, {k}), got {idx.min()}..{idx.max()}")
    return idx.astype(np.intp, copy=False)


def _round0_design(cmap: CompressionMap, block: np.ndarray) -> DesignDistribution:
    """The design of round 0's block, solved once per map and row bytes.

    The key is the bytes, not the values: -0.0 == 0.0, but a design is
    reused only for rows it was solved on bit for bit.
    """
    key = (block.shape, block.tobytes())
    if cmap._round0 is not None and cmap._round0[0] == key:
        return cmap._round0[1]
    design = frank_wolfe_design(block)
    object.__setattr__(cmap, "_round0", (key, design))    # the map is frozen
    return design


def run_benign_elimination(instance: BanditInstance, cmap: CompressionMap,
                           n: int, ledger: QueryLedger, *,
                           C_const: float = 2.0,
                           row_indices=None) -> CompressedElimResult:
    """Eliminate actions in compressed space within a query budget of n.

    row_indices restricts (or repeats) the instance's actions; thresholds use
    the size of that list as k. Rounds stop at the budget, at a singleton
    active set, or at a fixed point, whichever happens first. Round 0's
    design is taken from cmap when an earlier run on it designed the same
    compressed rows.
    """
    if n < 1:
        raise ValidationError("query budget must be at least 1")
    if cmap.d != instance.d:
        raise DimensionMismatchError(
            f"map takes {cmap.d} features but the instance has d = {instance.d}")
    row_indices = _checked_rows(instance.k, row_indices)
    rows = instance.features.matrix[row_indices]
    frows = cmap.apply(rows)                    # (k', p)
    k_eff = len(row_indices)
    noisy = instance.noise.kind == "gaussian"
    eps = instance.epsilon

    active = np.arange(k_eff)
    theta_first = None
    used = 0
    log: list[Event] = []
    soundness_ok = True
    threshold = noiseless_threshold(C_const, k_eff, eps)

    round_idx = 0
    while True:
        block = frows[active]
        design = (_round0_design(cmap, block) if round_idx == 0
                  else frank_wolfe_design(block))
        support_size = len(design.support)
        if used + support_size > n:
            if round_idx == 0:
                raise ValidationError(
                    f"budget {n} cannot cover one design estimate "
                    f"({support_size} queries)")
            break
        support = active[[pos for pos, _ in design.support]]
        rewards = [query(instance, int(row_indices[pos]), ledger)
                   for pos in support]
        used += support_size
        theta_f = weighted_estimate([design], frows[support][None], [rewards])[0]
        if theta_first is None:
            theta_first = theta_f

        if noisy:
            threshold = noisy_threshold(C_const, k_eff, eps, cmap.p, used, n)
        preds = frows[active] @ theta_f
        keep = preds.max() - preds <= threshold

        # soundness dial: while every estimate is within half a threshold of
        # its reward, the top reward cannot be eliminated
        truth = instance.rewards[row_indices[active]]
        worst = float(np.max(np.abs(truth - preds)))
        if 2.0 * worst <= threshold and not keep[truth == truth.max()].any():
            soundness_ok = False

        new_active = active[keep]
        log.append(Event("round", round_idx, {
            "active_before": active.size, "active_after": new_active.size,
            "threshold": threshold, "cumulative_queries": used}))
        stalled = new_active.size == active.size
        active = new_active
        round_idx += 1
        if active.size <= 1 or stalled or used >= n:
            break

    return CompressedElimResult(
        theta_f=theta_f,
        theta_first=theta_first,
        surviving=active,
        rounds=round_idx,
        queries=used,
        log=log,
        soundness_ok=soundness_ok,
        final_threshold=threshold,
    )


def compressed_uniform_error(instance: BanditInstance, cmap: CompressionMap,
                             theta_f) -> float:
    """Harness-side: max |r_a - <f(a), theta_f>| over every action."""
    return uniform_error(instance, cmap.apply(instance.features.matrix)
                         @ np.asarray(theta_f, dtype=np.float64))
