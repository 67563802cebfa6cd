"""Action elimination in compressed feature space.

Each round solves a design over the active actions' compressed features,
estimates the compressed parameter from one query per design-support action,
and drops every action whose estimated reward trails the best by more than a
threshold. The noiseless threshold is C * (log k)^(1/4) * sqrt(eps); with
Gaussian reward noise it widens by sqrt((p/t) * log(k*n)) at cumulative query
count t, which shrinks as evidence accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compression import CompressionMap
from .design import frank_wolfe_design, weighted_estimate
from .errors import ValidationError
from .model import BanditInstance, Event, QueryLedger, query, uniform_error


@dataclass
class CompressedElimResult:
    theta_f: np.ndarray          # last-round estimate (drives the survivors)
    theta_first: np.ndarray      # round-1 estimate from the full-set design;
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


def run_benign_elimination(instance: BanditInstance, cmap: CompressionMap,
                           n: int, ledger: QueryLedger, *,
                           C_const: float = 2.0,
                           row_indices=None) -> CompressedElimResult:
    """Eliminate actions in compressed space within a query budget of n.

    row_indices restricts (or repeats) the instance's actions; thresholds use
    the size of that list as k. Rounds stop at the budget, at a singleton
    active set, or at a fixed point, whichever happens first.
    """
    if n < 1:
        raise ValidationError("query budget must be at least 1")
    if row_indices is None:
        row_indices = np.arange(instance.k)
    row_indices = np.asarray(row_indices, dtype=np.intp)
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
        design = frank_wolfe_design(frows[active])
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
