"""Subset elimination with design-based estimates.

Phase 1 estimates one restricted parameter per size-s index subset from a
near-optimal design (a handful of queries each). Phase 2 repeatedly queries
an action on which two surviving subsets' predictions disagree by more than
2*eps*(1+sqrt(2s)) and eliminates the side the observed reward contradicts.
The survivor predicts every reward within 3*eps*(1+sqrt(2s)) using
O(s log s) * (d choose s) queries overall, with no dependence on 1/eps in
the query count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .design import (
    core_set_bound,
    estimate_parameter,
    frank_wolfe_designs,
    subset_chunks,
)
from .errors import EmptySurvivorError, GuardExceededError, ValidationError
from .model import BanditInstance, Event, QueryLedger, query
from .param_elim import subsets_of_size

SUBSET_GUARD = 10 ** 5
# alive rivals per block of a gap search
RIVAL_BLOCK = 32


def check_subset_guard(d: int, s: int) -> None:
    """Refuse an s that is not an integer in 1..d, and more than
    SUBSET_GUARD size-s subsets (also general-features)."""
    if not isinstance(s, numbers.Integral):
        raise ValidationError(f"need 1 <= s <= d = {d}, got s = {s}, not an integer")
    if not 1 <= s <= d:
        raise ValidationError(f"need 1 <= s <= d = {d}, got s = {s}")
    n_subsets = math.comb(d, s)
    if n_subsets > SUBSET_GUARD:
        raise GuardExceededError(
            f"{n_subsets} subsets exceed the desk-scale guard {SUBSET_GUARD}")


@dataclass
class DesignElimResult:
    index_set: tuple
    theta_hat: np.ndarray
    queries: int
    phase1_queries: int
    estimates: dict       # subset tuple -> estimate (length s)
    subsets: tuple
    alive: np.ndarray
    log: list
    predictions: np.ndarray   # one per action, <a_M, theta_hat>


def first_prediction_gap(preds: np.ndarray, alive: np.ndarray, threshold: float,
                         start: int = 0, rival_start: int = 0):
    """The first block of rivals with a prediction gap above threshold
    against the first primary that has one: (primary, rivals, actions), or
    None when no alive pair has a gap.

    Subsets scan in lexicographic order for both roles. A primary's alive
    rivals (itself excluded) are cut, in index order, into blocks of
    RIVAL_BLOCK; the first block holding a rival with a gap gives the
    rivals in it that have one, ascending, each with the first action (by
    row) where it does. Primaries before ``start`` are skipped: a caller
    passes the last primary once every alive subset before it is known to
    have no gap against any alive rival, which stays true as long as
    subsets only die. Rivals before ``rival_start`` are skipped for the
    primary ``start`` alone: a caller passes it once every rival before it
    is dead or has no gap against that primary. Later primaries scan from
    rival 0.
    """
    for m in (np.flatnonzero(alive[start:]) + start).tolist():
        lo = rival_start if m == start else 0
        rivals = np.flatnonzero(alive[lo:]) + lo
        rivals = rivals[rivals != m]
        for b in range(0, rivals.size, RIVAL_BLOCK):
            block = rivals[b:b + RIVAL_BLOCK]
            gaps = np.abs(preds[block] - preds[m]) > threshold
            hit = gaps.any(axis=1)
            if hit.any():
                return m, block[hit], gaps[hit].argmax(axis=1)
    return None


def run_design_elimination(instance: BanditInstance, ledger: QueryLedger) -> DesignElimResult:
    if not instance.deterministic:
        raise ValidationError("design elimination requires a noiseless instance")
    d, s = instance.d, instance.s
    check_subset_guard(d, s)
    subsets = subsets_of_size(d, s)
    eps = instance.epsilon
    kill_thr = eps * (1.0 + math.sqrt(2.0 * s))
    gap_thr = 2.0 * kill_thr

    preds = np.empty((len(subsets), instance.k))
    estimates: dict = {}
    # designs and estimates run a chunk of subsets at a time; the queries
    # keep their order, subset by subset and each design in support order
    for lo, blocks in subset_chunks(instance.features.matrix, subsets):
        hi = lo + len(blocks)
        thetas = estimate_parameter(instance, blocks, frank_wolfe_designs(blocks), ledger)
        np.matmul(blocks, thetas[:, :, None], out=preds[lo:hi, :, None])
        estimates.update(zip(subsets[lo:hi], thetas))
    phase1_queries = len(ledger)

    # each search resumes at the last primary and, while it lives, past its
    # last rival: every alive subset before the primary has no gap, every
    # rival before the cursor is dead or has no gap with the primary, and
    # since subsets only die and predictions never change it stays so. The
    # rivals a search returns are walked in order until the primary dies:
    # a step kills only its rival or the primary, so every later rival of
    # the block is still alive and is the one a fresh search would find.
    alive = np.ones(len(subsets), dtype=bool)
    cursor = rival_cursor = 0
    log: list[Event] = []
    while True:
        found = first_prediction_gap(preds, alive, gap_thr, cursor, rival_cursor)
        if found is None:
            break
        m, rivals, actions = found
        cursor, rival_cursor = m, int(rivals[-1]) + 1
        for mp, x in zip(rivals.tolist(), actions.tolist()):
            if not alive[m]:
                break
            reward = query(instance, x, ledger)
            killed = []
            if abs(reward - preds[m, x]) <= kill_thr:
                alive[mp] = False
                killed.append(mp)
            else:
                alive[m] = False
                killed.append(m)
                if abs(reward - preds[mp, x]) > kill_thr:
                    alive[mp] = False
                    killed.append(mp)
            log.append(Event("elimination", len(log), {
                "action": x, "reward": reward, "primary": m, "rival": mp,
                "killed": tuple(killed)}))

    if not alive.any():
        raise EmptySurvivorError(
            "both subsets of the final disagreement were eliminated; "
            "see the run log")
    survivor = int(np.argmax(alive))
    index_set = subsets[survivor]
    theta_hat = estimates[index_set]
    return DesignElimResult(
        index_set=index_set,
        theta_hat=theta_hat,
        queries=len(ledger),
        phase1_queries=phase1_queries,
        estimates=estimates,
        subsets=subsets,
        alive=alive,
        log=log,
        predictions=instance.features.matrix[:, list(index_set)] @ theta_hat,
    )


def query_bound(d: int, s: int) -> int:
    """Worst-case ledger length: one design estimate per subset plus one
    elimination query per removed subset."""
    return (core_set_bound(s) + 1) * math.comb(d, s)
