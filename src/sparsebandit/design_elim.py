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
from dataclasses import dataclass

import numpy as np

from .design import (
    SUBSET_CHUNK,
    core_set_bound,
    design_for_subsets,
    estimate_parameter,
    subset_blocks,
)
from .errors import EmptySurvivorError, GuardExceededError, ValidationError
from .model import BanditInstance, Event, QueryLedger, query
from .param_elim import subsets_of_size

SUBSET_GUARD = 10 ** 5


def check_subset_guard(d: int, s: int) -> None:
    """Refuse more than SUBSET_GUARD size-s subsets (also general-features)."""
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
    """First (primary, rival, action) with |preds gap| > threshold, or None.

    Subsets scan in lexicographic order for both roles, actions by row.
    Primaries before ``start`` are skipped: a caller passes the last primary
    once every alive subset before it is known to have no gap against any
    alive rival, which stays true as long as subsets only die. Rivals before
    ``rival_start`` are skipped for the primary ``start`` alone: a caller
    passes the last rival once every rival before it is dead or has no gap
    against that primary. Later primaries scan from rival 0.
    """
    n_sub = preds.shape[0]
    for m in range(start, n_sub):
        if not alive[m]:
            continue
        for mp in range(rival_start if m == start else 0, n_sub):
            if mp == m or not alive[mp]:
                continue
            gaps = np.abs(preds[mp] - preds[m]) > threshold
            if gaps.any():
                return m, mp, int(np.argmax(gaps))
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
    for lo in range(0, len(subsets), SUBSET_CHUNK):
        chunk = subsets[lo:lo + SUBSET_CHUNK]
        blocks = subset_blocks(instance.features.matrix, chunk)
        thetas = estimate_parameter(instance, blocks, design_for_subsets(blocks), ledger)
        np.matmul(blocks, thetas[:, :, None], out=preds[lo:lo + len(chunk), :, None])
        estimates.update(zip(chunk, thetas))
    phase1_queries = len(ledger)

    # each step resumes the scan at the last (primary, rival): every alive
    # subset before the primary has no gap, every rival before the rival is
    # dead or has no gap with the primary, and since rivals only die and
    # predictions never change it stays so
    alive = np.ones(len(subsets), dtype=bool)
    cursor = rival_cursor = 0
    log: list[Event] = []
    while True:
        found = first_prediction_gap(preds, alive, gap_thr, cursor, rival_cursor)
        if found is None:
            break
        m, mp, x = found
        cursor, rival_cursor = m, mp
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
