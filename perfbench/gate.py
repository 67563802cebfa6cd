"""Correctness gate: decides whether one learner run counts as failed.

A run fails when its entry point exits non-zero, when its error exceeds its
bound (or the CLI's ``bound_satisfied`` says so), when it issues more queries
than the paper's query scale for its learner, or -- at the default seed --
when its output bytes differ from the digest recorded in ``records.json``.
The query scales are written out here from the paper, independently of the
library's own guard helpers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

DEFAULT_SEED = 0

# frozen constant of the compressed-stage acceptance criterion
# (tests/test_acceptance.py): error <= KAPPA_COMPRESSED * unit
KAPPA_COMPRESSED = 2.0
COMPRESSED_BUDGET = 1200


def core_set_size(s: int) -> int:
    """ceil(4 s loglog s) + 16, with loglog taken at max(s, 3)."""
    return math.ceil(4 * s * math.log(math.log(max(s, 3))) + 16)


def query_scale(algorithm: str, d: int, s: int, epsilon: float) -> float:
    """The paper's query count for one run of ``algorithm``."""
    if algorithm == "param-elim":
        return (4.0 / epsilon + 1.0) ** s * math.comb(d, s)
    if algorithm == "design-elim":
        return (core_set_size(s) + 1) * math.comb(d, s)
    if algorithm == "general-features":
        # the elimination budget: z design estimates in the compressed
        # dimension q <= d, independent of k
        return core_set_size(s) * core_set_size(d)
    if algorithm == "compressed":
        return COMPRESSED_BUDGET
    raise ValueError(f"no query scale for {algorithm!r}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_row(algorithm: str, row: dict) -> str | None:
    """Reason the CSV row fails the gate, or None when it passes."""
    d, s = int(row["d"]), int(row["s"])
    epsilon = float(row["epsilon"])
    error, bound = float(row["uniform_error"]), float(row["bound"])
    if row["bound_satisfied"] != "true" or not error <= bound:
        return f"error {error:.6g} over bound {bound:.6g}"
    scale = query_scale(algorithm, d, s, epsilon)
    if int(row["queries"]) > scale:
        return f"{row['queries']} queries over the paper's scale {scale:.6g}"
    return None


def check_cli_output(algorithm: str, point: tuple, data: bytes,
                     expected_digest: str | None) -> str | None:
    """Reason one grid point's CSV fails the gate, or None when it passes.

    ``point`` is the expected (d, s, epsilon, k, seed); ``expected_digest``
    is checked when not None.
    """
    if expected_digest is not None and digest(data) != expected_digest:
        return "csv bytes differ from the recorded digest"
    rows = parse_rows(data)
    if len(rows) != 1:
        return f"csv has {len(rows)} rows, expected 1"
    row = rows[0]
    got = (int(row["d"]), int(row["s"]), float(row["epsilon"]), int(row["k"]),
           int(row["seed"]))
    if row["algorithm"] != algorithm or got != point:
        return f"unexpected row {row['algorithm']} {got}"
    return check_row(algorithm, row)


def error_ratio(row: dict) -> float:
    return float(row["uniform_error"]) / float(row["bound"])


def compressed_bound(k: int, epsilon: float, p: int | None = None,
                     queries: int = 0) -> float:
    """KAPPA_COMPRESSED * ((log k)^(1/4) sqrt(eps) + eps) for a noiseless run.

    With reward noise (``p`` given) the unit is the acceptance suite's noisy
    threshold: the eps term gives way to sqrt((p / t) log(k n)) at t queries.
    """
    base = math.log(k) ** 0.25 * math.sqrt(epsilon)
    if p is None:
        return KAPPA_COMPRESSED * (base + epsilon)
    spread = (p / max(queries, 1)) * math.log(k * COMPRESSED_BUDGET)
    return KAPPA_COMPRESSED * (base + math.sqrt(spread))


def check_compressed(error: float, bound: float, queries: int) -> str | None:
    if not error <= bound:
        return f"error {error:.6g} over bound {bound:.6g}"
    if queries > query_scale("compressed", 0, 0, 0.0):
        return f"{queries} queries over the budget {COMPRESSED_BUDGET}"
    return None
