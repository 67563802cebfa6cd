"""Bandit environment: feature matrices, sparse ground truth, rewards, ledgers.

The instance is the only source of rewards in the package. Rewards are
precomputed at construction (reward_i = <row_i, theta*> + misspec_i) and
immutable, so every bound check downstream is exact and repeatable. Instances
are safe to share read-only across runs; each run owns its own QueryLedger
(and, for noisy instances, the ledger owns the run's private noise stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    MisspecificationBoundError,
    NormBoundError,
    SparsityError,
    ValidationError,
)

NORM_TOL = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """Reward noise. kind="none" keeps queries deterministic and repeatable;
    kind="gaussian" adds one fresh unit-variance draw per query."""

    kind: str = "none"
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        if not math.isfinite(self.scale):
            raise ValidationError(f"noise scale must be finite, got {self.scale}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Ordered action features, one row per action, each with norm <= 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] < 1:
            raise DimensionMismatchError("feature matrix must be 2-d with k >= 1 rows")
        if not np.all(np.isfinite(m)):
            raise ValidationError("feature matrix has non-finite entries")
        norms = np.linalg.norm(m, axis=1)
        if np.any(norms > 1.0 + NORM_TOL):
            worst = int(np.argmax(norms))
            raise NormBoundError(
                f"action row {worst} has norm {norms[worst]:.12g} > 1")

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SparseParameter:
    """Ground-truth parameter with exactly |support| nonzero coordinates."""

    coords: np.ndarray
    support: tuple = field(init=False)

    # The norm bound is waived for embedded lower-bound instances, which
    # plant a parameter of norm 2*Delta; the instance records the bypass.
    skip_norm_check: bool = False

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
        object.__setattr__(self, "coords", c)
        if c.ndim != 1:
            raise DimensionMismatchError("parameter must be a vector")
        if not np.all(np.isfinite(c)):
            raise ValidationError("parameter has non-finite entries")
        support = tuple(int(i) for i in np.nonzero(c)[0])
        object.__setattr__(self, "support", support)
        if not support:
            raise SparsityError("parameter has empty support")
        if not self.skip_norm_check and np.linalg.norm(c) > 1.0 + NORM_TOL:
            raise NormBoundError(
                f"parameter norm {np.linalg.norm(c):.12g} exceeds 1")

    @property
    def s(self) -> int:
        return len(self.support)

    @property
    def d(self) -> int:
        return self.coords.shape[0]


class QueryLedger:
    """Append-only record of (action index, reward) per query.

    One ledger per run; its length is the run's sample complexity. For noisy
    instances the ledger also owns the run's private noise stream, seeded
    with the instance's noise seed on the first noisy query, so two ledgers
    on one instance see the same draws.
    """

    def __init__(self):
        self.entries: list[tuple[int, float]] = []
        self._rng = None

    def __len__(self) -> int:
        return len(self.entries)

    def noise_rng(self, seed: int):
        if self._rng is None:
            self._rng = np.random.default_rng(seed)
        return self._rng


@dataclass(frozen=True)
class Event:
    """One learner step: its kind ("elimination" or "round"), its 0-based
    step number, and its fields in the order the detail CSV prints them."""

    kind: str
    step: int
    fields: dict


@dataclass(frozen=True)
class BanditInstance:
    """Deterministic reward table r_i = <row_i, theta*> + misspec_i.

    max_i |misspec_i| <= epsilon, for a finite epsilon > 0, is enforced at
    construction; a nan or infinite misspec_i never satisfies it. Optional
    metadata records how lower-bound embeddings deviate from the default
    parameter invariants.
    """

    features: FeatureMatrix
    theta_star: SparseParameter
    misspec: np.ndarray
    epsilon: float
    noise: NoiseModel = NoiseModel()
    rewards: np.ndarray = field(init=False)
    theta_norm_bypassed: bool = False
    orthogonality: float | None = None

    def __post_init__(self):
        nu = np.ascontiguousarray(np.asarray(self.misspec, dtype=np.float64))
        object.__setattr__(self, "misspec", nu)
        if self.theta_star.d != self.features.d:
            raise DimensionMismatchError(
                f"parameter dimension {self.theta_star.d} != feature dimension {self.features.d}")
        if nu.shape != (self.features.k,):
            raise DimensionMismatchError(
                f"misspecification length {nu.shape} != number of actions {self.features.k}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError(f"epsilon must be finite and > 0, got {self.epsilon}")
        worst = np.max(np.abs(nu))
        if not worst <= self.epsilon:
            raise MisspecificationBoundError(
                f"misspecification exceeds epsilon: max |nu| = "
                f"{worst:.12g} is not <= {self.epsilon:.12g}")
        rewards = self.features.matrix @ self.theta_star.coords + nu
        rewards.setflags(write=False)
        object.__setattr__(self, "rewards", rewards)

    @property
    def k(self) -> int:
        return self.features.k

    @property
    def d(self) -> int:
        return self.features.d

    @property
    def s(self) -> int:
        return self.theta_star.s

    @property
    def deterministic(self) -> bool:
        return self.noise.kind == "none"


def build_instance(features, theta_star, misspec, epsilon, noise=None) -> BanditInstance:
    """Validate all model invariants and precompute the reward table."""
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(np.asarray(features))
    if not isinstance(theta_star, SparseParameter):
        theta_star = SparseParameter(np.asarray(theta_star))
    return BanditInstance(
        features=features,
        theta_star=theta_star,
        misspec=np.asarray(misspec, dtype=np.float64),
        epsilon=float(epsilon),
        noise=noise if noise is not None else NoiseModel(),
    )


def query(instance: BanditInstance, index: int, ledger: QueryLedger) -> float:
    """Query one action; returns its reward and appends one ledger entry."""
    index = int(index)
    if not 0 <= index < instance.k:
        raise IndexError(f"action index {index} out of range [0, {instance.k})")
    reward = float(instance.rewards[index])
    if instance.noise.kind == "gaussian":
        rng = ledger.noise_rng(instance.noise.seed)
        reward += instance.noise.scale * float(rng.normal())
    ledger.entries.append((index, reward))
    return reward


def brute_force_best(instance: BanditInstance) -> tuple[int, float]:
    """Argmax over the full reward table; ties broken by lowest index.

    Harness-side oracle only (reads the table without querying); requires a
    deterministic instance.
    """
    if not instance.deterministic:
        raise ValidationError("brute_force_best requires a deterministic instance")
    best = int(np.argmax(instance.rewards))
    return best, float(instance.rewards[best])


def uniform_error(instance: BanditInstance, predictions) -> float:
    """max over actions of |r_a - pred_a|: the one error formula. Harness-side
    only (reads the reward table); a learner returns its predictions."""
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.shape != (instance.k,):
        raise DimensionMismatchError(
            f"predictions shape {predictions.shape} != ({instance.k},) actions")
    return float(np.max(np.abs(instance.rewards - predictions)))


def random_sparse_instance(d, s, k, epsilon, seed, *, noise=None,
                           basis_probes=True) -> BanditInstance:
    """Seeded random instance for the harness.

    Rows are unit vectors; with basis_probes the first 2d rows are the signed
    standard basis (these populate every restriction's extreme values, which
    keeps elimination runs informative). theta* sits on a random support of
    size s with unit norm, so nets can be seeded with its restriction.
    """
    if not 1 <= s <= d:
        raise ValidationError("need 1 <= s <= d")
    if k < (2 * d if basis_probes else 1):
        raise ValidationError("k too small for the requested probe rows")
    rng = np.random.default_rng(seed)
    rows = []
    if basis_probes:
        eye = np.eye(d)
        rows.extend(eye)
        rows.extend(-eye)
    n_random = k - len(rows)
    g = rng.normal(size=(n_random, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    rows.extend(g)
    phi = np.asarray(rows)

    support = np.sort(rng.choice(d, size=s, replace=False))
    vals = rng.normal(size=s)
    vals /= np.linalg.norm(vals)
    theta = np.zeros(d)
    theta[support] = vals

    nu = rng.uniform(-epsilon, epsilon, size=k)
    return build_instance(phi, theta, nu, epsilon, noise=noise)


# -- serialization -----------------------------------------------------------

_MAGIC = "sparse-bandit-instance v1"


def _fmt(x) -> str:
    """One spelling for every written value: .17g reals, true/false."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def finite_real(key, token):
    value = float(token)
    if not math.isfinite(value):   # inf, nan and an overflowing 1e400
        raise ValueError(f"expected a finite real, got {token!r}")
    return value


def positive_real(key, token):
    if not finite_real(key, token) > 0:
        raise ValueError(f"{key} must be > 0, got {token}")
    return float(token)


def at_least(low):
    def read(key, token):
        if int(token) < low:
            raise ValueError(f"{key} must be >= {low}, got {token}")
        return int(token)
    return read


def flag(key, token):
    if token not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {token!r}")
    return token == "1"


def one_of(*options):
    def read(key, token):
        if token not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {token!r}")
        return token
    return read


def text(key, token):
    return token


def comma_list(read):
    def read_list(key, token):
        return [read(key, entry) for entry in token.split(",")]
    return read_list


def read_lines(path, error):
    """The lines of a UTF-8 text file. A byte sequence that is not UTF-8
    raises error(message, line number); a file that cannot be opened
    raises OSError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                    data.count(b"\n", 0, exc.start) + 1) from None


def read_key_values(lines, table, error):
    """Read numbered `key value` lines against table, which maps each key to
    a value reader: reader(key, token) returns the value or raises ValueError
    naming the rule the token breaks. lines yields (line number, text).

    Returns (values, line numbers), dicts by key. A malformed line, an unknown
    or repeated key, or a refused value raises error(message, line number)."""
    values, line_of = {}, {}
    for line_no, line in lines:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise error(f"expected 'key value', got {line!r}", line_no)
        key, token = parts[0], parts[1].strip()
        if key in values:
            raise error(f"duplicate key {key!r}", line_no)
        if key not in table:
            raise error(f"key {key!r}: unknown key", line_no)
        try:
            values[key] = table[key](key, token)
        except ValueError as exc:
            raise error(f"bad value for {key!r}: {exc}", line_no) from None
        line_of[key] = line_no
    return values, line_of


def save_instance(instance: BanditInstance, path) -> None:
    """Write the instance as structured text, 17 significant digits per real.

    The decimal format round-trips IEEE doubles bit-exactly.
    """
    lines = [_MAGIC,
             f"k {instance.k}",
             f"d {instance.d}",
             f"s {instance.s}",
             f"epsilon {_fmt(instance.epsilon)}",
             f"noise {instance.noise.kind}",
             f"noise_scale {_fmt(instance.noise.scale)}",
             f"seed {instance.noise.seed}"]
    if instance.orthogonality is not None:
        lines.append(f"orthogonality {_fmt(instance.orthogonality)}")
    if instance.theta_norm_bypassed:
        lines.append("theta_norm_bypassed 1")
    lines.append("phi")
    for row in instance.features.matrix:
        lines.append(" ".join(_fmt(v) for v in row))
    lines.append("theta")
    lines.append(" ".join(_fmt(v) for v in instance.theta_star.coords))
    lines.append("nu")
    lines.append(" ".join(_fmt(v) for v in instance.misspec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


INSTANCE_HEADER = {
    "k": at_least(1), "d": at_least(1), "s": at_least(1), "epsilon": positive_real,
    "noise": one_of("none", "gaussian"), "noise_scale": finite_real,
    "seed": at_least(0), "orthogonality": finite_real, "theta_norm_bypassed": flag}


class InstanceParseError(ValidationError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def load_instance(path) -> BanditInstance:
    """Parse an instance file; errors carry 1-based line numbers."""
    raw = read_lines(path, InstanceParseError)
    if not raw or raw[0].strip() != _MAGIC:
        raise InstanceParseError(f"expected header {_MAGIC!r}", 1)

    pos = 1
    while pos < len(raw) and raw[pos].strip() != "phi":
        pos += 1
    header, _ = read_key_values(enumerate(raw[1:pos], start=2),
                                INSTANCE_HEADER, InstanceParseError)
    if pos >= len(raw):
        raise InstanceParseError("missing 'phi' section", len(raw))
    for key in ("k", "d", "s", "epsilon"):
        if key not in header:
            raise InstanceParseError(f"missing header key {key!r}", pos)
    k, d, s = header["k"], header["d"], header["s"]
    bypass = header.get("theta_norm_bypassed", False)

    def parse_row(line_idx, expected_len, what):
        row = raw[line_idx].split() if line_idx < len(raw) else []
        try:
            if len(row) != expected_len:
                raise ValueError(f"{len(row)} values, expected {expected_len}")
            return [finite_real(what, v) for v in row]
        except ValueError as exc:
            raise InstanceParseError(f"bad {what} row: {exc}", line_idx + 1) from None

    def section(line_idx, name, length):
        if line_idx >= len(raw) or raw[line_idx].strip() != name:
            raise InstanceParseError(f"missing {name!r} section", line_idx + 1)
        return np.asarray(parse_row(line_idx + 1, length, name))

    phi = np.asarray([parse_row(pos + 1 + i, d, "phi") for i in range(k)])
    theta = section(pos + 1 + k, "theta", d)
    nu = section(pos + 3 + k, "nu", k)

    inst = BanditInstance(
        features=FeatureMatrix(phi),
        theta_star=SparseParameter(theta, skip_norm_check=bypass),
        misspec=nu,
        epsilon=header["epsilon"],
        noise=NoiseModel(kind=header.get("noise", "none"),
                         scale=header.get("noise_scale", 1.0),
                         seed=header.get("seed", 0)),
        theta_norm_bypassed=bypass,
        orthogonality=header.get("orthogonality"),
    )
    if inst.s != s:
        raise InstanceParseError(
            f"declared sparsity {s} != parameter support size {inst.s}", pos + 4 + k)
    return inst
