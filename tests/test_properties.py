"""Property-based checks of the two text inputs: configs and instance files.

Every example is tiny (k <= 16). Huge integers go only to keys that allocate
nothing (seeds, budget, pool_size); d, s and k take values that the reader
refuses before anything is built, so no example asks numpy for a huge array.
"""

import contextlib
import io
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebandit import NoiseModel, load_instance, random_sparse_instance, save_instance
from sparsebandit.cli import ALGORITHMS, main
from sparsebandit.errors import ValidationError

EXTREMES = ("0", "-1", "inf", "-inf", "nan", "1e-300", "1e300")
HUGE = (str(10 ** 30), str(2 ** 63), "9" * 5000)
ORDINARY = ("1", "0.5")   # drawn half the time, so that many examples run
ALLOCATE_NOTHING = ("seeds", "budget", "pool_size")
FUZZED_KEYS = ("d", "s", "epsilon", "k", "delta", "c_const", "c_jl", "c", "tau",
               "hard_delta", "kappa", "seed_net", "measure_time") + ALLOCATE_NOTHING
GRID_KEYS = ("d", "s", "epsilon", "k", "delta", "seeds")

PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def config_overrides(draw):
    keys = draw(st.lists(st.sampled_from(FUZZED_KEYS), min_size=1, max_size=3, unique=True))
    overrides = {}
    for key in keys:
        pool = EXTREMES + HUGE if key in ALLOCATE_NOTHING else EXTREMES
        entry = st.one_of(st.sampled_from(pool), st.sampled_from(ORDINARY))
        entries = draw(st.lists(entry, min_size=1, max_size=2 if key in GRID_KEYS else 1))
        overrides[key] = ",".join(entries)
    return overrides


@settings(PROPERTY, max_examples=120)
@given(algorithm=st.sampled_from(ALGORITHMS), overrides=config_overrides())
def test_config_with_extreme_values_exits_cleanly(algorithm, overrides):
    """run returns 0-3 without a traceback, and an exit-0 run writes one row
    per grid point."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        entries = {"algorithm": algorithm, "d": "2", "s": "1", "epsilon": "0.5",
                   "k": "6", "seeds": "0", **overrides, "output": str(out)}
        cfg = Path(tmp) / "cfg.txt"
        cfg.write_text("".join(f"{key} {value}\n" for key, value in entries.items()))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(cfg)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            points = math.prod(len(entries.get(key, "default").split(","))
                               for key in GRID_KEYS)
            assert len(out.read_text().splitlines()) == 1 + points


def saved_text(instance):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.txt"
        save_instance(instance, path)
        return path.read_text()


# every header key present: noisy, with an orthogonality level and the bypass
FULL_HEADER = saved_text(replace(random_sparse_instance(3, 2, 8, 0.2, seed=4),
                                 noise=NoiseModel("gaussian", 0.5, 3),
                                 orthogonality=0.25, theta_norm_bypassed=True))


def is_finite(instance):
    reals = [instance.features.matrix, instance.theta_star.coords, instance.misspec,
             instance.epsilon, instance.noise.scale]
    if instance.orthogonality is not None:
        reals.append(instance.orthogonality)
    return all(np.all(np.isfinite(value)) for value in reals)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_instance_file_with_one_extreme_token_loads_finite_or_is_refused(data):
    lines = FULL_HEADER.splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[row].split()
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(
        st.sampled_from(EXTREMES + HUGE))
    lines[row] = " ".join(tokens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.txt"
        path.write_text("\n".join(lines) + "\n")
        try:
            instance = load_instance(path)
        except ValidationError:   # InstanceParseError is one
            return
    assert is_finite(instance)


@settings(PROPERTY, max_examples=40)
@given(d=st.integers(1, 5), data=st.data())
def test_save_load_save_is_byte_identical(d, data):
    s = data.draw(st.integers(1, d))
    k = data.draw(st.integers(2 * d, 16))
    epsilon = data.draw(st.floats(1e-300, 1.0))
    noise = data.draw(st.sampled_from([None, NoiseModel("gaussian", 0.5, 7)]))
    orthogonality = data.draw(st.sampled_from([None, 0.0, 1 / 3]))
    instance = replace(random_sparse_instance(d, s, k, epsilon, data.draw(st.integers(0, 99)),
                                              noise=noise),
                       orthogonality=orthogonality,
                       theta_norm_bypassed=data.draw(st.booleans()))
    text = saved_text(instance)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.txt"
        path.write_text(text)
        assert saved_text(load_instance(path)) == text
