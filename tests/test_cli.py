"""Tests for the experiment harness CLI."""

import csv
import hashlib
import math
import time

import numpy as np
import pytest

from sparsebandit import (NoiseModel, QueryLedger, build_instance, cli, param_elim,
                          random_sparse_instance, save_instance)
from sparsebandit.cli import (
    CSV_COLUMNS,
    main,
    parse_config,
    run_experiment,
    validate_instance_file,
    write_csv,
)
from sparsebandit.errors import ConfigError, GuardExceededError


def write_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture
def ledger_records(monkeypatch):
    """Every action index recorded on any QueryLedger during the test."""
    recorded = []

    class Entries(list):
        def append(self, entry):
            recorded.append(entry[0])
            super().append(entry)

    init = QueryLedger.__init__

    def counting(self):
        init(self)
        self.entries = Entries()

    monkeypatch.setattr(QueryLedger, "__init__", counting)
    return recorded


def test_parse_config_round_trip(tmp_path):
    path = write_config(tmp_path, """
# comment line
algorithm param-elim
source random-sparse
d 3,4
s 1
epsilon 0.1
k 12
seeds 0,1
output out.csv
""")
    cfg = parse_config(path)
    assert cfg.algorithms == ["param-elim"]
    assert cfg.d == [3, 4] and cfg.s == [1]
    assert cfg.seeds == [0, 1]
    assert cfg.output == "out.csv"


def test_parse_config_errors_carry_line_numbers(tmp_path):
    path = write_config(tmp_path, "algorithm param-elim\nd not_an_int\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_config(path)
    path2 = write_config(tmp_path, "algorithm warp-drive\n", name="c2.txt")
    with pytest.raises(ConfigError, match="warp-drive"):
        parse_config(path2)
    path3 = write_config(tmp_path, "d 3\n", name="c3.txt")
    with pytest.raises(ConfigError, match="algorithm"):
        parse_config(path3)


@pytest.mark.parametrize("line,message", [("seeds 0,-1", "seeds must be >= 0"),
                                          ("pool_size -5", "pool_size must be >= 1"),
                                          ("budget 0", "budget must be >= 1"),
                                          ("epsilon -1", "epsilon must be > 0"),
                                          ("delta 0.5,-1", "delta must be > 0"),
                                          ("kappa -1", "kappa must be > 0"),
                                          ("c_const 0", "c_const must be > 0"),
                                          ("c_jl -1", "c_jl must be > 0"),
                                          ("seed_net", "expected 'key value'"),
                                          ("d 4", "duplicate key 'd'"),
                                          ("seed_net 2", "expected 0 or 1"),
                                          ("colour blue", "'colour': unknown key"),
                                          ("source moon", "expected one of"),
                                          ("source explicit-file",
                                           "needs 'instance_file'"),
                                          ("d 0", "d must be >= 1"),
                                          ("s 1,0", "s must be >= 1"),
                                          ("k -3", "k must be >= 0"),
                                          ("source hard-instance\nk -5",
                                           "k must be >= 0"),
                                          ("k 5", "random-sparse needs k >= 2d"),
                                          ("d 5", "random-sparse needs k >= 2d"),
                                          ("epsilon inf", "finite real, got 'inf'"),
                                          ("epsilon nan", "finite real, got 'nan'"),
                                          ("epsilon 2.5",
                                           "random-sparse needs epsilon <= 2"),
                                          ("epsilon 0.5,1e300",
                                           "random-sparse needs epsilon <= 2, got 1e\\+300"),
                                          ("source random-sparse\nepsilon 3",
                                           "random-sparse needs epsilon <= 2"),
                                          ("delta 0.5,inf", "finite real"),
                                          ("delta nan", "finite real"),
                                          ("c_const inf", "finite real"),
                                          ("c_jl inf", "finite real"),
                                          ("c nan", "finite real"),
                                          ("tau -inf", "finite real"),
                                          ("hard_delta nan", "finite real"),
                                          ("kappa inf", "finite real"),
                                          ("kappa 1e400", "finite real")])
def test_out_of_range_config_value_is_a_config_error(tmp_path, capsys, line, message):
    """The case's last line is the bad one; a base line setting a key the
    case sets is removed, except where the duplicate is the error."""
    out = tmp_path / "bad.csv"
    case = line.split("\n")
    line = case[-1]
    lines = ["algorithm param-elim", "d 3", "s 1", "epsilon 0.5", "k 8"]
    if not message.startswith("duplicate"):
        keys = {entry.split()[0] for entry in case}
        lines = [kept for kept in lines if kept.split()[0] not in keys]
    lines += case + [f"output {out}"]
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f":{lines.index(line) + 1}: .*{message}"):
        parse_config(path)
    assert main(["run", str(path)]) == 1
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def test_epsilon_above_two_is_read_outside_random_sparse(tmp_path):
    """hard-instance reads epsilon as its orthogonality level, and an
    explicit file carries its own bound, so only random-sparse refuses it."""
    inst_path = tmp_path / "inst.txt"
    save_instance(random_sparse_instance(3, 1, 8, 0.1, seed=0), inst_path)
    for source in ("hard-instance", f"explicit-file\ninstance_file {inst_path}"):
        path = write_config(tmp_path, f"algorithm random-baseline\nsource {source}\n"
                                      f"epsilon 3\n")
        assert parse_config(path).epsilon == [3.0]


@pytest.mark.parametrize("algorithm,lines,message", [
    ("benign-elim", "d 4\ns 1\nbudget 1",
     "invariant failure: budget 1 cannot cover one design estimate"),
    ("general-features", "d 1\ns 1", "pipeline needs at least two feature dimensions"),
])
def test_learner_refusal_exits_3_before_any_query(tmp_path, capsys, ledger_records,
                                                  algorithm, lines, message):
    out, log = tmp_path / "inv.csv", tmp_path / "inv.detail.csv"
    path = write_config(tmp_path, f"""algorithm {algorithm}
{lines}
epsilon 0.3
k 12
seeds 0
output {out}
log_output {log}
""")
    assert main(["run", str(path)]) == 3
    assert message in capsys.readouterr().err
    assert ledger_records == []
    assert not out.exists() and not log.exists()


def test_empty_grid_writes_header_only(tmp_path):
    path = write_config(tmp_path, """
algorithm param-elim
seeds 0
output %s
""" % (tmp_path / "empty.csv"))
    cfg = parse_config(path)
    cfg.seeds = []
    records = run_experiment(cfg)
    assert records == []
    write_csv(records, cfg.output)
    content = (tmp_path / "empty.csv").read_text().strip()
    assert content == ",".join(CSV_COLUMNS)


def test_single_point_run_satisfies_bound(tmp_path):
    out = tmp_path / "run.csv"
    path = write_config(tmp_path, f"""
algorithm param-elim
d 4
s 1
epsilon 0.1
k 12
seeds 3
output {out}
""")
    assert main(["run", str(path)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 2
    record = dict(zip(CSV_COLUMNS, rows[1].split(",")))
    assert record["algorithm"] == "param-elim"
    assert record["bound_satisfied"] == "true"
    assert float(record["uniform_error"]) <= 4 * 0.1 + 1e-9
    assert int(record["queries"]) <= (4 / 0.1 + 1) * math.comb(4, 1)


# perfbench/gate.py's query scales at d = 4, written out: (core(s) + 1) C(d, s)
# for design elimination, core(s) core(d) for general features and the
# compressed stage's budget of 1,200 for benign elimination, where
# core(s) = ceil(4 s loglog max(s, 3) + 16) is 17 at s = 2 and 22 at s = 4
DEGENERATE_QUERY_SCALE = {("design-elim", 4): 23, ("design-elim", 2): 108,
                          ("general-features", 4): 484,
                          ("general-features", 2): 374,
                          ("benign-elim", 4): 1200, ("benign-elim", 2): 1200}


@pytest.mark.parametrize("s,epsilon", [(4, 0.1), (2, 2.0)], ids=["s=d", "eps=2"])
def test_degenerate_grid_points_through_the_other_learners(tmp_path, s, epsilon):
    """s = d (a single subset) and epsilon = 2 (the largest epsilon the
    parameter-elimination nets accept) run cleanly through design
    elimination, benign elimination and general features."""
    out = tmp_path / "run.csv"
    path = write_config(tmp_path, f"""
algorithm design-elim,benign-elim,general-features
d 4
s {s}
epsilon {epsilon}
k 12
seeds 0,1,2
output {out}
""")
    assert main(["sweep", str(path)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for row in rows:
        assert row["bound_satisfied"] == "true", row
        assert int(row["queries"]) <= DEGENERATE_QUERY_SCALE[row["algorithm"], s], row


def test_identical_config_gives_byte_identical_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = """
algorithm design-elim
d 5
s 2
epsilon 0.05
k 16
seeds 0,1
output {out}
"""
    p1 = write_config(tmp_path, base.format(out=out1), name="a.txt")
    p2 = write_config(tmp_path, base.format(out=out2), name="b.txt")
    assert main(["run", str(p1)]) == 0
    assert main(["run", str(p2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_multiple_algorithms(tmp_path):
    out = tmp_path / "sweep.csv"
    path = write_config(tmp_path, f"""
algorithm design-elim,random-baseline
d 4
s 1
epsilon 0.1
k 10
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 1  # run refuses algorithm lists
    assert main(["sweep", str(path)]) == 0
    rows = out.read_text().strip().splitlines()
    algs = [r.split(",")[0] for r in rows[1:]]
    assert algs == ["design-elim", "random-baseline"]


def test_guard_violation_exit_code(tmp_path):
    out = tmp_path / "g.csv"
    path = write_config(tmp_path, f"""
algorithm design-elim
d 30
s 5
epsilon 0.1
k 64
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 2
    assert not out.exists()


def test_guard_check_runs_before_any_queries(tmp_path, ledger_records):
    path = write_config(tmp_path, """
algorithm design-elim
d 5,30
s 1,5
epsilon 0.1
k 64
seeds 0
""")
    cfg = parse_config(path)
    with pytest.raises(GuardExceededError):
        run_experiment(cfg)
    assert ledger_records == []


def test_sparsity_above_dimension_is_an_invariant_failure(tmp_path):
    out = tmp_path / "sd.csv"
    path = write_config(tmp_path, f"""
algorithm random-baseline
d 4
s 5
epsilon 0.1
k 12
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 3
    assert not out.exists()


def test_guard_uses_the_explicit_file_dimensions(tmp_path, capsys, ledger_records):
    inst_path = tmp_path / "inst.txt"
    save_instance(random_sparse_instance(30, 5, 64, 0.1, seed=0), inst_path)
    out = tmp_path / "ef.csv"
    path = write_config(tmp_path, f"""
algorithm random-baseline,design-elim
source explicit-file
instance_file {inst_path}
seeds 0
output {out}
""")
    assert main(["sweep", str(path)]) == 2
    assert ledger_records == []
    assert not out.exists()
    assert "design-elim (30, 5, 0.1, 64, 0.5, 0): " in capsys.readouterr().err


def test_param_elim_net_past_the_guard_is_refused_before_it_is_packed(
        tmp_path, capsys, ledger_records):
    """The full net here has about 13,000 points; packing stops at
    guard_net_cap(6, 3) = 734 and the run exits 2 within a second."""
    out = tmp_path / "big.csv"
    path = write_config(tmp_path, "algorithm param-elim\nd 6\ns 3\nepsilon 0.05\n"
                                  f"k 16\nseeds 0\noutput {out}\n")
    t0 = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "the net has more than 733 points" in capsys.readouterr().err
    assert ledger_records == []
    assert not out.exists()


def test_early_packing_stop_refuses_exactly_the_configs_the_guard_does(
        tmp_path, monkeypatch):
    """With the guard set so that it admits L net points, for L from well
    below the full (seeded) net's size n to above it, a config is refused
    iff n > L, whether packing stopped early or the full net was counted;
    at L = n, the largest net the guard admits, the run completes."""
    out = tmp_path / "near.csv"
    path = write_config(tmp_path, "algorithm param-elim\nd 4\ns 2\nepsilon 0.5\n"
                                  f"k 8\nseeds 0\npool_size 2000\noutput {out}\n")
    cfg = parse_config(path)
    (_, _, _, net), = cli.check_guards(cfg)[0]
    n, subsets = net.size, math.comb(4, 2)
    stopped = []
    for limit in range(n - 3 ** 2 - 3, n + 2):
        monkeypatch.setattr(param_elim, "TRIPLE_GUARD", subsets * limit * limit)
        prepared, violations = cli.check_guards(cfg)
        assert bool(violations) == (n > limit), limit
        stopped += ["more than" in msg for _, _, msg in violations]
        if limit == n:
            assert prepared[0][3].size == n
            assert main(["run", str(path)]) == 0
    assert any(stopped) and not all(stopped)


def test_hard_instance_overflow_is_refused_before_any_query(tmp_path, ledger_records):
    out = tmp_path / "hard.csv"
    path = write_config(tmp_path, f"""
algorithm random-baseline
source hard-instance
d 64
s 8,64
epsilon 2.0
k 3,0
delta 0.5
tau 0.95
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 2
    assert ledger_records == []
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["param-elim", "design-elim", "random-baseline"])
def test_noisy_instance_is_refused_before_any_query(tmp_path, ledger_records, algorithm):
    inst_path = tmp_path / "noisy.txt"
    save_instance(random_sparse_instance(4, 1, 12, 0.3, seed=0,
                                         noise=NoiseModel("gaussian", 0.1, 0)), inst_path)
    assert "noise gaussian" in inst_path.read_text()
    out = tmp_path / "noisy.csv"
    path = write_config(tmp_path, f"""
algorithm {algorithm}
source explicit-file
instance_file {inst_path}
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 3
    assert ledger_records == []
    assert not out.exists()


def test_param_elim_builds_one_net_per_point(tmp_path, monkeypatch):
    calls = []
    build = cli.build_separated_net

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_separated_net", counting)
    path = write_config(tmp_path, f"""
algorithm param-elim
d 4
s 1
epsilon 0.1
k 12
seeds 0,1
output {tmp_path / "pe.csv"}
""")
    assert main(["run", str(path)]) == 0
    assert len(calls) == 2


def test_explicit_file_is_loaded_once(tmp_path, monkeypatch):
    inst_path = tmp_path / "inst.txt"
    save_instance(random_sparse_instance(5, 2, 14, 0.3, seed=4), inst_path)
    calls = []
    load = cli.load_instance

    def counting(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_instance", counting)
    out = tmp_path / "ef.csv"
    path = write_config(tmp_path, f"""
algorithm {",".join(cli.ALGORITHMS)}
source explicit-file
instance_file {inst_path}
seeds 0,1
output {out}
""")
    assert main(["sweep", str(path)]) == 0
    assert len(calls) == 1
    assert len(out.read_text().strip().splitlines()) == 1 + 2 * len(cli.ALGORITHMS)


@pytest.mark.parametrize("algorithm", ["design-elim", "general-features"])
def test_zero_subsets_of_a_hard_instance_run(tmp_path, algorithm):
    # at k = 8 some coordinate pairs are zero on every row of the hard matrix
    out = tmp_path / "zero.csv"
    path = write_config(tmp_path, f"""
algorithm {algorithm}
source hard-instance
d 12
s 2
epsilon 0.6
k 8
seeds 0,1,2
output {out}
""")
    assert main(["sweep", str(path)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        record = dict(zip(CSV_COLUMNS, row.split(",")))
        assert record["bound_satisfied"] == "true"


def test_validate_subcommand(tmp_path, capsys):
    inst = random_sparse_instance(4, 2, 10, 0.1, seed=5)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out

    # corrupt one misspecification entry beyond epsilon
    lines = path.read_text().splitlines()
    nu_row = lines.index("nu") + 1
    vals = lines[nu_row].split()
    vals[0] = "0.9"
    lines[nu_row] = " ".join(vals)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(bad)]) == 3

    # parse failure is a config-style error
    trunc = tmp_path / "trunc.txt"
    trunc.write_text("\n".join(lines[:4]) + "\n")
    assert main(["validate", str(trunc)]) == 3


def _unopenable(tmp_path, case):
    """(argv, what stderr must name) for one path the CLI cannot open."""
    missing = tmp_path / "missing"
    out = f"output {tmp_path / 'o.csv'}\n"
    base = "algorithm design-elim\nd 4\ns 1\nk 12\nseeds 0\n"
    if case == "missing config":
        return ["run", str(missing)], str(missing)
    if case == "config is a directory":
        return ["run", str(tmp_path)], str(tmp_path)
    if case == "missing instance_file":
        cfg = write_config(tmp_path, "algorithm design-elim\nsource explicit-file\n"
                                     f"instance_file {missing}\nseeds 0\n{out}")
        return ["run", str(cfg)], str(missing)
    if case == "validate a missing file":
        return ["validate", str(missing)], str(missing)
    if case in ("output", "log_output"):
        folder = missing / "deeper"
        cfg = write_config(tmp_path, base + (out if case == "log_output" else "")
                           + f"{case} {folder / 'x.csv'}\n")
        return ["run", str(cfg)], str(folder)
    if case == "generate-hard into a missing directory":
        cfg = write_config(tmp_path, "algorithm random-baseline\nsource hard-instance\n"
                                     "d 64\ns 8\nepsilon 0.5\nk 3\ntau 0.95\nseeds 0\n")
        return ["generate-hard", str(cfg), str(missing / "hard.txt")], str(missing / "hard.txt")
    if case == "non-UTF-8 config":
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes((base + out).encode() + b"# caf\xe9\n")
        return ["run", str(cfg)], f"{cfg}:7: not UTF-8"
    assert case == "non-UTF-8 instance file"
    inst_path = tmp_path / "inst.txt"
    save_instance(random_sparse_instance(4, 1, 12, 0.1, seed=9), inst_path)
    lines = inst_path.read_bytes().split(b"\n")
    lines[3] += b" \xff"
    inst_path.write_bytes(b"\n".join(lines))
    return ["validate", str(inst_path)], "invariant failure: line 4: not UTF-8"


@pytest.mark.parametrize("case,code", [
    ("missing config", 1), ("config is a directory", 1), ("missing instance_file", 1),
    ("validate a missing file", 1), ("output", 1), ("log_output", 1),
    ("generate-hard into a missing directory", 1), ("non-UTF-8 config", 1),
    ("non-UTF-8 instance file", 3)])
def test_a_path_that_cannot_be_opened_ends_in_one_line(tmp_path, capsys, ledger_records,
                                                       case, code):
    """Each exits 1 with one stderr line naming the path and the reason and
    before any query, except a non-UTF-8 instance file, which is malformed
    and so an invariant failure, like its other parse errors."""
    argv, named = _unopenable(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert named in err
    assert "Traceback" not in err
    assert ledger_records == []


@pytest.mark.parametrize("key,value", [("epsilon", "inf"), ("noise_scale", "nan"),
                                       ("orthogonality", "nan"), ("nu", "nan")])
def test_non_finite_instance_value_is_refused_with_its_line(tmp_path, capsys,
                                                           ledger_records, key, value):
    """validate and an explicit-file run both exit 3 and name the line; a
    header key the file lacks is added before 'phi', a nu entry replaced."""
    inst_path = tmp_path / "inst.txt"
    save_instance(random_sparse_instance(4, 1, 12, 0.1, seed=9), inst_path)
    lines = inst_path.read_text().splitlines()
    if key == "nu":
        at = lines.index("nu") + 1
        lines[at] = " ".join([value] + lines[at].split()[1:])
    elif key == "orthogonality":
        at = lines.index("phi")
        lines.insert(at, f"{key} {value}")
    else:
        at = next(i for i, line in enumerate(lines) if line.split()[0] == key)
        lines[at] = f"{key} {value}"
    inst_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run.csv"
    path = write_config(tmp_path, f"""algorithm design-elim
source explicit-file
instance_file {inst_path}
seeds 0
output {out}
""")
    for argv in (["validate", str(inst_path)], ["run", str(path)]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert f"line {at + 1}: " in captured.err
        assert f"expected a finite real, got '{value}'" in captured.err
        assert "OK" not in captured.out
    assert ledger_records == [] and not out.exists()


def test_generate_hard_and_validate(tmp_path, capsys):
    out = tmp_path / "hard.txt"
    path = write_config(tmp_path, """
algorithm random-baseline
source hard-instance
d 64
s 8
epsilon 0.5
k 3
delta 0.5
tau 0.95
hard_delta 0.25
seeds 0
""")
    assert main(["generate-hard", str(path), str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    text = capsys.readouterr().out
    assert "pairwise scan ok" in text


def test_hard_instance_source_runs_baseline(tmp_path):
    out = tmp_path / "base.csv"
    path = write_config(tmp_path, f"""
algorithm random-baseline
source hard-instance
d 64
s 8
epsilon 0.5
k 3
delta 0.5
tau 0.95
hard_delta 0.25
seeds 0,1,2
output {out}
""")
    assert main(["run", str(path)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        record = dict(zip(CSV_COLUMNS, row.split(",")))
        assert record["bound_satisfied"] == "true"
        assert int(record["queries"]) >= 1
        assert float(record["epsilon"]) == 0.5  # 2 * delta * orthogonality


def test_explicit_file_source(tmp_path):
    inst = random_sparse_instance(4, 1, 12, 0.1, seed=9)
    inst_path = tmp_path / "inst.txt"
    save_instance(inst, inst_path)
    out = tmp_path / "file.csv"
    path = write_config(tmp_path, f"""
algorithm design-elim
source explicit-file
instance_file {inst_path}
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 0
    record = dict(zip(CSV_COLUMNS, out.read_text().strip().splitlines()[1].split(",")))
    assert record["d"] == "4" and record["k"] == "12"
    assert record["bound_satisfied"] == "true"


def test_explicit_file_runs_once_per_delta_and_seed(tmp_path):
    """The instance fixes d, s, epsilon and k, so the config's lists of them
    multiply no runs."""
    inst_path = tmp_path / "inst.txt"
    save_instance(random_sparse_instance(4, 1, 12, 0.1, seed=9), inst_path)
    out = tmp_path / "file.csv"
    path = write_config(tmp_path, f"""
algorithm design-elim
source explicit-file
instance_file {inst_path}
d 4,5,6
epsilon 0.1,0.2
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert [row.split(",")[:6] for row in rows] == [
        ["design-elim", "4", "1", "0.10000000000000001", "12", "0"]]


# Three degenerate explicit-file instances: a duplicated column (the
# subset {0, 3} is rank one), a zero column and duplicated rows, each with
# theta* = (0.6, 0.8, 0, 0) and epsilon 0.1
DEGENERATE_BASE = np.array([
    [-0.69, -0.44, 0.5], [-0.74, -0.12, -0.03], [0.45, -0.75, -0.21],
    [-0.12, 0.16, 0.44], [-0.42, 0.29, 0.38], [-0.66, 0.62, -0.26],
    [0.76, 0.16, -0.05], [-0.68, 0.3, -0.18], [0.28, 0.75, -0.51],
    [-0.39, 0.47, 0.43]])
DEGENERATE_FEATURES = {
    "duplicated-column": 0.7 * DEGENERATE_BASE[:, [0, 1, 2, 0]],
    "zero-column": np.column_stack([DEGENERATE_BASE, np.zeros(10)]),
    "duplicated-rows": np.column_stack([DEGENERATE_BASE, np.full(10, 0.1)])[
        [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]],
}
# run.csv row of each (instance, algorithm), recorded before the design
# rank certificate and the rival blocks; every run exits 0
DEGENERATE_ROWS = {
    ("duplicated-column", "design-elim"):
        "12,0.094047619047619047,0,0.90000000000000013",
    ("duplicated-column", "benign-elim"):
        "6,0.15484134908747987,0,4.8954167034928968",
    ("duplicated-column", "general-features"):
        "6,0.092927024604682898,0,6.7708044886573573",
    ("zero-column", "design-elim"):
        "12,0.094047619047619074,0,0.90000000000000013",
    ("zero-column", "benign-elim"):
        "9,0.15484134908747982,0,4.8954167034928968",
    ("zero-column", "general-features"):
        "6,0.092927024604682898,0,6.7708044886573573",
    ("duplicated-rows", "design-elim"):
        "14,0.097735849056603846,0.080000000000000002,0.90000000000000013",
    ("duplicated-rows", "benign-elim"):
        "8,0.74076648810047174,0,4.8954167034928968",
    ("duplicated-rows", "general-features"):
        "4,0.087978051426019291,0,6.7708044886573573",
}


@pytest.mark.parametrize("case, algorithm", DEGENERATE_ROWS,
                         ids=[f"{c}-{a}" for c, a in DEGENERATE_ROWS])
def test_degenerate_explicit_file_runs_are_byte_identical(tmp_path, case, algorithm):
    nu = [0.03, -0.05, 0.0, 0.08, -0.02, 0.01, -0.07, 0.04, 0.0, -0.09]
    instance = build_instance(DEGENERATE_FEATURES[case], [0.6, 0.8, 0.0, 0.0], nu, 0.1)
    inst_path, out = tmp_path / "inst.txt", tmp_path / "run.csv"
    save_instance(instance, inst_path)
    path = write_config(tmp_path, f"""
algorithm {algorithm}
source explicit-file
instance_file {inst_path}
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 0
    row = f"{algorithm},4,2,0.10000000000000001,10,0,{DEGENERATE_ROWS[case, algorithm]},true,0"
    assert out.read_bytes() == f"{','.join(CSV_COLUMNS)}\r\n{row}\r\n".encode()


@pytest.mark.parametrize("seed", [0, 11, 14, 15])
def test_near_collinear_features_are_an_invariant_failure(tmp_path, capsys, seed):
    """k 32 rows u (0.8, -0.6) + 1e-9 g, scaled to a largest norm just
    under 1: the QR keeps both columns, and the uniform start's Gram is
    singular to working precision. The run exits 3 with no traceback."""
    rng = np.random.default_rng(seed)
    u, g = rng.normal(size=32), rng.normal(size=(32, 2))
    phi = u[:, None] * np.array([0.8, -0.6]) + 1e-9 * g
    phi *= (1 - 1e-7) / np.linalg.norm(phi, axis=1).max()
    inst_path, out = tmp_path / "inst.txt", tmp_path / "run.csv"
    save_instance(build_instance(phi, [0.6, 0.8], np.zeros(32), 0.1), inst_path)
    path = write_config(tmp_path, f"""
algorithm design-elim
source explicit-file
instance_file {inst_path}
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "invariant failure: design matrix is singular" in err
    assert "Traceback" not in err


def test_detail_log_output(tmp_path):
    out = tmp_path / "r.csv"
    log = tmp_path / "detail.csv"
    path = write_config(tmp_path, f"""
algorithm param-elim
d 4
s 1
epsilon 0.1
k 12
seeds 3
output {out}
log_output {log}
""")
    assert main(["run", str(path)]) == 0
    rows = log.read_text().strip().splitlines()
    assert rows[0].startswith("algorithm,d,s,epsilon,k,seed,kind,step,payload")
    kinds = {r.split(",")[6] for r in rows[1:]}
    assert "summary" in kinds


# per algorithm: event kind, event payload keys, summary payload keys
DETAIL_SHAPES = {
    "param-elim": ("elimination",
                   ("action", "reward", "anchor", "primary", "rival", "killed"),
                   ("triples_initial", "triples_remaining", "queries", "final_error")),
    "design-elim": ("elimination", ("action", "reward", "primary", "rival", "killed"),
                    ("queries", "phase1_queries", "final_error")),
    "benign-elim": ("round",
                    ("active_before", "active_after", "threshold", "cumulative_queries"),
                    ("queries", "surviving", "soundness_ok", "final_error")),
    "general-features": (None, (),
                         ("phi", "q", "psi_rows", "recovery_objective", "support",
                          "error", "bound", "queries", "map_seed")),
}


def test_detail_log_shape_for_every_algorithm(tmp_path):
    log = tmp_path / "detail.csv"
    path = write_config(tmp_path, f"""
algorithm {",".join(cli.ALGORITHMS)}
d 4
s 1
epsilon 0.1
k 12
seeds 3
output {tmp_path / "r.csv"}
log_output {log}
""")
    assert main(["sweep", str(path)]) == 0
    with open(log, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    by_alg = {}
    for row in rows:
        by_alg.setdefault(row["algorithm"], []).append(row)
    assert set(by_alg) == set(DETAIL_SHAPES)   # random-baseline logs no rows
    for alg, (kind, event_keys, summary_keys) in DETAIL_SHAPES.items():
        got = by_alg[alg]
        n = len(got) - 1
        assert (n > 0) == (kind is not None), alg
        assert [r["kind"] for r in got] == [kind] * n + ["summary"], alg
        assert [int(r["step"]) for r in got] == list(range(n + 1)), alg
        payloads = [dict(f.split("=", 1) for f in r["payload"].split(";")) for r in got]
        assert [tuple(p) for p in payloads] == [event_keys] * n + [summary_keys], alg
        assert payloads[-1].get("soundness_ok", "true") in ("true", "false")


def test_generate_hard_writes_rejection_reports(tmp_path):
    out = tmp_path / "hard.txt"
    path = write_config(tmp_path, """
algorithm random-baseline
source hard-instance
d 64
s 8
epsilon 0.5
k 3
delta 0.5
tau 0.95
hard_delta 0.25
seeds 0
""")
    assert main(["generate-hard", str(path), str(out)]) == 0
    rej = tmp_path / "hard.txt.rejections.csv"
    lines = rej.read_text().strip().splitlines()
    assert lines[0] == "seed,norm_failures,sparsity_failures,pairwise_failures,accepted"
    assert lines[-1].endswith("true")


def test_generate_hard_writes_rejection_reports_when_retries_run_out(tmp_path):
    out = tmp_path / "hard.txt"
    path = write_config(tmp_path, """
algorithm random-baseline
source hard-instance
d 16
s 4
epsilon 0.3
k 60
tau 0.05
seeds 1
""")
    assert main(["generate-hard", str(path), str(out)]) == 3
    assert not out.exists()
    with open(tmp_path / "hard.txt.rejections.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["seed"]) for r in rows] == list(range(1, 101))
    assert all(r["accepted"] == "false" for r in rows)


def test_wall_ms_deterministic_by_default(tmp_path):
    out = tmp_path / "t.csv"
    path = write_config(tmp_path, f"""
algorithm random-baseline
d 4
s 1
epsilon 0.1
k 12
seeds 0
output {out}
""")
    assert main(["run", str(path)]) == 0
    record = dict(zip(CSV_COLUMNS, out.read_text().strip().splitlines()[1].split(",")))
    assert record["wall_ms"] == "0"


# sha256 of run.csv and the detail CSV of GOLDEN_SWEEP, recorded before the
# design estimate was shared between design elimination and benign
# elimination; any change to a learner's queries, survivors or printed
# values changes them
GOLDEN_SWEEP = """algorithm param-elim,design-elim,benign-elim,general-features,random-baseline
d 6
s 1,2
epsilon 0.6
k 16
seeds 0,1
"""
GOLDEN_RUN_SHA256 = "91ac39177e2bdf350236baac0deeb216543cbe3cb1ea87270c330edb3fe2f6ff"
GOLDEN_DETAIL_SHA256 = "671f65db905c161d9b828da1b22bdc858fcb2e0f41e62656eb5f5376a1f20456"


def test_sweep_of_every_algorithm_is_byte_identical_to_the_golden_digests(tmp_path):
    out, log = tmp_path / "run.csv", tmp_path / "detail.csv"
    path = write_config(tmp_path, GOLDEN_SWEEP + f"output {out}\nlog_output {log}\n")
    assert main(["sweep", str(path)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RUN_SHA256
    assert hashlib.sha256(log.read_bytes()).hexdigest() == GOLDEN_DETAIL_SHA256
