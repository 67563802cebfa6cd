"""Tests for the experiment harness CLI."""

import csv
import hashlib
import math

import numpy as np
import pytest

from sparsebandit import NoiseModel, QueryLedger, cli, random_sparse_instance, save_instance
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
    record = QueryLedger.record

    def counting(self, index, reward):
        recorded.append(index)
        record(self, index, reward)

    monkeypatch.setattr(QueryLedger, "record", counting)
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


@pytest.mark.parametrize("algorithm,lines,message", [
    ("benign-elim", "d 4\ns 1\nbudget 0", "query budget must be at least 1"),
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


def test_guard_uses_the_explicit_file_dimensions(tmp_path, ledger_records):
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
