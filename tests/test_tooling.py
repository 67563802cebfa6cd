"""The benchmark's trace hooks still name functions of the package and its
observers count on small runs of every learner, the benchmark script
reaches the package only through public names and in fresh processes, and
pairs its runs; the test oracles import nothing from the package, each
entry point loads only the slice of scipy it calls, and the config
grammar's documentation matches the reader's table."""

import ast
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sparsebandit import (
    QueryLedger,
    cli,
    compressed_elim,
    compression,
    random_sparse_instance,
)
from sparsebandit.compression import choose_target_dim

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
BENCH = ROOT / "benchmarks" / "bench.py"
HELPERS = ROOT / "tests" / "helpers.py"
SRC = ROOT / "src"


def load_by_path(monkeypatch, name, path):
    """The module at path, loaded as name with no bytecode written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hook_targets_resolve(monkeypatch):
    """Every hook target the traced benchmark patches is a callable module
    attribute; a renamed function fails here instead of dropping its layer
    from a traced run. spans.py is loaded by path and no bytecode is written
    beside it."""
    spans = load_by_path(monkeypatch, "perfbench_spans", SPANS)
    assert len(spans.HOOKS) > 0
    for hook in spans.HOOKS:
        _, _, target = spans._resolve(hook.target)
        assert callable(target), hook.target


# a counter of each layer whose observer reads a learner's arguments or result
OBSERVED = ("net.pool_points", "param_elim.tensor_mb", "param_elim.scan_calls",
            "design_elim.elim_queries", "design.fw_iterations", "design.support_rows",
            "compressed_elim.rounds", "compressed_elim.queries",
            "sparse_recovery.psi_rows")


def test_benchmark_observers_count_on_small_runs(tmp_path, monkeypatch):
    """Every counter of the traced benchmark is fed on one small run of each
    learner, through the CLI and the compressed stage's entry points: an
    observer that fails drops its layer with a note instead of failing the
    run, so a renamed result attribute shows here."""
    spans = load_by_path(monkeypatch, "perfbench_spans", SPANS)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for algorithm in ("param-elim", "design-elim", "general-features"):
            cfg = tmp_path / f"{algorithm}.cfg"
            cfg.write_text(f"algorithm {algorithm}\nd 4\ns 1\nepsilon 0.5\nk 8\n"
                           f"seeds 0\noutput {tmp_path / algorithm}.csv\n")
            assert cli.main(["run", str(cfg)]) == 0
        d, s, k, eps = 10, 2, 40, 0.1
        instance = random_sparse_instance(d, s, k, eps, 0, basis_probes=False)
        upsilon = math.log(k) ** 0.25 * math.sqrt(eps)
        cmap = compression.find_certified_map(
            d, choose_target_dim(k, upsilon, d), instance.features.matrix,
            instance.theta_star.coords, upsilon)
        compressed_elim.run_benign_elimination(instance, cmap, 200, QueryLedger())
    assert tracer.notes == [] and tracer.missing_layers == set()
    assert [name for name in OBSERVED if name not in tracer.counts] == []


def test_benchmark_script_uses_only_public_names():
    """benchmarks/bench.py imports no name and reads no attribute that begins
    with a single underscore, so no private helper of the package keeps its
    name for the script's sake; and the script parses its options."""
    names = []
    for node in ast.walk(ast.parse(BENCH.read_text())):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) and node.module else []
            for dotted in modules + [alias.name for alias in node.names]:
                names.extend(dotted.split("."))
    assert names
    assert [name for name in names if name.startswith("_") and not name.startswith("__")] == []
    subprocess.run([sys.executable, str(BENCH), "--help"], capture_output=True,
                   timeout=60, check=True)


def imported_packages(path):
    """The top-level package of every module the file at path imports."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
        elif isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
    assert modules
    return {name.split(".")[0] for name in modules}


def test_test_oracles_import_nothing_from_the_package():
    """tests/helpers.py holds the independent references the tests check the
    package against, so it imports nothing from sparsebandit."""
    assert "sparsebandit" not in imported_packages(HELPERS)


def test_benchmark_script_imports_neither_numpy_nor_the_package():
    """Each side's package is measured in a fresh process, from the python -c
    scripts the benchmark holds as strings; a child's peak RSS starts at its
    parent's, so the script itself stays small."""
    assert imported_packages(BENCH) & {"numpy", "sparsebandit"} == set()


def load_bench(monkeypatch):
    return load_by_path(monkeypatch, "bench", BENCH)


def test_benchmark_pairs_alternate_which_side_runs_first(monkeypatch):
    """Pair 0 runs the parent first, pair 1 the change; each metric keeps
    each side's runs and counts the pairs the change read lower."""
    bench = load_bench(monkeypatch)
    calls = []

    def measure(checkout, pair):
        calls.append((checkout, pair))
        return {"wall_s": {"P": 2.0, "C": 1.5}[checkout] + pair,
                "queries": 7, "scipy": [checkout]}

    entry = bench.paired("stub", measure, 3, {"parent": "P", "change": "C"})
    assert calls == [("P", 0), ("C", 0), ("C", 1), ("P", 1), ("P", 2), ("C", 2)]
    assert entry["wall_s"]["parent"]["runs"] == [2.0, 3.0, 4.0]
    assert entry["wall_s"]["change"]["median"] == 2.5
    assert entry["wall_s"]["change_lower"] == 3
    assert entry["queries"]["change_lower"] == 0
    assert entry["scipy"] == {"parent": [["P"]] * 3, "change": [["C"]] * 3}


@pytest.mark.parametrize("fault,value", [("queries", 6), ("correct", False), ("failed", 1)])
def test_benchmark_pair_with_a_fault_exits_and_writes_nothing(tmp_path, monkeypatch,
                                                              fault, value):
    """A change run that reads other counts than its pair's parent run, is
    not correct or has a failed run ends the benchmark before any file."""
    bench = load_bench(monkeypatch)
    parent = tmp_path / "parent"
    (parent / "src" / "sparsebandit").mkdir(parents=True)

    def perfbench(spec, workload, trace):
        def measure(checkout, pair):
            run = {"correct": True, "failed": 0, "wall_s": 1.0, "queries": 5}
            if checkout == bench.ROOT and pair == 1:
                run[fault] = value
            return run
        return measure

    monkeypatch.setattr(bench, "perfbench", perfbench)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exited:
        bench.main(["--parent", str(parent), "--out", str(out), "--runs", "2"])
    assert exited.value.code not in (0, None)
    assert fault in str(exited.value.code)
    assert not out.exists()


# Runs in a fresh interpreter with the checkout's src first on the path and
# prints the run's result and the scipy modules loaded, as JSON on its last
# line; argv[1] is the src directory.
FRESH = """
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
{body}
print(json.dumps([result, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

IMPORT_AND_RESOLVE = """
import importlib.util
import sparsebandit, sparsebandit.cli
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[2])
spans = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = spans
spec.loader.exec_module(spans)
result = [hook.target for hook in spans.HOOKS
          if not callable(spans._resolve(hook.target)[2])]
"""

CLI_RUN = """
from sparsebandit.cli import main
result = main(["run", sys.argv[2]])
"""


def run_fresh(body, arg):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH.format(body=body), str(SRC), str(arg)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_hook_targets_load_no_scipy():
    """Importing the package and its CLI, and resolving every benchmark
    hook, imports nothing of scipy: each routine loads on its first call."""
    unresolved, loaded = run_fresh(IMPORT_AND_RESOLVE, SPANS)
    assert unresolved == []
    assert loaded == []


@pytest.mark.parametrize("algorithm,absent,present", [
    ("param-elim", ("scipy",), ()),
    ("design-elim", ("scipy",), ()),
    ("benign-elim", ("scipy.spatial", "scipy.optimize"), ("scipy.linalg",)),
    ("general-features", (), ("scipy.linalg", "scipy.optimize")),
])
def test_one_run_loads_only_its_scipy_slice(tmp_path, algorithm, absent, present):
    """A one-shot ``sparsebandit run`` of each learner loads the scipy
    subpackages it calls and none that only another learner calls; a
    package counts with its submodules. Parameter elimination loads no
    scipy module at all, and nor does design elimination here, where every
    design's start is certified and no block needs LAPACK's pivoted QR."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"algorithm {algorithm}\nd 4\ns 1\nepsilon 0.5\nk 8\n"
                   f"seeds 0\noutput {tmp_path / 'out.csv'}\n")
    code, loaded = run_fresh(CLI_RUN, cfg)
    assert code == 0
    assert not [name for name in loaded
                if any(name == pkg or name.startswith(pkg + ".") for pkg in absent)], loaded
    assert set(present) <= set(loaded), loaded


def test_config_grammar_doc_names_exactly_the_table_keys():
    """The grammar in cli's docstring lists one key per entry, indented four
    spaces; continuation lines are indented further."""
    documented = re.findall(r"^    ([a-z_]+) ", cli.__doc__, flags=re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(cli.CONFIG_KEYS)
