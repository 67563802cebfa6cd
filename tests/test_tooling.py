"""The benchmark's trace hooks still name functions of the package, each
entry point loads only the slice of scipy it calls, and the config grammar's
documentation matches the reader's table."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sparsebandit import cli

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src"


def test_benchmark_hook_targets_resolve(monkeypatch):
    """Every hook target the traced benchmark patches is a callable module
    attribute; a renamed function fails here instead of dropping its layer
    from a traced run. spans.py is loaded by path and no bytecode is written
    beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert len(spans.HOOKS) > 0
    for hook in spans.HOOKS:
        _, _, target = spans._resolve(hook.target)
        assert callable(target), hook.target


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
