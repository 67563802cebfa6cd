"""Tests for the benchmark's own code.

Run with: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
from pathlib import Path

import pytest

import env

env.configure()

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def make_spans(intervals):
    """Spans from (name, parent index, start, end) tuples."""
    return [spans.Span(i, parent, name, 0, start, end)
            for i, (name, parent, start, end) in enumerate(intervals)]


def test_self_time_subtracts_union_of_overlapping_children():
    tree = make_spans([
        ("root", None, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 3.0, 6.0),      # overlaps a: the union [1, 6] counts once
        ("c", 0, 8.0, 12.0),     # runs past the parent: clipped to [8, 10]
        ("a.child", 1, 1.5, 2.5),
    ])
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_self_times_of_nested_spans_add_up_to_the_root():
    tree = make_spans([
        ("root", None, 0.0, 9.0),
        ("a", 0, 1.0, 5.0),
        ("a.x", 1, 2.0, 3.0),
        ("a.y", 1, 3.5, 4.5),
        ("b", 0, 6.0, 8.0),
    ])
    assert sum(spans.self_times(tree).values()) == pytest.approx(9.0)


def test_metric_names_are_well_formed_and_agree_across_files():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = json.loads((HERE / "records.json").read_text())
    layer_names = [n for names in spans.LAYER_METRICS.values() for n in names]
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    for name in layer_names + e2e_names + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(layer_names)) == len(layer_names)
    assert [m["name"] for m in bench["per_layer"]] == layer_names
    assert [m["unit"] for m in bench["per_layer"]] == [spans.unit(n) for n in layer_names]
    assert list(records["layers"]) == list(spans.LAYER_METRICS)
    assert list(records["workloads"]) == list(workloads.WORKLOADS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(records["digests"]) == set(workloads.WORKLOADS)


CSV_HEADER = ("algorithm,d,s,epsilon,k,seed,queries,uniform_error,suboptimality,"
              "bound,bound_satisfied,wall_ms\n")
GOOD_ROW = "param-elim,4,2,0.10000000000000001,18,0,571,0.12,0,0.40000000000000002,true,0\n"
POINT = (4, 2, 0.1, 18, 0)


def test_gate_passes_a_good_row_and_checks_its_digest():
    data = (CSV_HEADER + GOOD_ROW).encode()
    assert gate.check_cli_output("param-elim", POINT, data, None) is None
    assert gate.check_cli_output("param-elim", POINT, data, gate.digest(data)) is None


def test_gate_rejects_a_perturbed_csv_row():
    recorded = gate.digest((CSV_HEADER + GOOD_ROW).encode())
    perturbed = (CSV_HEADER + GOOD_ROW.replace(",0.12,", ",0.12000000000000001,")).encode()
    reason = gate.check_cli_output("param-elim", POINT, perturbed, recorded)
    assert reason and "digest" in reason


@pytest.mark.parametrize("row, why", [
    (GOOD_ROW.replace(",0.12,", ",0.5,").replace(",true,", ",false,"), "bound"),
    (GOOD_ROW.replace(",0.12,", ",0.5,"), "bound"),
    (GOOD_ROW.replace(",true,", ",false,"), "bound"),
    (GOOD_ROW.replace(",571,", ",1000000,"), "scale"),
])
def test_gate_rejects_a_run_over_its_bound(row, why):
    reason = gate.check_cli_output("param-elim", POINT, (CSV_HEADER + row).encode(), None)
    assert reason and why in reason


def test_gate_query_scales_follow_the_paper():
    assert gate.query_scale("param-elim", 5, 2, 0.1) == 41 ** 2 * 10
    # ceil(4 s loglog s) + 17 with loglog at max(s, 3)
    assert gate.query_scale("design-elim", 16, 3, 0.1) == (2 + 17) * 560  # 4*3*loglog 3 = 1.13
    assert gate.check_compressed(0.1, 0.2, 1201) is not None
    assert gate.check_compressed(0.3, 0.2, 100) is not None
    assert gate.check_compressed(0.1, 0.2, 100) is None


def test_missing_hook_drops_only_its_layer():
    tracer = spans.Tracer()
    hooks = spans.HOOKS + (spans.Hook("sparsebandit.net.no_such_function", "net", "net.x"),)
    with spans.installed(tracer, hooks):
        tracer.begin(spans.ROOT_SPAN)
        tracer.end(tracer.spans[0])
    metrics = spans.layer_metrics(tracer, cli_points=1)
    assert "net" in tracer.missing_layers
    assert any("no_such_function" in note for note in tracer.notes)
    assert not any(name.startswith("net.") for name in metrics)
    assert "param_elim.scan_calls" in metrics


def test_missing_source_hook_drops_the_derived_metrics_that_read_it():
    tracer = spans.Tracer()
    hooks = tuple(h for h in spans.HOOKS
                  if h.target != "sparsebandit.cli.build_separated_net")
    hooks += (spans.Hook("sparsebandit.cli.no_such_net_builder", "net", "net.build"),)
    with spans.installed(tracer, hooks):
        tracer.begin(spans.ROOT_SPAN)
        tracer.end(tracer.spans[0])
    metrics = spans.layer_metrics(tracer, cli_points=1)
    assert tracer.missing_layers == {"net"}
    assert "cli.net_builds_per_run" not in metrics
    assert "cli.guard_s" in metrics
    assert "cli.instance_builds_per_run" in metrics


def test_failing_counter_drops_its_layer_but_keeps_the_call():
    import sparsebandit.compression as compression

    def broken(t, args, kwargs, result):
        raise KeyError("renamed field")

    tracer = spans.Tracer()
    hook = spans.Hook("sparsebandit.compression.build_map", "compression",
                      "compression.build", broken)
    original = compression.build_map
    with spans.installed(tracer, (hook,)):
        cmap = compression.build_map(4, 2, 1)
    assert compression.build_map is original
    assert cmap.p == 2
    assert tracer.missing_layers == {"compression"}


def test_traced_pass_adds_up_and_counts_every_query(tmp_path, monkeypatch):
    tiny = workloads.Workload("tiny", (
        workloads.CliGrid("t", "design-elim", (4,), (2,), (0.1,), (12,), 2),
    ), compressed_seeds=1)
    monkeypatch.setattr(workloads, "recorded_digests", lambda name: {})
    prep = workloads.prepare(tiny, 5, tmp_path)
    plain = workloads.run_pass(prep)
    traced = workloads.run_pass(prep, spans.Tracer())
    assert plain.failures == [] and traced.failures == []
    assert plain.attempted == 2 + 2
    assert (plain.queries, plain.digests) == (traced.queries, traced.digests)
    tracer = traced.tracer
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans).values()) == \
        pytest.approx(root.end - root.start, abs=1e-9)
    metrics = spans.layer_metrics(tracer, prep.cli_points)
    assert metrics["model.queries"] == traced.queries
    assert metrics["design.estimate_calls"] == 2 * 6
    assert metrics["compression.find_calls"] == 1
    assert {span.run for span in tracer.spans} == {0, 1, 2, 3}
    assert not hasattr(workloads.cli.main, "__wrapped__")


def test_default_seed_checks_recorded_digests(tmp_path, monkeypatch):
    tiny = workloads.Workload("tiny", (
        workloads.CliGrid("t", "design-elim", (4,), (2,), (0.1,), (12,), 1),
    ))
    monkeypatch.setattr(workloads, "recorded_digests", lambda name: {"t": "0" * 64})
    prep = workloads.prepare(tiny, gate.DEFAULT_SEED, tmp_path)
    result = workloads.run_pass(prep)
    assert [reason for _, reason in result.failures] == \
        ["csv bytes differ from the recorded digest"]
