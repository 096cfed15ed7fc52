"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests -q``."""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMOKE_SEED = 11  # not a recorded seed, so the reduced sizes below are checked by repetition only


def span(parent, name, start, end, outermost=True):
    return [parent, name, start, end, outermost]


def test_self_time_of_nested_spans():
    spans = [
        span(-1, "cli.main", 0.0, 10.0),
        span(0, "harness.run_suite", 1.0, 9.0),
        span(1, "linalg.howell_form", 2.0, 3.0),
        span(1, "znmod.present", 4.0, 8.0),
        span(3, "linalg.diagonalize", 5.0, 7.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 1.5, 2.5])


def test_self_time_counts_overlapping_children_once():
    spans = [span(-1, "cli.main", 0.0, 10.0), span(0, "io.a", 1.0, 5.0), span(0, "io.b", 3.0, 6.0), span(0, "io.c", 9.0, 12.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summary_adds_up_and_counts_recursion_once():
    spans = [
        span(-1, "cli.main", 0.0, 10.0),
        span(0, "homology.ext", 1.0, 9.0),
        span(1, "homology.ext", 2.0, 6.0, outermost=False),
        span(2, "linalg.howell_form", 3.0, 4.0),
        span(-1, "cli.main", 20.0, 21.0),
    ]
    out = tracing.summarize(spans, Counter({"linalg.howell_form.repeats": 1}))
    assert out["traced_s"] == pytest.approx(11.0)
    assert sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(out["traced_s"])
    assert out["homology.ext.calls"] == 2
    assert out["homology.ext.incl_s"] == pytest.approx(8.0)
    assert out["homology.incl_s"] == pytest.approx(8.0)
    assert out["homology.self_s"] == pytest.approx(7.0)
    assert out["linalg.howell_form.repeats"] == 1


def test_cell_buckets():
    assert [tracing.cell_bucket(c) for c in (0, 1, 24, 25, 64, 65)] == ["0x0", "le24", "le24", "25to64", "25to64", "gt64"]


def test_traced_layer_self_times_add_up_to_traced_time():
    argvs = [["verify", "gorenstein", "--seed", "5", "--trials", "3", "--json"]]
    plain = run.run_child(argvs, per_trial=True, trace=False)
    traced = run.run_child(argvs, per_trial=True, trace=True)
    t = traced["trace"]
    layer_sum = sum(t[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_sum == pytest.approx(t["traced_s"], rel=1e-9)
    assert t["harness.self_s"] > 0 and t["linalg.howell_form.calls"] > 0
    assert t["harness.suite_s.gorenstein"] <= t["traced_s"]
    # tracing changes no output byte
    assert traced["sha256"] == plain["sha256"]
    assert traced["attempted"] == plain["attempted"] == 3 and traced["failed"] == 0


def test_generated_inputs_are_seeded_and_well_formed():
    from quiverhom.io import reps_file_from_dict, rep_from_dict, ses_from_dict

    for i in range(6):
        kind, doc = gen.make_item(3, i)
        assert (kind, doc) == gen.make_item(3, i)
        if kind == "classify":
            rep_from_dict(doc)
        elif kind == "purity":
            ses_from_dict(doc)
        else:
            reps_file_from_dict(doc)
    assert gen.make_item(3, 0) != gen.make_item(4, 0)


@pytest.fixture
def small_sizes(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", {"verify_all": ("all", 1), "gorenstein": ("gorenstein", 2),
                                           "ext_engine": ("ext_engine", 2), "large_reps": None})
    monkeypatch.setattr(run, "FILES_PER_CHILD", 2)
    monkeypatch.setattr(run, "TRACE_INPUTS", 1)
    return str(tmp_path)


@pytest.mark.parametrize("workload", ["verify_all", "gorenstein", "ext_engine", "large_reps"])
def test_smoke_each_workload(workload, small_sizes):
    out = run.run(workload, SMOKE_SEED, 0, False, small_sizes)
    res = out["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert out["children"] == 2 and not out["problems"]
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())

    traced = run.run(workload, SMOKE_SEED, 0, True, small_sizes)["result"]
    assert traced["correct"] and set(traced["metrics"]) == set(run.PER_LAYER)
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_a_run_is_a_fixed_count_of_children(small_sizes, monkeypatch):
    # these children take far less than their nominal 10 s, and no more start
    monkeypatch.setattr(run, "CHILD_S", {w: 10.0 for w in run.WORKLOADS})
    assert run.run("gorenstein", SMOKE_SEED, 40, False, small_sizes)["children"] == 4
    assert run.run("gorenstein", SMOKE_SEED, 60, True, small_sizes)["children"] == 6


def test_suite_names_match_the_harness():
    from quiverhom.harness import SUITES

    assert run.SUITES == tuple(SUITES)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    digests = run.load_digests()
    for workload in run.WORKLOADS:
        for seed in run.RECORDED_SEEDS:
            assert len(digests[workload][str(seed)]) == run.INPUTS


def test_outputs_mismatch_is_detected():
    a = {"sha256": "a" * 64}
    b = {"sha256": "b" * 64}
    assert run.check_outputs("gorenstein", SMOKE_SEED, [(0, a), (0, a), (1, b)]) == []
    assert run.check_outputs("gorenstein", SMOKE_SEED, [(0, a), (0, b)])
    assert run.check_outputs("gorenstein", run.RECORDED_SEEDS[0], [(0, a)])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gorenstein", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
