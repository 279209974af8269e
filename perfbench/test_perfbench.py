"""Quick tests of the benchmark itself, on the PG(3,2), k=1 workloads.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as driver  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == driver.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == driver.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BENCHMARK_WORKLOADS)


def test_end_to_end_run_reports_every_metric():
    out = last_json(bench("--workload", "classify_pg32", "--seed", "3",
                          "--seconds", "0", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == 1 + driver.SETUP_ONLY_RUNS
    assert set(out["metrics"]) == set(driver.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_runs_report_layers_and_invariants():
    expected = {
        "classify_pg32": {"search.nodes": 1940, "search.pruned": 1188,
                          "constructions.recognize_calls": 210,
                          "blocking.incidence_builds": 1},
        "fallback_pg32": {"constructions.param_tuples": 630,
                          "blocking.is_blocking_calls": 210,
                          "search.compositions_by_bound": 21},
        "lemma_pg32": {"blocking.skew_profile_calls": 13,
                       "blocking.incidence_builds": 2},
    }
    for name, counts in expected.items():
        out = last_json(bench("--workload", name, "--trace", "1", "--seconds", "0"))
        assert out["correct"], name
        assert set(out["metrics"]) == set(driver.PER_LAYER)
        for key, value in counts.items():
            assert out["metrics"][key]["value"] == value, (name, key)
        assert out["metrics"]["gf.ops"]["value"] > 0
        assert out["metrics"]["pgkernel.contains_us"]["value"] > 0


def test_lemma_input_depends_only_on_seed(tmp_path):
    wl = workloads.WORKLOADS["lemma_pg32"]
    docs = []
    for seed in (5, 5, 6):
        with open(workloads.make_input(wl, seed, str(tmp_path / str(len(docs))))) as f:
            docs.append(json.load(f))
    assert docs[0] == docs[1] != docs[2]


def test_check_reports_a_wrong_output(tmp_path):
    wl = workloads.WORKLOADS["lemma_pg32"]
    workloads.import_package()
    ctx = workloads.make_context(wl)
    code, doc = workloads.run(wl, ctx, workloads.make_input(wl, 1, str(tmp_path)))
    assert workloads.check(wl, (code, doc)) == []
    doc["checks"]["skew_cospace_bound"]["flats_checked"] += 1
    assert workloads.check(wl, (1, doc)) == [
        "exit code: got 1, expected 0",
        "flats_checked: got 14, expected 13"]


def test_tracer_patches_every_lookup_and_restores():
    from pgblock import blocking, search

    original = blocking.incidence
    tracer = Tracer().install()
    try:
        assert search.incidence is blocking.incidence is not original
        ctx = workloads.make_context(workloads.WORKLOADS["classify_pg32"])
        search.min_blocking_search(ctx, 1, 6)
    finally:
        tracer.remove()
    assert search.incidence is blocking.incidence is original
    assert tracer.count("search.min_blocking_search") == 1
    assert tracer.count("blocking.incidence") == 2
    assert tracer.distinct_results("blocking.incidence") == 1
    assert tracer.count("gf.Field.mul") > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "lemma_pg32", "--seconds", "0", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
