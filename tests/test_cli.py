import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace

import pytest

import pgblock
from pgblock import blocking, constructions, search
from pgblock.blocking import lemma_checks
from pgblock.cli import main
from pgblock.constructions import canonical_pencil_partition, pencil_partition
from pgblock.gf import Field, InputError, field_for_order
from pgblock.pgkernel import BudgetExceeded, GeometryContext
from pgblock.search import TimeBudgetExceeded

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_bounds_main_theorem(capsys):
    code, data = run_cli(capsys, "bounds", "--n", "3", "--k", "1", "--q", "2")
    assert code == 0
    assert data["main_theorem_bound"] == "6"
    assert "value" not in data
    assert data["params"] == {"n": "3", "k": "1", "q": "2"}


def test_bounds_open_case(capsys):
    code, data = run_cli(capsys, "bounds", "--n", "4", "--k", "2", "--q", "2")
    assert code == 0
    assert data["main_theorem_bound"] == "open"


def test_bounds_other_formulas(capsys):
    code, data = run_cli(capsys, "bounds", "--formula", "gaussian",
                         "--a", "4", "--b", "2", "--q", "2")
    assert code == 0 and data["gaussian"] == "35"
    code, data = run_cli(capsys, "bounds", "--formula", "theta", "--m", "2", "--q", "2")
    assert code == 0 and data["theta"] == "7"
    code, data = run_cli(capsys, "bounds", "--formula", "metsch", "--n", "3",
                         "--q", "2", "--d", "1", "--s", "1", "--b-size", "3")
    assert code == 0 and data["metsch_lower_bound"] == "16"
    code, data = run_cli(capsys, "bounds", "--formula", "heger-nagy",
                         "--a", "4", "--b", "2", "--q", "3")
    assert code == 0
    assert data["comparison"]["satisfied"] is True
    assert data["comparison"]["actual"] == "130"


@pytest.mark.parametrize("formula,given,missing", [
    ("main-theorem", ["--n", "3"], "--k"),
    ("gaussian", [], "--a, --b"),
    ("gaussian", ["--a", "4"], "--b"),
    ("theta", [], "--m"),
    ("metsch", ["--n", "3", "--d", "1"], "--s"),
    ("metsch-dual", ["--d", "1", "--s", "1"], "--n"),
    ("heger-nagy", ["--b", "2"], "--a"),
    ("metsch", ["--n", "3", "--d", "1", "--s", "1"], "--b-size"),
    ("metsch-dual", ["--n", "3", "--d", "1", "--s", "1"], "--b-size"),
], ids=["main-theorem", "gaussian", "gaussian-b", "theta", "metsch", "metsch-dual",
        "heger-nagy", "metsch-b-size", "metsch-dual-b-size"])
def test_bounds_missing_flag_named(capsys, formula, given, missing):
    code = main(["bounds", "--formula", formula, "--q", "2", *given])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--formula {formula} needs {missing}" in captured.err


@pytest.mark.parametrize("formula,given,unused", [
    ("theta", ["--m", "2", "--k", "5", "--a", "9"], "--k, --a"),
    ("main-theorem", ["--n", "3", "--k", "1", "--b-size", "4"], "--b-size"),
    ("metsch", ["--n", "3", "--d", "1", "--s", "1", "--b-size", "3", "--m", "1"], "--m"),
    ("heger-nagy", ["--a", "4", "--b", "2", "--n", "3"], "--n"),
], ids=["theta", "main-theorem", "metsch", "heger-nagy"])
def test_bounds_unused_flag_named(capsys, formula, given, unused):
    code = main(["bounds", "--formula", formula, "--q", "3", *given])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--formula {formula} does not take {unused}" in captured.err


def test_construct_verify_roundtrip(capsys, tmp_path):
    code, doc = run_cli(capsys, "construct", "--q", "2", "--n", "3", "--k", "1")
    assert code == 0
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    code, res = run_cli(capsys, "verify", str(path))
    assert code == 0 and res["blocking"] is True
    code, res = run_cli(capsys, "minimal", str(path))
    assert code == 0 and res["minimal"] is True
    code, dual_doc = run_cli(capsys, "dual", str(path))
    assert code == 0
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(dual_doc))
    code, res = run_cli(capsys, "verify", str(dual_path))
    assert code == 0 and res["blocking"] is True


def test_construct_all_kinds(capsys, tmp_path):
    cases = [
        (["construct", "--q", "3", "--n", "3", "--k", "1", "--t", "2"], 12),
        (["construct", "--q", "2", "--n", "3", "--k", "1",
          "--kind", "bose-burton-points"], 7),
        (["construct", "--q", "2", "--n", "5", "--k", "1",
          "--kind", "bose-burton-hyperplanes"], 7),
        (["construct", "--q", "2", "--n", "4", "--k", "2", "--kind", "q2-even"], 8),
    ]
    for argv, size in cases:
        code, doc = run_cli(capsys, *argv)
        assert code == 0
        assert len(doc["points"]) + len(doc["hyperplanes"]) == size
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, res = run_cli(capsys, "verify", str(path))
        assert code == 0 and res["blocking"] is True


def test_construct_k0_on_the_line(capsys, tmp_path):
    for t in ("1", "2"):
        code, doc = run_cli(capsys, "construct", "--q", "2", "--n", "1", "--k", "0",
                            "--t", t)
        assert code == 0 and doc["k"] == 0
        assert (len(doc["points"]), len(doc["hyperplanes"])) == (int(t), 3 - int(t))
        path = tmp_path / "set.json"
        path.write_text(json.dumps(doc))
        code, res = run_cli(capsys, "verify", str(path))
        assert code == 0 and res["blocking"] is True


def test_construct_omitted_t_means_one(capsys):
    assert run_cli(capsys, "construct", "--q", "3", "--n", "3", "--k", "1") == \
        run_cli(capsys, "construct", "--q", "3", "--n", "3", "--k", "1", "--t", "1")


@pytest.mark.parametrize("argv,flag", [
    (["--k", "0", "--params"], "--k 0 disagrees with the hull in --params"),
    (["--k", "1", "--t", "1", "--params"], "--t applies only"),
    (["--k", "1", "--t", "2", "--kind", "bose-burton-points"], "--t applies only"),
    (["--k", "1", "--kind", "q2-even", "--params"],
     "--params does not apply to --kind q2-even"),
], ids=["k-vs-hull", "t-with-params", "t-with-kind", "params-with-q2-even"])
def test_construct_rejects_ignored_flags(capsys, tmp_path, argv, flag):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(PENCIL_PARAMS))
    if argv[-1] == "--params":
        argv = [*argv, str(path)]
    code = main(["construct", "--q", "2", "--n", "3", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert flag in captured.err


def test_construct_with_explicit_params(capsys, tmp_path):
    params = {
        "hull": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        "axis": [[1, 0, 0, 0]],
        "point_spaces": [[[1, 0, 0, 0], [0, 1, 0, 0]]],
    }
    ppath = tmp_path / "params.json"
    ppath.write_text(json.dumps(params))
    code, doc = run_cli(capsys, "construct", "--q", "2", "--n", "3", "--k", "1",
                        "--params", str(ppath))
    assert code == 0
    assert len(doc["points"]) == 2 and len(doc["hyperplanes"]) == 4
    params["axis"] = [[5, 0, 0, 0]]  # not a GF(2) code
    ppath.write_text(json.dumps(params))
    assert main(["construct", "--q", "2", "--n", "3", "--k", "1",
                 "--params", str(ppath)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_verify_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(
        {"q": 2, "n": 3, "k": 1, "points": [], "hyperplanes": []}))
    code, res = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert res["blocking"] is False
    assert "witness" in res and res["witness"]["dim"] == 1


def test_invalid_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2
    capsys.readouterr()
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"q": 6, "n": 3, "k": 1, "points": []}))
    assert main(["verify", str(wrong)]) == 2
    capsys.readouterr()
    not_blocking = tmp_path / "nb.json"
    not_blocking.write_text(json.dumps(
        {"q": 2, "n": 3, "k": 1, "points": [], "hyperplanes": []}))
    assert main(["minimal", str(not_blocking)]) == 2
    capsys.readouterr()


SMALL_SET = {"q": 2, "n": 3, "k": 1, "points": [[0, 0, 1, 1]],
             "hyperplanes": [[1, 0, 0, 0]]}


@pytest.mark.parametrize("key,value", [
    ("points", [[0, 0, 1.9, 1]]), ("points", [[0, 0, True, 1]]),
    ("points", [[0, 0, "1", 1]]), ("hyperplanes", [[1.0, 0, 0, 0]]),
    ("n", 3.7), ("k", True), ("q", 2.0),
    ("field", {"p": 2.0, "e": 1, "modulus": [0, 1]}),
], ids=["float", "bool", "string", "hyperplane", "n", "k", "q", "field"])
def test_non_integer_input_rejected(capsys, tmp_path, key, value):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({**SMALL_SET, key: value}))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be an integer" in captured.err


@pytest.mark.parametrize("value", [1.9, True, "1"], ids=["float", "bool", "string"])
def test_non_integer_params_rejected(capsys, tmp_path, value):
    params = {"hull": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
              "axis": [[value, 0, 0, 0]],
              "point_spaces": [[[1, 0, 0, 0], [0, 1, 0, 0]]]}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["construct", "--q", "2", "--n", "3", "--k", "1",
                 "--params", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be an integer" in captured.err


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "blocking-set document must be a JSON object, got [1, 2]"),
    ({**SMALL_SET, "field": [2]}, "field must be a JSON object, got [2]"),
    ({key: v for key, v in SMALL_SET.items() if key != "q"}, "missing key 'q'"),
    ({key: v for key, v in SMALL_SET.items() if key != "n"}, "missing key 'n'"),
    ({key: v for key, v in SMALL_SET.items() if key != "k"}, "missing key 'k'"),
    ({**SMALL_SET, "field": {"e": 1}}, "missing key 'p'"),
    ({**SMALL_SET, "points": 5}, "points must be a JSON array, got 5"),
    ({**SMALL_SET, "points": [5]}, "point must be a JSON array, got 5"),
    ({**SMALL_SET, "hyperplanes": 5}, "hyperplanes must be a JSON array, got 5"),
    ({**SMALL_SET, "hyperplanes": [5]}, "hyperplane must be a JSON array, got 5"),
    ({**SMALL_SET, "q": 4, "field": {"p": 2, "e": 2, "modulus": 5}},
     "field modulus must be a JSON array, got 5"),
    ({**SMALL_SET, "q": 4, "field": {"p": 2, "e": 2, "modulus": [1, 3, 1]}},
     "modulus coefficients must lie in [0, 2), got (1, 3, 1)"),
], ids=["list", "field-list", "no-q", "no-n", "no-k", "field-no-p", "points", "point",
        "hyperplanes", "hyperplane", "modulus", "modulus-range"])
def test_malformed_document_rejected(capsys, tmp_path, doc, message):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("modulus,code", [([5, 7, 9, 11], 2), ([0, 1], 1)],
                         ids=["out-of-range", "x"])
def test_prime_field_modulus_checked(capsys, tmp_path, modulus, code):
    # two elements block nothing, so a well-formed field exits 1
    path = tmp_path / "set.json"
    path.write_text(json.dumps({**SMALL_SET, "q": 3,
                                "field": {"p": 3, "e": 1, "modulus": modulus}}))
    assert main(["verify", str(path)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert "modulus coefficients must lie in [0, 3), got (5, 7, 9, 11)" in captured.err


@pytest.mark.parametrize("content,message", [
    (b"\x89PNG\r\n\x1a\n\x00\xff", "can't decode byte 0x89"),
    (None, "No such file or directory"),
], ids=["binary", "missing"])
def test_unreadable_file_rejected(capsys, tmp_path, content, message):
    path = tmp_path / "set.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


PENCIL_PARAMS = {"hull": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                 "axis": [[1, 0, 0, 0]],
                 "point_spaces": [[[1, 0, 0, 0], [0, 1, 0, 0]]]}


@pytest.mark.parametrize("kind,doc,message", [
    ("pencil-partition", [1, 2], "params document must be a JSON object, got [1, 2]"),
    ("pencil-partition", {key: v for key, v in PENCIL_PARAMS.items() if key != "hull"},
     "missing key 'hull'"),
    ("pencil-partition", {**PENCIL_PARAMS, "hull": 5}, "hull must be a JSON array, got 5"),
    ("pencil-partition", {**PENCIL_PARAMS, "axis": [5]}, "axis row must be a JSON array, got 5"),
    ("pencil-partition", {**PENCIL_PARAMS, "point_spaces": 3},
     "point_spaces must be a JSON array, got 3"),
    ("pencil-partition", {**PENCIL_PARAMS, "point_spaces": [3]},
     "point space must be a JSON array, got 3"),
    ("bose-burton-points", {}, "missing key 'anchor'"),
    ("bose-burton-points", {"anchor": 5}, "anchor must be a JSON array, got 5"),
], ids=["list", "no-hull", "hull", "axis-row", "point-spaces", "point-space",
        "no-anchor", "anchor"])
def test_params_document_shape_rejected(capsys, tmp_path, kind, doc, message):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    assert main(["construct", "--q", "2", "--n", "3", "--k", "1", "--kind", kind,
                 "--params", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_internal_error_is_not_invalid_input(monkeypatch, tmp_path):
    def broken(bset):
        raise KeyError("internal")
    monkeypatch.setattr(blocking, "is_blocking", broken)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(SMALL_SET))
    with pytest.raises(KeyError, match="internal"):
        main(["verify", str(path)])


def test_only_input_and_budget_errors_are_defined():
    """Exit 2 is InputError and exit 3 is BudgetExceeded; any other
    exception class in the package would escape both."""
    classes = set()
    for info in pkgutil.iter_modules(pgblock.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pgblock.{info.name}")
        classes |= {obj for _, obj in inspect.getmembers(module, inspect.isclass)
                    if issubclass(obj, Exception) and obj.__module__ == module.__name__}
    assert InputError in classes
    assert {c for c in classes if not issubclass(c, InputError)} == {
        BudgetExceeded, TimeBudgetExceeded}


def test_every_export_resolves():
    # a name dropped from a module but left in __all__ breaks `import *`
    missing = [name for name in pgblock.__all__ if not hasattr(pgblock, name)]
    assert not missing


def test_duplicates_reported_on_stderr(capsys, tmp_path):
    doc = {"q": 3, "n": 3, "k": 1, "points": [[0, 0, 1, 1], [0, 0, 2, 2]],
           "hyperplanes": [[1, 0, 0, 0], [1, 0, 0, 0]]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert main(["dual", str(path)]) == 0
    captured = capsys.readouterr()
    res = json.loads(captured.out)
    assert len(res["points"]) == len(res["hyperplanes"]) == 1
    assert "duplicate point [0, 0, 1, 1] kept once" in captured.err
    assert "duplicate hyperplane [1, 0, 0, 0] kept once" in captured.err


def test_large_set_checks_exit_on_the_enumeration_budget(tmp_path, monkeypatch):
    """verify, minimal and lemma-check on the PG(5,16) k=2 set exit 3 on the
    2-space count before any point-hyperplane table is built."""
    ctx = GeometryContext(field_for_order(16), 5)
    path = tmp_path / "pg516.json"
    path.write_text(json.dumps(pencil_partition(ctx, canonical_pencil_partition(ctx, 2)).to_dict()))

    def refuse(self):
        raise AssertionError("the point-hyperplane table was built")

    monkeypatch.setattr(GeometryContext, "points", refuse)
    monkeypatch.setattr(GeometryContext, "hyperplane_table", refuse)
    for command in ("verify", "minimal", "lemma-check"):
        assert main([command, str(path)]) == 3


def test_budget_exit_code(capsys):
    code = main(["search", "--q", "3", "--n", "3", "--k", "1", "--cap", "12",
                 "--budget-seconds", "0.05"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("budget,exit_code", [("nan", 2), ("-1", 3)], ids=["nan", "negative"])
def test_budget_nan_is_invalid_and_negative_is_spent(capsys, budget, exit_code):
    code = main(["search", "--q", "3", "--n", "3", "--k", "1", "--cap", "12",
                 "--budget-seconds", budget])
    captured = capsys.readouterr()
    assert code == exit_code and captured.out == ""
    if budget == "nan":
        assert "need a budget that is a number, got budget_seconds=nan" in captured.err


@pytest.mark.parametrize("flags,message", [
    (["--k", "3"], "need 0 <= k < n, got k=3, n=3"),
    (["--k", "-1"], "need 0 <= k < n, got k=-1, n=3"),
    (["--k", "1", "--workers", "0"], "need workers >= 1, got workers=0"),
    (["--k", "1", "--workers", "-3"], "need workers >= 1, got workers=-3"),
    (["--k", "1", "--mode", "exhaustive", "--workers", "2"],
     "exhaustive mode runs on one worker, got workers=2"),
], ids=["k=n", "k<0", "workers=0", "workers<0", "exhaustive-workers"])
def test_search_rejects_bad_arguments(capsys, flags, message):
    assert main(["search", "--q", "2", "--n", "3", "--cap", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_search_json(capsys):
    code, data = run_cli(capsys, "search", "--q", "2", "--n", "2", "--k", "1",
                         "--cap", "3")
    assert code == 0
    assert data["minimum_size"] == 3
    assert len(data["minimum_sets"]) == 7
    assert data["workers"] == 1
    assert "wall_time" in data


def test_search_rerun_stability(capsys):
    runs = []
    for _ in range(2):
        code, data = run_cli(capsys, "search", "--q", "2", "--n", "3", "--k", "1",
                             "--cap", "6")
        assert code == 0
        data.pop("wall_time")
        runs.append(json.dumps(data, sort_keys=True))
    assert runs[0] == runs[1]


def test_classify_json(capsys):
    code, data = run_cli(capsys, "classify", "--q", "3", "--n", "2", "--k", "1")
    assert code == 0
    assert data["expected_bound"] == 4
    assert data["observed_minimum"] == 4
    assert data["all_minima_match_theorem"] is True


@pytest.mark.parametrize("q,minima", [(2, 8), (3, 16)], ids=["pg12", "pg13"])
def test_classify_projective_line(capsys, q, minima):
    # a hyperplane of PG(1,q) is a point, so every minimum takes each of the
    # q + 1 points once, as a point or as a hyperplane
    code, data = run_cli(capsys, "classify", "--q", str(q), "--n", "1", "--k", "0")
    assert code == 0
    assert data["expected_bound"] == data["observed_minimum"] == q + 1
    assert data["minima_count"] == minima
    assert data["all_minima_match_theorem"] is True and data["mismatches"] == []


@pytest.mark.parametrize("q", [2, 3], ids=["pg12", "pg13"])
def test_classify_projective_line_fallback(capsys, q):
    code, data = run_cli(capsys, "classify", "--q", str(q), "--n", "1", "--k", "0",
                         "--budget-seconds", "0")
    assert code == 0
    assert data["method"] == "fallback"
    assert data["observed_minimum"] == q + 1
    assert data["minima_count"] == data["fallback"]["distinct_sets"] == 2 ** (q + 1)
    assert data["fallback"]["all_blocking"] and data["fallback"]["refutation"]["refuted"]


def test_classify_pg52_middle_case_fallback(capsys):
    # the fallback decides PG(5,2) k=2: the family blocks, and the sliced
    # refutation below 12 searches (5,5), (6,5), (7,4) and (8,3)
    code, data = run_cli(capsys, "classify", "--q", "2", "--n", "5", "--k", "2",
                         "--budget-seconds", "0")
    assert code == 0
    assert data["method"] == "fallback"
    assert data["observed_minimum"] == 12
    assert data["minima_count"] == data["fallback"]["distinct_sets"] == 19530
    refutation = data["fallback"]["refutation"]
    assert refutation["refuted"] and refutation["nodes_expanded"] == 413
    assert [(c["points"], c["hyperplanes"]) for c in refutation["compositions"]
            if c["method"] == "search"] == [(5, 5), (6, 5), (7, 4), (8, 3)]


def test_classify_out_of_budget_outside_middle_case(capsys):
    # the fallback exists only for n = 2k + 1: elsewhere the budget exit stands
    code, data = run_cli(capsys, "classify", "--q", "3", "--n", "2", "--k", "0",
                         "--budget-seconds", "0")
    assert code == 3
    assert data is None


def test_classify_below_the_bound_exit_code(capsys):
    code, data = run_cli(capsys, "classify", "--q", "2", "--n", "3", "--k", "1", "--cap", "5")
    assert code == 1
    assert data["observed_minimum"] is None and data["all_minima_match_theorem"] is False


def test_classify_unconfirmed_fallback_exit_code(capsys, monkeypatch):
    # a fallback whose refutation fails confirms no minimum
    refute = search.refute_below
    monkeypatch.setattr(search, "refute_below",
                        lambda *args: replace(refute(*args), refuted=False))
    code, data = run_cli(capsys, "classify", "--q", "2", "--n", "3", "--k", "1",
                         "--budget-seconds", "0")
    assert code == 1
    assert data["method"] == "fallback" and data["observed_minimum"] is None
    assert data["all_minima_match_theorem"] is None and data["minima_count"] == 0


def test_classify_open_case_nothing_found(capsys):
    code, data = run_cli(capsys, "classify", "--q", "2", "--n", "2", "--k", "0",
                         "--cap", "1")
    assert code == 1
    assert data["observed_minimum"] is None
    assert data["all_minima_match_theorem"] is False


def test_classify_mismatch_exit_code(capsys, monkeypatch):
    sets, tuples = constructions.theorem_family(GeometryContext(Field(3), 2), 1)
    monkeypatch.setattr(constructions, "theorem_family",
                        lambda ctx, k: (sets[1:], tuples - 1))
    code, data = run_cli(capsys, "classify", "--q", "3", "--n", "2", "--k", "1")
    assert code == 1
    assert data["mismatches"] == [list(sets[0])]
    assert data["all_minima_match_theorem"] is False


@pytest.mark.parametrize("a,b", [("1", "2"), ("3", "-1")])
def test_bounds_heger_nagy_b_out_of_range(capsys, a, b):
    code = main(["bounds", "--formula", "heger-nagy", "--a", a, "--b", b, "--q", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"need 0 <= b <= a, got a={a}, b={b}" in captured.err


def test_classify_open_json(capsys):
    code, data = run_cli(capsys, "classify", "--q", "2", "--n", "2", "--k", "1")
    assert code == 0
    assert data["expected_bound"] == "open"
    assert data["observed_minimum"] == 3


def test_lemma_check(capsys, tmp_path):
    code, doc = run_cli(capsys, "construct", "--q", "2", "--n", "3", "--k", "1")
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    code, res = run_cli(capsys, "lemma-check", str(path))
    assert code == 0
    assert res["all_pass"] is True
    assert res["checks"]["size_bound"]["pass"]
    assert res["checks"]["skew_cospace_bound"]["pass"]


def test_lemma_check_non_minimum(capsys, tmp_path):
    # the plane is blocking but above the (q+1)q^k size, equality checks vacuous
    code, doc = run_cli(capsys, "construct", "--q", "2", "--n", "3", "--k", "1",
                        "--kind", "bose-burton-points")
    path = tmp_path / "bb.json"
    path.write_text(json.dumps(doc))
    code, res = run_cli(capsys, "lemma-check", str(path))
    assert code == 0
    assert res["checks"]["no_incident_pair"]["applicable"] is False


@pytest.mark.parametrize("q,ts", [(2, (1,)), (3, (1, 2, 3))], ids=["pg32", "pg33"])
def test_lemma_checks_equals_cli_payload(capsys, tmp_path, q, ts):
    ctx = GeometryContext(Field(q), 3)
    for t in ts:
        bset = pencil_partition(ctx, canonical_pencil_partition(ctx, 1, t))
        path = tmp_path / f"pp{t}.json"
        path.write_text(json.dumps(bset.to_dict()))
        code, res = run_cli(capsys, "lemma-check", str(path))
        assert code == 0
        checks = lemma_checks(bset)
        assert res == {"checks": checks, "all_pass": True}
        assert checks["pinned_hyperplane_dichotomy"]["pins_checked"] > 0


@pytest.mark.parametrize("kind,removable", [
    ("points", {"type": "point", "coords": [1, 1, 1, 1]}),
    ("hyperplanes", {"type": "hyperplane", "dual": [1, 1, 1, 1]}),
], ids=["point", "hyperplane"])
def test_minimal_names_a_removable_element(capsys, tmp_path, kind, removable):
    # a minimum set plus one element: that element is the removable one
    code, doc = run_cli(capsys, "construct", "--q", "2", "--n", "3", "--k", "1")
    doc[kind].append([1, 1, 1, 1])
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    code, res = run_cli(capsys, "minimal", str(path))
    assert code == 1
    assert res == {"minimal": False, "removable": removable}


def test_module_entry_point():
    # python -m pgblock runs the same main as the pgblock console script
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pgblock", "bounds", "--n", "3", "--k", "1",
                           "--q", "2"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["main_theorem_bound"] == "6"


def test_stdin_input(capsys, monkeypatch, tmp_path):
    import io
    doc = {"q": 2, "n": 3, "k": 1, "points": [], "hyperplanes": []}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, res = run_cli(capsys, "verify", "-")
    assert code == 1 and res["blocking"] is False


def test_normalization_reported_on_stderr(capsys, tmp_path):
    doc = {"q": 3, "n": 2, "k": 1, "points": [[0, 2, 1]], "hyperplanes": []}
    path = tmp_path / "unnorm.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert "normalized" in captured.err
    assert code == 1
