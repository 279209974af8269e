import json
import math

import pytest

from pgblock import constructions
from pgblock.blocking import BlockingSet, incidence, is_blocking, is_minimal
from pgblock.counting import OPEN, gaussian
from pgblock.gf import Field, InputError
from pgblock.pgkernel import GeometryContext, Subspace
from pgblock.search import (TimeBudgetExceeded, classify_minimum,
                            min_blocking_search, refute_below)


def test_pg22_minima_are_the_lines(pg22):
    report = min_blocking_search(pg22, 1, 3)
    assert report.minimum_size == 3
    expected = set()
    for line in pg22.subspaces(1):
        expected.add(tuple(sorted(p.index for p in pg22.subspace_points(line))))
    assert set(report.minimum_sets) == expected
    assert len(report.minimum_sets) == 7


def test_pg22_modes_agree(pg22):
    bb = min_blocking_search(pg22, 1, 3)
    ex = min_blocking_search(pg22, 1, 3, mode="exhaustive")
    assert bb.minimum_size == ex.minimum_size
    assert bb.minimum_sets == ex.minimum_sets


def test_pg32_modes_agree(pg32, pg32_minima):
    ex = min_blocking_search(pg32, 1, 6, mode="exhaustive")
    assert pg32_minima.minimum_size == ex.minimum_size == 6
    assert pg32_minima.minimum_sets == ex.minimum_sets


def test_pg23_k0_minima_are_pencils(pg23):
    report = min_blocking_search(pg23, 0, 4)
    assert report.minimum_size == 4
    num_points = pg23.num_points
    expected = set()
    for pt in pg23.points():
        through = pg23.hyperplanes_through(Subspace(0, (pt.coords,)))
        expected.add(tuple(sorted(
            num_points + pg23.hyperplane_dual_point(hp).index for hp in through)))
    assert set(report.minimum_sets) == expected
    assert len(report.minimum_sets) == 13


def test_pg23_k1_minima_are_line_point_sets(pg23):
    report = min_blocking_search(pg23, 1, 4)
    assert report.minimum_size == 4
    expected = set()
    for line in pg23.subspaces(1):
        expected.add(tuple(sorted(p.index for p in pg23.subspace_points(line))))
    assert set(report.minimum_sets) == expected
    assert len(report.minimum_sets) == 13


def test_minima_are_sound(pg32, pg32_minima):
    for ids in pg32_minima.minimum_sets:
        bset = BlockingSet.from_indices(pg32, 1, ids)
        assert is_blocking(bset)[0]
        assert is_minimal(bset)[0]


def test_refutation_below_six(pg32):
    report = min_blocking_search(pg32, 1, 5)
    assert report.minimum_size is None
    assert report.minimum_sets == ()


def test_exhaustive_refutation_below_six(pg32):
    report = min_blocking_search(pg32, 1, 5, mode="exhaustive")
    assert report.minimum_size is None
    assert report.nodes_expanded == sum(math.comb(30, s) for s in range(6))


def test_worker_determinism(pg32):
    payloads = []
    for workers in (1, 2, 8):
        report = min_blocking_search(pg32, 1, 6, workers=workers)
        payloads.append(json.dumps(report.canonical_dict(), sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]


@pytest.mark.parametrize("fixture,k,cap,nodes,pruned", [
    ("pg32", 1, 6, 1940, 1188),
    ("pg42", 2, 7, 10311, 8228),
    ("pg23", 1, 4, 121, 76),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_branch_and_bound_counters_pinned(request, fixture, k, cap, nodes, pruned, workers):
    # node and prune counts of the plain search, pinned so that a faster node
    # scan is shown to explore exactly the same tree
    report = min_blocking_search(request.getfixturevalue(fixture), k, cap, workers=workers)
    assert (report.nodes_expanded, report.pruned) == (nodes, pruned)


def test_rerun_determinism(pg32, pg32_minima):
    again = min_blocking_search(pg32, 1, 6)
    assert again.canonical_dict() == pg32_minima.canonical_dict()


def test_root_coverage_bound_is_safe(pg22, pg32, pg23):
    # the coverage lower bound at the root never exceeds the true optimum
    for ctx, k, cap in ((pg22, 1, 3), (pg32, 1, 6), (pg23, 0, 4), (pg23, 1, 4)):
        inc = incidence(ctx, k)
        max_cover = max(c.bit_count() for c in inc.covers)
        root_bound = -(-len(inc.spaces) // max_cover)
        report = min_blocking_search(ctx, k, cap)
        assert report.minimum_size is not None
        assert root_bound <= report.minimum_size


def test_time_budget(pg33):
    with pytest.raises(TimeBudgetExceeded):
        min_blocking_search(pg33, 1, 12, budget_seconds=0.05)


def test_refute_below_pg32(pg32):
    report = refute_below(pg32, 1, 6)
    assert report.refuted
    assert report.counterexample is None
    methods = {(c.points, c.hyperplanes): c.method for c in report.compositions}
    assert len(methods) == sum(range(1, 7))  # all exact compositions of sizes 0..5
    assert "counting-bound" in set(methods.values())


@pytest.mark.parametrize("k,workers,message", [
    (3, 1, "need 0 <= k < n, got k=3, n=3"),
    (-1, 1, "need 0 <= k < n, got k=-1, n=3"),
    (1, 0, "need workers >= 1, got workers=0"),
    (1, -3, "need workers >= 1, got workers=-3"),
], ids=["k=n", "k<0", "workers=0", "workers<0"])
def test_search_rejects_bad_arguments(pg32, k, workers, message):
    with pytest.raises(InputError, match=message):
        min_blocking_search(pg32, k, 3, workers=workers)
    with pytest.raises(InputError, match=message):
        refute_below(pg32, k, 3, workers=workers)


def test_refute_below_finds_counterexample(pg32):
    report = refute_below(pg32, 1, 7)  # size-6 sets exist
    assert not report.refuted
    assert report.counterexample is not None
    bset = BlockingSet.from_indices(pg32, 1, report.counterexample)
    assert is_blocking(bset)[0]


def test_classify_pg23(pg23):
    for k, family_size in ((0, 13), (1, 13)):
        verdict = classify_minimum(pg23, k)
        assert verdict.expected_bound == 4
        assert verdict.observed_minimum == 4
        assert verdict.all_minima_match_theorem
        assert verdict.minima_count == family_size
        assert verdict.mismatches == ()
        assert verdict.method == "search"


def test_classify_pg32_middle(pg32):
    verdict = classify_minimum(pg32, 1)
    assert verdict.expected_bound == 6
    assert verdict.observed_minimum == 6
    assert verdict.all_minima_match_theorem
    assert verdict.minima_count == 210


def test_classify_open_case(pg22):
    verdict = classify_minimum(pg22, 1)  # q=2, n=2: k = n/2 is excluded
    assert verdict.expected_bound == OPEN
    assert verdict.observed_minimum == 3
    assert verdict.all_minima_match_theorem is True  # vacuous for open cases


def test_classify_lists_minima_missing_from_family(pg23, monkeypatch):
    sets, tuples = constructions.theorem_family(pg23, 1)
    missing = sets[5]
    monkeypatch.setattr(constructions, "theorem_family",
                        lambda ctx, k: (sets[:5] + sets[6:], tuples - 1))
    verdict = classify_minimum(pg23, 1)
    assert verdict.observed_minimum == 4 and verdict.minima_count == 13
    assert verdict.mismatches == (missing,)
    assert verdict.all_minima_match_theorem is False


def test_classify_middle_case_lists_unrecognized_minima(pg32, monkeypatch):
    sets, _ = constructions.theorem_family(pg32, 1)
    missing = sets[7]
    recognize = constructions.recognize_pencil_partition
    monkeypatch.setattr(constructions, "recognize_pencil_partition",
                        lambda bset: None if bset.element_indices() == missing
                        else recognize(bset))
    verdict = classify_minimum(pg32, 1)
    assert verdict.observed_minimum == 6 and verdict.minima_count == 210
    assert verdict.mismatches == (missing,)
    assert verdict.all_minima_match_theorem is False


def test_classify_fallback_path(pg32):
    # force the budget failure; the middle-case fallback must still decide
    verdict = classify_minimum(pg32, 1, budget_seconds=0.0)
    assert verdict.method == "fallback"
    assert verdict.observed_minimum == 6
    assert verdict.fallback is not None
    assert verdict.fallback.all_blocking
    assert verdict.fallback.refutation.refuted
    assert verdict.all_minima_match_theorem is None


def test_classify_pg52_low_case():
    ctx = GeometryContext(Field(2), 5)
    verdict = classify_minimum(ctx, 1)  # k < (n-1)/2: hyperplane pencils win
    assert verdict.expected_bound == 7
    assert verdict.observed_minimum == 7
    assert verdict.all_minima_match_theorem
    assert verdict.minima_count == gaussian(6, 3, 2)  # one per (n-k-2)-space


def test_report_serialization(pg22):
    report = min_blocking_search(pg22, 1, 3)
    doc = report.to_dict()
    assert doc["minimum_size"] == 3
    assert "wall_time" in doc and "wall_time" not in report.canonical_dict()
    rebuilt = [BlockingSet.from_indices(pg22, 1, ids) for ids in report.minimum_sets]
    assert all(is_blocking(b)[0] for b in rebuilt)
