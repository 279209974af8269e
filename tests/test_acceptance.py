"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings as they happen (without -s they still appear for
failures and in the captured output).
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from pgblock.blocking import (BlockingSet, candidates, dual_set, is_blocking, is_minimal,
                              pinned_hyperplanes, skew_space_profile,
                              tangent_closure, unblocked_count)
from pgblock.constructions import (PencilPartitionParams,
                                   distinct_pencil_partition_sets, pencil,
                                   q2_even_mixed_set,
                                   recognize_pencil_partition)
from pgblock.counting import (OPEN, gaussian, heger_nagy_bracket,
                              metsch_lower_bound, minimum_size_bound, theta)
from pgblock.gf import Field, field_for_order
from pgblock.pgkernel import GeometryContext, Subspace
from pgblock.search import (classify_minimum, min_blocking_search,
                            verify_middle_case)

PRIME_POWERS_TO_9 = [2, 3, 4, 5, 7, 8, 9]


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL "
              f"after {time.perf_counter() - start:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, \
        f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"
    print(f"[acceptance] criterion {number} ({description}): PASS "
          f"in {elapsed:.1f}s (limit {limit_seconds:.0f}s)")


def _random_params(ctx, k, rng):
    hull = rng.choice(ctx.subspaces(k + 1))
    if k == 1:
        axes = [Subspace(0, (p.coords,)) for p in ctx.subspace_points(hull)]
    else:
        axes = [a for a in ctx.subspaces(k - 1) if ctx.contains(hull, a)]
    axis = rng.choice(axes)
    members = list(pencil(ctx, axis, hull))
    t = rng.randrange(1, ctx.q + 1)
    chosen = frozenset(rng.sample(members, t))
    return PencilPartitionParams(hull, axis, chosen, frozenset(members) - chosen)


def test_criterion_1_middle_case_classification():
    """PG(3,2), k=1: minimum 6, every minimum set recognized, and the minima
    list equals the distinct pencil-partition sets."""
    with criterion(1, "middle-case classification in PG(3,2)", 60):
        ctx = GeometryContext(Field(2), 3)
        report = min_blocking_search(ctx, 1, 6, workers=1)
        assert report.minimum_size == 6 == (ctx.q + 1) * ctx.q
        from pgblock.constructions import pencil_partition
        for ids in report.minimum_sets:
            bset = BlockingSet(ctx, 1, ids)
            params = recognize_pencil_partition(bset)
            assert params is not None, f"unrecognized minimum set {ids}"
            assert pencil_partition(ctx, params) == bset
        expected_sets, _ = distinct_pencil_partition_sets(ctx, 1)
        assert report.minimum_sets == expected_sets
        assert len(report.minimum_sets) == 210


def test_criterion_2_refutation_below_six():
    """No blocking set of size <= 5 exists in PG(3,2), k=1."""
    with criterion(2, "size <= 5 refutation in PG(3,2)", 60):
        ctx = GeometryContext(Field(2), 3)
        report = min_blocking_search(ctx, 1, 5, workers=1)
        assert report.minimum_size is None
        assert report.minimum_sets == ()


def test_criterion_3_non_middle_cases():
    """PG(2,3): k=0 minima are the hyperplane pencils through a point,
    k=1 minima are the line point sets, both of size theta_1 = 4."""
    ctx = GeometryContext(Field(3), 2)
    with criterion(3, "PG(2,3) k=0 classification", 30):
        verdict = classify_minimum(ctx, 0)
        assert verdict.expected_bound == theta(1, 3) == 4
        assert verdict.observed_minimum == 4
        assert verdict.all_minima_match_theorem and not verdict.mismatches
        num_points = ctx.num_points
        pencils = set()
        for pt in ctx.points():
            pencils.add(tuple(sorted(
                u for u in candidates(ctx, ctx.span(pt)) if u >= num_points)))
        assert set(verdict.report.minimum_sets) == pencils
    with criterion(3, "PG(2,3) k=1 classification", 30):
        verdict = classify_minimum(ctx, 1)
        assert verdict.expected_bound == 4
        assert verdict.observed_minimum == 4
        assert verdict.all_minima_match_theorem and not verdict.mismatches
        lines = {tuple(sorted(p.index for p in ctx.subspace_points(line)))
                 for line in ctx.subspaces(1)}
        assert set(verdict.report.minimum_sets) == lines


def test_criterion_4_construction_properties():
    """100 random pencil-partition instances across (k,q) in
    {(1,2),(1,3),(1,4),(2,2)}: blocking, size (q+1)q^k, dual recognized,
    minimal, and no point of the set on any of its hyperplanes."""
    with criterion(4, "construction properties, 100 random instances", 300):
        rng = random.Random(20240817)
        classes = [(1, 2), (1, 3), (1, 4), (2, 2)]
        contexts = {(k, q): GeometryContext(field_for_order(q), 2 * k + 1)
                    for k, q in classes}
        from pgblock.constructions import pencil_partition
        for i in range(100):
            k, q = classes[i % len(classes)]
            ctx = contexts[(k, q)]
            bset = pencil_partition(ctx, _random_params(ctx, k, rng))
            assert is_blocking(bset)[0]
            assert bset.size == (q + 1) * q ** k
            assert is_minimal(bset) == (True, None)
            for pt in bset.points:
                for hp in bset.hyperplanes:
                    assert not ctx.contains(hp, pt)
            dual = dual_set(bset)
            assert recognize_pencil_partition(dual) is not None


def test_criterion_5_metsch_bounds_vs_brute_force():
    """Skew-space counts dominate the lower-bound formula: exhaustively for
    |B| <= theta_1 in PG(3,2) (equality at a full line), and for 200 random
    point sets in PG(3,3) with |B| <= theta_d, d in {1, 2}."""
    with criterion(5, "counting bounds vs enumeration", 300):
        ctx = GeometryContext(Field(2), 3)
        pts = ctx.points()
        for size in range(theta(1, 2) + 1):
            for combo in combinations(range(len(pts)), size):
                bset = BlockingSet.from_elements(ctx, 1, frozenset(pts[i] for i in combo),
                                                 frozenset())
                for s in (0, 1, 2):
                    assert unblocked_count(bset, s) >= \
                        metsch_lower_bound(3, 2, 1, s, size)
        line = ctx.subspaces(1)[0]
        full_line = BlockingSet.from_elements(ctx, 1, frozenset(ctx.subspace_points(line)),
                                              frozenset())
        assert unblocked_count(full_line, 1) == 16 == metsch_lower_bound(3, 2, 1, 1, 3)

        ctx33 = GeometryContext(Field(3), 3)
        pts33 = ctx33.points()
        rng = random.Random(5)
        for i in range(200):
            d = 1 + (i % 2)
            size = rng.randrange(0, theta(d, 3) + 1)
            combo = rng.sample(range(len(pts33)), size)
            bset = BlockingSet.from_elements(ctx33, 1,
                                             frozenset(pts33[j] for j in combo), frozenset())
            for s in range(0, 3 - d + 1):
                assert unblocked_count(bset, s) >= \
                    metsch_lower_bound(3, 3, d, s, size)


def test_criterion_6_heger_nagy_sweep():
    """gaussian(a, b, q) < the certified upper bound for every prime power
    q <= 9 and 0 < b < a <= 12; the lower end of the bracket certifies the
    strict inequality is not an artifact of rounding."""
    with criterion(6, "gaussian upper-bound sweep", 10):
        for q in PRIME_POWERS_TO_9:
            for a in range(2, 13):
                for b in range(1, a):
                    value = gaussian(a, b, q)
                    lo, hi = heger_nagy_bracket(a, b, q)
                    assert value < hi, (a, b, q)
                    assert value < lo, (a, b, q)


def test_criterion_7_q2_even_sets_and_pg42_minimum():
    """The q=2 even-dimension mixed sets block with size 2^(n/2+1) for
    n in {2, 4}; in PG(4,2), k=2 the minimum is settled empirically: the
    7-point plane blocks and no set of size <= 6 does."""
    with criterion(7, "q2-even sets and the PG(4,2) empirical minimum", 600):
        for n in (2, 4):
            ctx = GeometryContext(Field(2), n)
            bset = q2_even_mixed_set(ctx)
            assert bset.size == 2 ** (n // 2 + 1)
            assert is_blocking(bset)[0]
        ctx = GeometryContext(Field(2), 4)
        assert minimum_size_bound(4, 2, 2) == OPEN
        plane = ctx.subspaces(2)[0]
        trivial = BlockingSet.from_elements(ctx, 2, frozenset(ctx.subspace_points(plane)),
                                            frozenset())
        assert trivial.size == 7 and is_blocking(trivial)[0]
        report = min_blocking_search(ctx, 2, 7, workers=1)
        assert report.minimum_size == 7          # size <= 6 settled: none exists
        assert len(report.minimum_sets) == 155   # exactly the plane point sets
        planes = {tuple(sorted(p.index for p in ctx.subspace_points(pl)))
                  for pl in ctx.subspaces(2)}
        assert set(report.minimum_sets) == planes
        print("[acceptance]   PG(4,2) k=2: no blocking set of size <= 6; "
              "minimum is 7, all 155 minima are plane point sets")


def test_criterion_8_lemma_suite_on_equality_cases():
    """For every minimum blocking set of PG(3,2), k=1: the skew-space bound
    holds with its equality conclusions, the point part closes into a
    subspace lying in a (k+1)-space, and the pinned-hyperplane dichotomy
    holds for every eligible point of the hull."""
    with criterion(8, "equality-case diagnostics on all 210 minima", 120):
        ctx = GeometryContext(Field(2), 3)
        k = 1
        report = min_blocking_search(ctx, k, 6)
        assert report.minimum_size == 6
        for ids in report.minimum_sets:
            bset = BlockingSet(ctx, k, ids)
            point_idx = {p.index for p in bset.points}
            for pt in ctx.points():
                if pt.index in point_idx:
                    continue
                profile = skew_space_profile(bset, Subspace(0, (pt.coords,)))
                assert profile.count >= profile.bound
                if profile.equality:
                    assert profile.single_point_per_kspace
                    assert profile.point_count_multiple
            closure = tangent_closure(ctx, bset.points)
            assert closure.hypothesis_ok
            assert closure.is_subspace
            assert closure.dim == closure.expected_dim <= k + 1
            params = recognize_pencil_partition(bset)
            assert params is not None
            hull = params.hull
            for pin in ctx.subspace_points(hull):
                if pin.index in point_idx:
                    continue
                rep = pinned_hyperplanes(bset, hull, pin)
                assert rep.case in ("full_trace", "count")
                assert rep.bound_ok
                if rep.case == "full_trace":
                    assert len(rep.hyperplanes) >= ctx.q ** k
                else:
                    assert len(rep.hyperplanes) >= ctx.q ** (k - 1) * (ctx.q + 1)


def test_criterion_9_stretch_pg33_classification():
    """Stretch: PG(3,3), k=1 classifies to minimum 12 with every minimum a
    pencil-partition set; the fallback verification path (instance checks
    plus bound-assisted refutation below 12) runs regardless."""
    with criterion(9, "PG(3,3) stretch classification and fallback", 3600):
        ctx = GeometryContext(Field(3), 3)
        fallback = verify_middle_case(ctx, 1)
        assert fallback.all_blocking
        assert fallback.refutation.refuted
        assert fallback.parameter_tuples == 7280
        assert fallback.refutation.nodes_expanded == 109
        print(f"[acceptance]   fallback: {fallback.distinct_sets} distinct "
              f"instances block; no set of size < 12 "
              f"({fallback.refutation.nodes_expanded} search nodes)")
        verdict = classify_minimum(ctx, 1, budget_seconds=3000)
        assert verdict.expected_bound == 12
        assert verdict.observed_minimum == 12
        assert verdict.method == "search"
        assert verdict.all_minima_match_theorem and not verdict.mismatches
        assert verdict.minima_count == fallback.distinct_sets == 4160
        pencil_sets, _ = distinct_pencil_partition_sets(ctx, 1)
        assert pencil_sets == verdict.report.minimum_sets
        assert verdict.report.nodes_expanded == 721577
        assert verdict.report.pruned == 560536
