import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from pgblock import blocking
from pgblock.blocking import (COUNT_BOUND, FULL_TRACE, VACUOUS, BlockingSet,
                              PinnedHyperplanesReport, SkewSpaceProfile, dual_set,
                              incidence, is_blocking, is_minimal, lemma_checks,
                              pinned_hyperplanes, skew_space_profile, spaces_inside,
                              tangent_closure, unblocked_count)
from pgblock.constructions import (bose_burton, canonical_pencil_partition,
                                   pencil_partition, theorem_family)
from pgblock.counting import gaussian, theta
from pgblock.gf import Field, InputError, field_for_order
from pgblock.pgkernel import EMPTY_SUBSPACE, GeometryContext, Point, Subspace


def _hyperplanes_through(ctx, space):
    """The hyperplanes containing space: the duals of the points of its dual."""
    return tuple(ctx.hyperplane(p.coords) for p in ctx.subspace_points(ctx.dual(space)))


def _point_set(ctx, k, points):
    return BlockingSet.from_elements(ctx, k, frozenset(points), frozenset())


def test_is_blocking_plane(pg32):
    plane = pg32.subspaces(2)[0]
    ok, witness = is_blocking(_point_set(pg32, 1, pg32.subspace_points(plane)))
    assert ok and witness is None


def test_is_blocking_empty(pg32):
    ok, witness = is_blocking(_point_set(pg32, 1, ()))
    assert not ok
    assert witness is not None and witness.dim == 1


def test_is_blocking_construction(pg32):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    assert is_blocking(bset)[0]


def test_unblocked_count_examples(pg32):
    line = pg32.subspaces(1)[0]
    assert unblocked_count(_point_set(pg32, 1, pg32.subspace_points(line)), 1) == 16
    assert unblocked_count(_point_set(pg32, 1, pg32.points()), 1) == 0
    assert unblocked_count(_point_set(pg32, 1, ()), 1) == 35


def test_unblocked_count_mixed_semantics(pg32):
    # a k-space is blocked by a point on it or a hyperplane over it
    line = pg32.subspaces(1)[0]
    hyp = _hyperplanes_through(pg32, line)[0]
    bset = BlockingSet.from_elements(pg32, 1, frozenset(), frozenset([hyp]))
    inside = sum(1 for l in pg32.subspaces(1) if pg32.contains(hyp, l))
    assert unblocked_count(bset, 1) == 35 - inside


def test_is_minimal(pg32):
    plane = pg32.subspaces(2)[0]
    base = _point_set(pg32, 1, pg32.subspace_points(plane))
    assert is_minimal(base) == (True, None)
    extra = next(p for p in pg32.points() if not pg32.contains(plane, p))
    padded = _point_set(pg32, 1, set(pg32.subspace_points(plane)) | {extra})
    ok, removable = is_minimal(padded)
    assert not ok and removable == extra
    with pytest.raises(InputError, match="minimality is only defined for blocking sets"):
        is_minimal(_point_set(pg32, 1, ()))


def test_is_minimal_construction(pg32):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    assert is_minimal(bset) == (True, None)


def test_dual_set_involution_and_soundness(pg32):
    rng = random.Random(3)
    pts = pg32.points()
    hyps = _hyperplanes_through(pg32, EMPTY_SUBSPACE)
    for _ in range(25):
        bset = BlockingSet.from_elements(
            pg32, rng.choice([0, 1, 2]),
            frozenset(rng.sample(pts, rng.randrange(0, 6))),
            frozenset(rng.sample(hyps, rng.randrange(0, 6))))
        dual = dual_set(bset)
        assert dual.k == pg32.n - 1 - bset.k
        assert dual_set(dual) == bset
        assert is_blocking(bset)[0] == is_blocking(dual)[0]


def test_dual_of_bose_burton_is_pencil(pg32):
    plane = pg32.subspaces(2)[0]
    bset = _point_set(pg32, 1, pg32.subspace_points(plane))
    dual = dual_set(bset)
    assert not dual.points and len(dual.hyperplanes) == 7
    assert is_blocking(dual)[0]


def test_blocking_monotone(pg32):
    rng = random.Random(5)
    plane = pg32.subspaces(2)[0]
    base = set(pg32.subspace_points(plane))
    others = [p for p in pg32.points() if p not in base]
    hyps = _hyperplanes_through(pg32, EMPTY_SUBSPACE)
    for _ in range(10):
        superset = base | set(rng.sample(others, rng.randrange(0, 4)))
        extra_h = frozenset(rng.sample(hyps, rng.randrange(0, 3)))
        assert is_blocking(BlockingSet.from_elements(pg32, 1, frozenset(superset), extra_h))[0]


def test_tangent_closure_single_point(pg32):
    rep = tangent_closure(pg32, [pg32.point(0)])
    assert rep.hypothesis_ok and rep.is_subspace
    assert rep.dim == 0 == rep.expected_dim
    assert rep.closure == frozenset([pg32.point(0)])


def test_tangent_closure_two_points(pg32):
    a, b = pg32.point(0), pg32.point(1)
    rep = tangent_closure(pg32, [a, b])
    assert rep.hypothesis_ok and rep.is_subspace and rep.dim == 1
    line = pg32.span(a, b)
    assert rep.closure == frozenset(pg32.subspace_points(line))


def test_tangent_closure_hypothesis_violation(pg22):
    # a triangle: any off point lies on both tangent and secant lines
    pts = [pg22.point((1, 0, 0)), pg22.point((0, 1, 0)), pg22.point((0, 0, 1))]
    rep = tangent_closure(pg22, pts)
    assert not rep.hypothesis_ok
    assert rep.violator is not None
    assert rep.is_subspace is None and rep.dim is None


def test_tangent_closure_dimension_law_exhaustive(pg22):
    pts = pg22.points()
    for size in range(1, 6):
        for combo in combinations(range(len(pts)), size):
            rep = tangent_closure(pg22, [pts[i] for i in combo])
            if rep.hypothesis_ok:
                assert rep.is_subspace
                assert rep.dim == rep.expected_dim


def test_skew_space_profile_construction(pg32):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))  # t = 1
    point_idx = {p.index for p in bset.points}
    t = len(bset.points) // 2
    seen_equality = False
    for pt in pg32.points():
        if pt.index in point_idx:
            continue
        profile = skew_space_profile(bset, Subspace(0, (pt.coords,)))
        assert profile.count >= profile.bound == Fraction(3 - t)
        if profile.equality:
            seen_equality = True
            assert profile.single_point_per_kspace
            assert profile.point_count_multiple
    assert seen_equality


def test_skew_space_profile_pencil_of_hyperplanes(pg32):
    axis = pg32.point(0)
    hyps = _hyperplanes_through(pg32, Subspace(0, (axis.coords,)))
    bset = BlockingSet.from_elements(pg32, 1, frozenset(), frozenset(hyps))
    profile = skew_space_profile(bset, Subspace(0, (axis.coords,)))
    assert profile.count == theta(2, 2) == 7 >= 3


def test_skew_space_profile_errors(pg32, pg42):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    inside = next(iter(bset.points))
    with pytest.raises(InputError, match="the flat meets the point part"):
        skew_space_profile(bset, Subspace(0, (inside.coords,)))
    plane42 = pg42.subspaces(2)[0]
    wrong = BlockingSet.from_elements(pg42, 2, frozenset(pg42.subspace_points(plane42)), frozenset())
    with pytest.raises(InputError, match=r"need n = 2k \+ 1, got n=4, k=2"):
        skew_space_profile(wrong, Subspace(1, plane42.basis[:2]))


def test_pinned_hyperplanes_construction(pg32):
    params = canonical_pencil_partition(pg32, 1)
    bset = pencil_partition(pg32, params)
    hull = params.hull
    assert hull.dim == 2
    point_idx = {p.index for p in bset.points}
    for pt in pg32.subspace_points(hull):
        if pt.index in point_idx:
            continue
        rep = pinned_hyperplanes(bset, hull, pt)
        assert rep.case in ("full_trace", "count")
        assert rep.bound_ok


def test_pinned_hyperplanes_vacuous(pg32):
    plane = pg32.subspaces(2)[0]
    pts = pg32.subspace_points(plane)[:2]
    bset = BlockingSet.from_elements(pg32, 1, frozenset(pts), frozenset())
    hull = plane
    pin = next(p for p in pg32.subspace_points(hull) if p not in pts)
    rep = pinned_hyperplanes(bset, hull, pin)
    assert rep.case == "vacuous"
    assert rep.hyperplanes == frozenset()
    assert rep.bound_ok is None


def test_pinned_hyperplanes_errors(pg32):
    params = canonical_pencil_partition(pg32, 1)
    bset = pencil_partition(pg32, params)
    hull = params.hull
    inside = next(iter(bset.points))
    with pytest.raises(InputError, match="belongs to the point part"):
        pinned_hyperplanes(bset, hull, inside)
    outside_hull_pt = next(p for p in pg32.points() if not pg32.contains(hull, p))
    other_hull = pg32.span(hull)  # same hull; points must lie inside
    moved = BlockingSet.from_elements(pg32, 1, frozenset([outside_hull_pt]), bset.hyperplanes)
    with pytest.raises(InputError, match="the point part is not contained in the hull"):
        pinned_hyperplanes(moved, other_hull, next(
            p for p in pg32.subspace_points(hull) if p != outside_hull_pt))


def test_size_bound_refutation_and_equality_properties(pg32, pg32_minima):
    """No blocking set of size <= 5 exists; every size-6 one satisfies the
    equality consequences: no incident point/hyperplane pair and no outside
    point on both a tangent and a secant."""
    assert pg32_minima.minimum_size == 6
    for ids in pg32_minima.minimum_sets:
        bset = BlockingSet(pg32, 1, ids)
        for pt in bset.points:
            for hp in bset.hyperplanes:
                assert not pg32.contains(hp, pt)
        rep = tangent_closure(pg32, bset.points)
        assert rep.hypothesis_ok


def test_element_indices_round_trip(pg32):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    ids = bset.ids
    assert BlockingSet(pg32, 1, ids) == bset
    assert list(ids) == sorted(ids)


def _enumerated_points(ctx):
    """Every point in lexicographic order of its normalized coordinates,
    enumerated directly: the order point(u) must invert."""
    coords = [(0,) * lead + (1,) + tail for lead in range(ctx.n, -1, -1)
              for tail in product(range(ctx.q), repeat=ctx.n - lead)]
    return [Point(c, u) for u, c in enumerate(coords)]


def _elements_from_ordinals(ctx, ids, points):
    """(points, hyperplanes) of universe ordinals, read off an enumeration:
    the element objects a BlockingSet's views must equal."""
    num = len(points)
    return (frozenset(points[u] for u in ids if u < num),
            frozenset(ctx.hyperplane(points[u - num].coords) for u in ids if u >= num))


def _first_redundant(ctx, k, pts, hyps):
    """The first element, by ordinal, whose removal leaves every k-space
    blocked, with each ordinal computed from the element object."""
    inc = incidence(ctx, k)
    pairs = sorted([(p.index, p) for p in pts]
                   + [(ctx.num_points + ctx.hyperplane_dual_point(h).index, h) for h in hyps],
                   key=lambda pair: pair[0])
    for i, (_, element) in enumerate(pairs):
        rest = 0
        for j, (u, _) in enumerate(pairs):
            if j != i:
                rest |= inc.covers[u]
        if rest == inc.full_mask:
            return element
    return None


def test_point_ordinals_invert_the_enumeration():
    geometries = [(q, 1) for q in (2, 3, 4, 5)] + [(4, 2), (3, 3), (2, 5), (8, 3)]
    for q, n in geometries:
        ctx = GeometryContext(field_for_order(q), n)
        expected = _enumerated_points(ctx)
        assert len(expected) == ctx.num_points
        assert [ctx.point(u) for u in range(ctx.num_points)] == expected
        assert list(ctx.points()) == expected


def test_out_of_range_ordinals_are_invalid_input(pg22, pg32):
    theta_n = pg32.num_points
    for u in (-1, theta_n, 2 * theta_n):
        with pytest.raises(InputError, match="point ordinal"):
            pg32.point(u)
    for u in (-1, 2 * theta_n):
        with pytest.raises(InputError, match="element ordinal"):
            BlockingSet(pg32, 1, [0, u])
    hyperplane_zero = BlockingSet(pg32, 1, [theta_n])
    assert hyperplane_zero.hyperplanes == {pg32.hyperplane(pg32.point(0).coords)}
    with pytest.raises(InputError):
        BlockingSet.from_elements(pg32, 1, [pg22.point(0)], [])
    with pytest.raises(InputError):
        BlockingSet.from_elements(pg32, 1, [], [pg32.subspaces(1)[0]])


def test_views_agree_with_conversion_from_enumerated_points():
    """points, hyperplanes, to_dict, dual_set and the is_minimal witness of
    a set stored as ordinals equal what the element objects give, on every
    theorem-family member and on random subsets."""
    cases = []
    geometries = {}
    for q, n, k in ((4, 2, 0), (4, 2, 1), (2, 3, 1), (3, 3, 1)):
        ctx = geometries.setdefault((q, n), GeometryContext(field_for_order(q), n))
        cases.extend((ctx, k, ids) for ids in theorem_family(ctx, k)[0])
    rng = random.Random(13)
    for _ in range(200):
        (q, n), ctx = rng.choice(sorted(geometries.items(), key=lambda item: item[0]))
        ids = rng.sample(range(2 * ctx.num_points), rng.randrange(0, 26))
        cases.append((ctx, rng.randrange(n), ids))
    enumerated = {ctx: _enumerated_points(ctx) for ctx in geometries.values()}
    for ctx, k, ids in cases:
        bset = BlockingSet(ctx, k, ids)
        pts, hyps = _elements_from_ordinals(ctx, ids, enumerated[ctx])
        assert (bset.points, bset.hyperplanes) == (pts, hyps)
        duals = sorted((ctx.hyperplane_dual_point(h) for h in hyps), key=lambda p: p.index)
        assert bset.to_dict() == {
            "q": ctx.q, "n": ctx.n, "k": k, "field": ctx.field.to_dict(),
            "points": [list(p.coords) for p in sorted(pts, key=lambda p: p.index)],
            "hyperplanes": [list(p.coords) for p in duals]}
        dual = dual_set(bset)
        assert dual.k == ctx.n - 1 - k
        assert dual.points == frozenset(duals)
        assert dual.hyperplanes == frozenset(ctx.hyperplane(p.coords) for p in pts)
        if is_blocking(bset)[0]:
            witness = _first_redundant(ctx, k, pts, hyps)
            assert is_minimal(bset) == (witness is None, witness)
        else:
            with pytest.raises(InputError, match="only defined for blocking sets"):
                is_minimal(bset)


def test_large_set_never_enumerates_points(monkeypatch):
    """Building, serializing and dualizing a set of PG(5,16), which has
    1,118,481 points, touches only the points it needs."""
    def refuse(self):
        raise AssertionError("every point of the geometry was enumerated")

    monkeypatch.setattr(GeometryContext, "points", refuse)
    ctx = GeometryContext(field_for_order(16), 5)
    bset = pencil_partition(ctx, canonical_pencil_partition(ctx, 2))
    doc = bset.to_dict()
    assert len(doc["points"]) == 16 ** 2 and len(doc["hyperplanes"]) == 16 ** 3
    assert BlockingSet.from_dict(doc) == bset
    dual = dual_set(bset)
    assert (len(dual.points), len(dual.hyperplanes)) == (16 ** 3, 16 ** 2)
    assert dual_set(dual) == bset


def test_json_round_trip(pg33):
    bset = pencil_partition(pg33, canonical_pencil_partition(pg33, 1, t=2))
    doc = bset.to_dict()
    back = BlockingSet.from_dict(doc)
    assert back == bset
    assert back.ctx == pg33


def test_json_normalization_warning(pg32):
    doc = {"q": 2, "n": 3, "k": 1, "points": [[0, 0, 1, 1]], "hyperplanes": []}
    messages = []
    BlockingSet.from_dict(doc, warn=messages.append)
    assert not messages  # already normalized
    # q = 3 scaling: (0,0,2,2) normalizes to (0,0,1,1)
    doc3 = {"q": 3, "n": 3, "k": 1, "points": [[0, 0, 2, 2]], "hyperplanes": []}
    BlockingSet.from_dict(doc3, warn=messages.append)
    assert messages


def test_lemma_checks_independent_of_insertion_order(pg33):
    # one set, its frozensets filled in opposite orders
    pts = list(pg33.subspace_points(pg33.subspaces(2)[0]))
    hyps = list(_hyperplanes_through(pg33, EMPTY_SUBSPACE)[:6])
    forward = BlockingSet.from_elements(pg33, 1, frozenset(pts), frozenset(hyps))
    backward = BlockingSet.from_elements(pg33, 1, frozenset(reversed(pts)), frozenset(reversed(hyps)))
    checks = lemma_checks(forward)
    assert checks == lemma_checks(backward)
    incident = sorted((p.index, pg33.hyperplane_dual_point(hp).index)
                      for p in pts for hp in hyps if pg33.contains(hp, p))
    listed = [(pg33.point(c["point"]).index, pg33.point(c["hyperplane"]).index)
              for c in checks["no_incident_pair"]["counterexamples"]]
    assert listed == incident[:3] and len(incident) > 3


def test_lemma_checks_checks_blocking_once(pg32, monkeypatch):
    # the pins are checked at equality, where blocking is already known
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    calls = []

    def counted(arg):
        calls.append(arg)
        return is_blocking(arg)

    monkeypatch.setattr(blocking, "is_blocking", counted)
    checks = lemma_checks(bset)
    assert checks["pinned_hyperplane_dichotomy"]["pins_checked"] > 1
    assert calls == [bset]


def test_lemma_checks_lists_skew_cospace_counterexamples(pg32, monkeypatch):
    # a profile below its bound fails the check on every flat it was run on,
    # and the first three of those flats are listed as (k-1)-spaces
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    honest = lemma_checks(bset)["skew_cospace_bound"]
    profile = blocking.skew_space_profile

    def below_bound(bset, flat):
        true = profile(bset, flat)
        return replace(true, count=math.ceil(true.bound) - 1)

    monkeypatch.setattr(blocking, "skew_space_profile", below_bound)
    check = lemma_checks(bset)["skew_cospace_bound"]
    assert honest["pass"] and not honest["counterexamples"]
    assert not check["pass"] and check["flats_checked"] == honest["flats_checked"] > 3
    points = bset.element_masks[0]
    skew = [flat.to_dict() for flat, flat_points, _ in pg32.iter_subspace_masks(bset.k - 1)
            if not flat_points & points]
    assert check["counterexamples"] == skew[:3]


# -- slow reference scans over every k-space of the geometry -------------------


def brute_skew_space_profile(bset, flat):
    ctx, k = bset.ctx, bset.k
    qk = ctx.q ** k
    point_idx = {p.index for p in bset.points}
    count = sum(1 for hp in bset.hyperplanes if ctx.contains(hp, flat))
    bound = Fraction(ctx.q + 1) - Fraction(len(point_idx), qk)
    if count != bound:
        return SkewSpaceProfile(count, bound, False, None, None)
    single = all(sum(p.index in point_idx for p in ctx.subspace_points(kspace)) <= 1
                 for kspace in ctx.subspaces(k) if ctx.contains(kspace, flat))
    return SkewSpaceProfile(count, bound, True, single, len(point_idx) % qk == 0)


def brute_pinned_hyperplanes(bset, hull, pin):
    ctx, k, q = bset.ctx, bset.k, bset.ctx.q
    members = frozenset(hp for hp in bset.hyperplanes
                        if ctx.contains(hp, pin) and not ctx.contains(hp, hull))
    if not is_blocking(bset)[0]:
        return PinnedHyperplanesReport(members, VACUOUS, None, None, None)
    for kspace in ctx.subspaces(k):
        if ctx.contains(hull, kspace) and ctx.contains(kspace, pin):
            fibre = [hp for hp in _hyperplanes_through(ctx, kspace)
                     if not ctx.contains(hp, hull)]
            if fibre and all(hp in members for hp in fibre):
                return PinnedHyperplanesReport(members, FULL_TRACE, kspace, q ** k,
                                               len(members) >= q ** k)
    bound = q ** (k - 1) * (q + 1)
    return PinnedHyperplanesReport(members, COUNT_BOUND, None, bound, len(members) >= bound)


ORACLE_GEOMETRIES = pytest.mark.parametrize("field,k,samples", [
    (Field(2), 1, 8), (Field(3), 1, 8), (Field(2), 2, 2)], ids=["pg32", "pg33", "pg52"])


@ORACLE_GEOMETRIES
def test_skew_space_profile_matches_kspace_scan(field, k, samples):
    """Sets with t q^k points and q+1-t hyperplanes through a (k-1)-flat, so
    the bound is tight there: the points lie one per k-space through the
    flat, or two share the first one."""
    ctx = GeometryContext(field, 2 * k + 1)
    q = ctx.q
    rng = random.Random(31 * q + k)
    singles = []
    for i in range(2 * samples):
        flat = rng.choice(ctx.subspaces(k - 1))
        t = rng.randrange(1, q + 1)
        through = list(ctx.extensions(flat, ctx.whole_space()))
        rng.shuffle(through)
        off_flat = [[p for p in ctx.subspace_points(K) if not ctx.contains(flat, p)]
                    for K in through]
        if i % 2:
            pts = [rng.choice(cands) for cands in off_flat[:t * q ** k]]
        else:
            pts = rng.sample(off_flat[0], 2) + [
                rng.choice(cands) for cands in off_flat[1:t * q ** k - 1]]
        hyps = rng.sample(_hyperplanes_through(ctx, flat), q + 1 - t)
        hyps += rng.sample([hp for hp in _hyperplanes_through(ctx, EMPTY_SUBSPACE)
                            if not ctx.contains(hp, flat)], 2)
        bset = BlockingSet.from_elements(ctx, k, frozenset(pts), frozenset(hyps))
        point_idx = {p.index for p in pts}
        skew = [f for f in ctx.subspaces(k - 1)
                if not any(p.index in point_idx for p in ctx.subspace_points(f))]
        for other in rng.sample(skew, 3) + [flat]:
            profile = skew_space_profile(bset, other)
            assert profile == brute_skew_space_profile(bset, other)
        assert profile.equality
        singles.append(profile.single_point_per_kspace)
    assert singles == [bool(i % 2) for i in range(2 * samples)]


@ORACLE_GEOMETRIES
def test_pinned_hyperplanes_matches_kspace_scan(field, k, samples):
    """Pencil-partition sets with and without extra hyperplanes (full
    traces), Bose-Burton hyperplane sets through a (k-1)-space against a
    random hull (reaching the count bound), and sets that do not block."""
    ctx = GeometryContext(field, 2 * k + 1)
    q = ctx.q
    rng = random.Random(37 * q + k)
    jobs = []
    for t in range(1, q + 1):
        params = canonical_pencil_partition(ctx, k, t)
        bset = pencil_partition(ctx, params)
        extra = frozenset(rng.sample(_hyperplanes_through(ctx, EMPTY_SUBSPACE), 3))
        jobs.append((bset, params.hull))
        jobs.append((BlockingSet.from_elements(ctx, k, bset.points, bset.hyperplanes | extra),
                     params.hull))
    for _ in range(samples):
        anchor = rng.choice(ctx.subspaces(k - 1))
        jobs.append((bose_burton(ctx, k, "hyperplanes", anchor),
                     rng.choice(ctx.subspaces(k + 1))))
        hull = rng.choice(ctx.subspaces(k + 1))
        pts = rng.sample(ctx.subspace_points(hull), 2)
        hyps = rng.sample(_hyperplanes_through(ctx, EMPTY_SUBSPACE), 4)
        jobs.append((BlockingSet.from_elements(ctx, k, frozenset(pts), frozenset(hyps)), hull))
    cases = set()
    for bset, hull in jobs:
        for pin in ctx.subspace_points(hull):
            if pin in bset.points:
                continue
            rep = pinned_hyperplanes(bset, hull, pin)
            assert rep == brute_pinned_hyperplanes(bset, hull, pin)
            cases.add(rep.case)
    assert cases == {FULL_TRACE, COUNT_BOUND, VACUOUS}


@pytest.mark.parametrize("q,n,ks", [
    (3, 2, (0, 1)), (2, 3, (0, 1, 2)), (3, 3, (0, 1, 2)), (2, 4, (1, 2)), (2, 5, (2,)),
], ids=["pg23", "pg32", "pg33", "pg42", "pg52"])
def test_incidence_counts_are_uniform(q, n, ks):
    # the search relies on these: every space has theta_k + theta_{n-k-1}
    # candidates, a point blocks [n,k]_q spaces and a hyperplane [n,k+1]_q
    ctx = GeometryContext(field_for_order(q), n)
    for k in ks:
        inc = incidence(ctx, k)
        assert {m.bit_count() for m in inc.candidate_masks} == \
            {theta(k, q) + theta(n - k - 1, q)}
        assert {c.bit_count() for c in inc.covers[:ctx.num_points]} == {gaussian(n, k, q)}
        assert {c.bit_count() for c in inc.covers[ctx.num_points:]} == \
            {gaussian(n, k + 1, q)}


# -- the Subspace-based builders the bitmask ones replaced, kept as oracles ----


def oracle_incidence(ctx, s):
    """(spaces, covers, candidate_masks) from `candidates`, one space at a
    time: each space's points and the points of its dual."""
    spaces = ctx.subspaces(s)
    covers = [0] * (2 * ctx.num_points)
    cand_masks = []
    for j, space in enumerate(spaces):
        mask = 0
        for u in blocking.candidates(ctx, space):
            covers[u] |= 1 << j
            mask |= 1 << u
        cand_masks.append(mask)
    return spaces, tuple(covers), tuple(cand_masks)


INCIDENCE_ORACLE_CASES = (
    [(q, 1, k) for q in (2, 3, 4, 5) for k in (0,)]
    + [(q, 2, k) for q in (2, 3, 4, 5) for k in (0, 1)]
    + [(q, 3, k) for q in (2, 3, 4) for k in (0, 1, 2)]
    + [(2, 4, k) for k in range(4)] + [(2, 5, k) for k in range(5)])


def test_incidence_matches_candidates_oracle():
    for q, n, k in INCIDENCE_ORACLE_CASES:
        inc = incidence(GeometryContext(field_for_order(q), n), k)
        expected = oracle_incidence(GeometryContext(field_for_order(q), n), k)
        assert (inc.ctx.subspaces(k), inc.covers, inc.candidate_masks) == expected, (q, n, k)


def test_incidence_transpose_across_blocks(monkeypatch):
    # seven spaces per digit string: covers is assembled from many blocks,
    # with a ragged last one wherever 7 does not divide the space count
    monkeypatch.setattr(blocking, "_TRANSPOSE_BLOCK", 7)
    test_incidence_matches_candidates_oracle()


@pytest.mark.parametrize("q,n,k,hulls", [(2, 3, 1, 15), (3, 3, 1, 40), (4, 3, 1, 85),
                                         (2, 5, 2, 651)])
def test_spaces_inside_matches_contains(q, n, k, hulls):
    # contains reduces each basis row of the inner space on its own, so a
    # k-space lies in the hull iff contains holds for each of its rows'
    # points: one contains call per point of the geometry and hull
    ctx = GeometryContext(field_for_order(q), n)
    inc = incidence(ctx, k)
    rows = [[ctx.point(row).index for row in space.basis] for space in ctx.subspaces(k)]
    points = ctx.points()
    seen = 0
    for hull, _, hyperplanes in ctx.iter_subspace_masks(k + 1):
        on_hull = [ctx.contains(hull, pt) for pt in points]
        expected = sum(1 << j for j, ids in enumerate(rows) if all(on_hull[u] for u in ids))
        assert spaces_inside(inc, hyperplanes) == expected, hull
        seen += 1
    assert seen == hulls


def oracle_tangent_closure(ctx, point_set):
    pts = {ctx.point(p) for p in point_set}
    idx = {p.index for p in pts}
    on_tangent = [False] * ctx.num_points
    on_secant = [False] * ctx.num_points
    for line in ctx.subspaces(1):
        line_pts = ctx.subspace_points(line)
        hits = sum(1 for p in line_pts if p.index in idx)
        if hits == 0:
            continue
        flags = on_tangent if hits == 1 else on_secant
        for p in line_pts:
            if p.index not in idx:
                flags[p.index] = True
    violator = next((ctx.point(u) for u in range(ctx.num_points)
                     if u not in idx and on_tangent[u] and on_secant[u]), None)
    closure = frozenset(pts | {ctx.point(u) for u in range(ctx.num_points)
                               if u not in idx and not on_tangent[u]})
    expected_dim = 0
    while theta(expected_dim, ctx.q) < len(pts):
        expected_dim += 1
    if violator is not None:
        return blocking.TangentClosureReport(closure, False, violator, None, None, expected_dim)
    hull = ctx.span(*closure)
    return blocking.TangentClosureReport(
        closure, True, None, len(ctx.subspace_points(hull)) == len(closure), hull.dim,
        expected_dim)


def oracle_skew_space_profile(bset, flat):
    ctx, k = bset.ctx, bset.k
    point_idx = {p.index for p in bset.points}
    count = sum(1 for hp in bset.hyperplanes if ctx.contains(hp, flat))
    qk = ctx.q ** k
    bound = Fraction(ctx.q + 1) - Fraction(len(point_idx), qk)
    equality = Fraction(count) == bound
    single = multiple = None
    if equality:
        single = len({ctx.span(flat, p) for p in bset.points}) == len(point_idx)
        multiple = len(point_idx) % qk == 0
    return SkewSpaceProfile(count, bound, equality, single, multiple)


def oracle_pinned_hyperplanes(bset, hull, pin):
    """The dichotomy for a blocking set, by contains and meet."""
    ctx, k, q = bset.ctx, bset.k, bset.ctx.q
    members = frozenset(hp for hp in bset.hyperplanes
                        if ctx.contains(hp, pin) and not ctx.contains(hp, hull))
    traces = Counter(ctx.meet(hp, hull) for hp in members)
    full = [trace for trace, count in traces.items() if count == q ** k]
    if full:
        witness = min(full, key=ctx.subspaces(k).index)
        return PinnedHyperplanesReport(members, FULL_TRACE, witness, q ** k,
                                       len(members) >= q ** k)
    bound = q ** (k - 1) * (q + 1)
    return PinnedHyperplanesReport(members, COUNT_BOUND, None, bound, len(members) >= bound)


def oracle_lemma_checks(bset):
    """lemma_checks by subspace arithmetic: contains, span, meet and
    subspace_points, with the oracles above."""
    ctx, k = bset.ctx, bset.k
    q = ctx.q
    checks = {}
    blocking_ok = is_blocking(bset)[0]
    size_bound = q ** k * (q + 1)
    at_equality = blocking_ok and bset.size == size_bound
    point_idx = {p.index for p in bset.points}
    checks["size_bound"] = {
        "applicable": blocking_ok and ctx.n == 2 * k + 1,
        "pass": (not blocking_ok) or ctx.n != 2 * k + 1 or bset.size >= size_bound,
        "bound": size_bound,
        "size": bset.size,
    }
    if ctx.n == 2 * k + 1 and k >= 1:
        failures = []
        count = 0
        for flat in ctx.subspaces(k - 1):
            if any(p.index in point_idx for p in ctx.subspace_points(flat)):
                continue
            count += 1
            profile = oracle_skew_space_profile(bset, flat)
            bound_ok = (not blocking_ok) or profile.count >= profile.bound
            conclusions_ok = ((not blocking_ok) or (not profile.equality)
                              or (profile.single_point_per_kspace
                                  and profile.point_count_multiple))
            if not (bound_ok and conclusions_ok):
                failures.append(flat.to_dict())
        checks["skew_cospace_bound"] = {
            "applicable": blocking_ok,
            "pass": not failures,
            "flats_checked": count,
            "counterexamples": failures[:3],
        }
    incident = sorted(((p, ctx.hyperplane_dual_point(hp))
                       for p in bset.points for hp in bset.hyperplanes
                       if ctx.contains(hp, p)),
                      key=lambda pair: (pair[0].index, pair[1].index))
    checks["no_incident_pair"] = {
        "applicable": at_equality,
        "pass": (not at_equality) or not incident,
        "counterexamples": [{"point": list(p.coords), "hyperplane": list(d.coords)}
                            for p, d in incident[:3]],
    }
    checks["point_part_multiple"] = {
        "applicable": at_equality,
        "pass": (not at_equality) or len(bset.points) % q ** k == 0,
        "points": len(bset.points),
    }
    if bset.points:
        closure = oracle_tangent_closure(ctx, bset.points)
        checks["tangent_secant_separation"] = {
            "applicable": at_equality,
            "pass": closure.hypothesis_ok or not at_equality,
            "violator": list(closure.violator.coords) if closure.violator else None,
        }
        checks["tangent_closure_dimension"] = {
            "applicable": closure.hypothesis_ok,
            "pass": (not closure.hypothesis_ok)
                    or (closure.is_subspace and closure.dim == closure.expected_dim),
            "dim": closure.dim,
            "expected_dim": closure.expected_dim,
        }
        if at_equality and closure.hypothesis_ok and closure.is_subspace \
                and closure.dim <= k + 1 and ctx.n == 2 * k + 1:
            hull = ctx.span(*bset.points)
            while hull.dim < k + 1:
                hull = next(ctx.extensions(hull, ctx.whole_space()))
            failures = []
            pins = 0
            for pt in ctx.subspace_points(hull):
                if pt.index in point_idx:
                    continue
                pins += 1
                if not oracle_pinned_hyperplanes(bset, hull, pt).bound_ok:
                    failures.append(list(pt.coords))
            checks["pinned_hyperplane_dichotomy"] = {
                "applicable": True,
                "pass": not failures,
                "pins_checked": pins,
                "counterexamples": failures[:3],
            }
    return checks


def _non_equality_sets(ctx, k, rng, count):
    """Sets off the equality case: a family member with an extra element or
    with one removed, the Bose-Burton sets, and random subsets."""
    family = theorem_family(ctx, k)[0]
    half = ctx.num_points
    sets = []
    for _ in range(count):
        ids = list(rng.choice(family))
        sets.append(ids + [rng.choice([u for u in range(2 * half) if u not in ids])])
        sets.append(ids[:rng.randrange(len(ids))] + ids[rng.randrange(len(ids)) + 1:])
        sets.append(rng.sample(range(2 * half), rng.randrange(1, len(ids) + 3)))
    for kind, dim in (("points", ctx.n - k), ("hyperplanes", ctx.n - k - 2)):
        sets.append(bose_burton(ctx, k, kind, rng.choice(ctx.subspaces(dim))).ids)
    return [BlockingSet(ctx, k, ids) for ids in sets]


def test_lemma_checks_payloads_match_subspace_oracle():
    """Byte-identical payloads on every family member of PG(3,2) k=1 and
    its dual, a seeded 300 of PG(3,3) k=1, the PG(5,2) k=2 benchmark-style
    set, and sets off the equality case on all three."""
    import json

    rng = random.Random(16)
    sets = []
    for q, n, k, sample in ((2, 3, 1, None), (3, 3, 1, 300), (2, 5, 2, 1)):
        ctx = GeometryContext(field_for_order(q), n)
        family = theorem_family(ctx, k)[0]
        chosen = family if sample is None else rng.sample(family, sample)
        for ids in chosen:
            sets.append(BlockingSet(ctx, k, ids))
            if sample is None:
                sets.append(dual_set(sets[-1]))
        sets.extend(_non_equality_sets(ctx, k, rng, 12 if n == 3 else 2))
    for bset in sets:
        assert json.dumps(lemma_checks(bset)) == json.dumps(oracle_lemma_checks(bset)), bset


@pytest.mark.parametrize("q,size", [(2, 210), (3, 4160)])
def test_lemma_checks_pass_on_whole_family(q, size):
    # every check passes on every theorem_family member of PG(3,q) k=1
    ctx = GeometryContext(field_for_order(q), 3)
    family = theorem_family(ctx, 1)[0]
    assert len(family) == size
    for ids in family:
        checks = lemma_checks(BlockingSet(ctx, 1, ids))
        assert all(check["pass"] for check in checks.values()), (ids, checks)


def test_diagnostics_match_subspace_oracles():
    """Every skew profile, tangent closure and pinned report that the
    diagnostics read, on equality and non-equality sets of PG(3,2) and
    PG(3,3) k=1 and PG(5,2) k=2: members and witnesses included."""
    rng = random.Random(17)
    cases = set()
    for q, n, k in ((2, 3, 1), (3, 3, 1), (2, 5, 2)):
        ctx = GeometryContext(field_for_order(q), n)
        family = theorem_family(ctx, k)[0]
        sets = [BlockingSet(ctx, k, ids) for ids in rng.sample(family, 3)]
        sets += _non_equality_sets(ctx, k, rng, 1)
        for bset in sets:
            point_idx = {p.index for p in bset.points}
            flats = [f for f in ctx.subspaces(k - 1)
                     if not any(p.index in point_idx for p in ctx.subspace_points(f))]
            for flat in rng.sample(flats, min(len(flats), 40)):
                assert skew_space_profile(bset, flat) == oracle_skew_space_profile(bset, flat)
            if bset.points:
                assert tangent_closure(ctx, bset.points) == \
                    oracle_tangent_closure(ctx, bset.points)
            if not is_blocking(bset)[0]:
                continue
            hull = rng.choice(ctx.subspaces(k + 1))
            if bset.points:
                hull = ctx.span(*bset.points)
                while hull.dim < k + 1:
                    hull = next(ctx.extensions(hull, ctx.whole_space()))
                if hull.dim > k + 1:
                    continue
            for pin in ctx.subspace_points(hull):
                if pin.index not in point_idx:
                    report = pinned_hyperplanes(bset, hull, pin)
                    assert report == oracle_pinned_hyperplanes(bset, hull, pin)
                    cases.add(report.case)
    assert cases == {FULL_TRACE, COUNT_BOUND}


def test_diagnostics_reject_elements_of_another_geometry(pg32, pg33, pg42):
    """A flat, hull, pin or point whose coordinates do not belong to the
    set's geometry is invalid input, never read as some other ordinal."""
    params = canonical_pencil_partition(pg32, 1)
    bset = pencil_partition(pg32, params)
    pin = next(p for p in pg32.subspace_points(params.hull) if p not in bset.points)
    too_long = pg42.subspaces(0)[5]
    out_of_range = next(f for f in pg33.subspaces(0) if 2 in f.basis[0])
    for flat in (too_long, out_of_range):
        with pytest.raises(InputError):
            skew_space_profile(bset, flat)
    for hull in (pg42.subspaces(2)[7], next(h for h in pg33.subspaces(2)
                                            if any(2 in row for row in h.basis))):
        with pytest.raises(InputError):
            pinned_hyperplanes(bset, hull, pin)
    for wrong_pin in (pg42.point(3), pg33.point((0, 1, 2, 1))):
        with pytest.raises(InputError):
            pinned_hyperplanes(bset, params.hull, wrong_pin)
        with pytest.raises(InputError):
            tangent_closure(pg32, [pg32.point(4), wrong_pin])
