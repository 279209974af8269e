import random
from fractions import Fraction
from itertools import combinations

import pytest

from pgblock.blocking import (COUNT_BOUND, FULL_TRACE, SECANT, SKEW, TANGENT,
                              VACUOUS, BlockingSet, PinnedHyperplanesReport,
                              SkewSpaceProfile, dual_set, is_blocking, is_minimal,
                              lemma_checks, line_type, pinned_hyperplanes,
                              skew_space_profile, tangent_closure, unblocked_count)
from pgblock.constructions import (bose_burton, canonical_pencil_partition,
                                   pencil_partition)
from pgblock.counting import theta
from pgblock.gf import Field, InputError
from pgblock.pgkernel import GeometryContext, Subspace


def _point_set(ctx, k, points):
    return BlockingSet(ctx, k, frozenset(points), frozenset())


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
    hyp = pg32.hyperplanes_through(line)[0]
    bset = BlockingSet(pg32, 1, frozenset(), frozenset([hyp]))
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
    hyps = pg32.hyperplanes()
    for _ in range(25):
        bset = BlockingSet(
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
    hyps = pg32.hyperplanes()
    for _ in range(10):
        superset = base | set(rng.sample(others, rng.randrange(0, 4)))
        extra_h = frozenset(rng.sample(hyps, rng.randrange(0, 3)))
        assert is_blocking(BlockingSet(pg32, 1, frozenset(superset), extra_h))[0]


def test_line_type(pg32):
    line = pg32.subspaces(1)[0]
    pts = pg32.subspace_points(line)
    assert line_type(pg32, line, ()) == SKEW
    assert line_type(pg32, line, [pts[0]]) == TANGENT
    assert line_type(pg32, line, pts[:2]) == SECANT
    with pytest.raises(InputError, match="dim 2 is not a line"):
        line_type(pg32, pg32.subspaces(2)[0], ())


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
    hyps = pg32.hyperplanes_through(Subspace(0, (axis.coords,)))
    bset = BlockingSet(pg32, 1, frozenset(), frozenset(hyps))
    profile = skew_space_profile(bset, Subspace(0, (axis.coords,)))
    assert profile.count == theta(2, 2) == 7 >= 3


def test_skew_space_profile_errors(pg32, pg42):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    inside = next(iter(bset.points))
    with pytest.raises(InputError, match="the flat meets the point part"):
        skew_space_profile(bset, Subspace(0, (inside.coords,)))
    plane42 = pg42.subspaces(2)[0]
    wrong = BlockingSet(pg42, 2, frozenset(pg42.subspace_points(plane42)), frozenset())
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
    bset = BlockingSet(pg32, 1, frozenset(pts), frozenset())
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
    moved = BlockingSet(pg32, 1, frozenset([outside_hull_pt]), bset.hyperplanes)
    with pytest.raises(InputError, match="the point part is not contained in the hull"):
        pinned_hyperplanes(moved, other_hull, next(
            p for p in pg32.subspace_points(hull) if p != outside_hull_pt))


def test_size_bound_refutation_and_equality_properties(pg32, pg32_minima):
    """No blocking set of size <= 5 exists; every size-6 one satisfies the
    equality consequences: no incident point/hyperplane pair and no outside
    point on both a tangent and a secant."""
    assert pg32_minima.minimum_size == 6
    for ids in pg32_minima.minimum_sets:
        bset = BlockingSet.from_indices(pg32, 1, ids)
        for pt in bset.points:
            for hp in bset.hyperplanes:
                assert not pg32.contains(hp, pt)
        rep = tangent_closure(pg32, bset.points)
        assert rep.hypothesis_ok


def test_element_indices_round_trip(pg32):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    ids = bset.element_indices()
    assert BlockingSet.from_indices(pg32, 1, ids) == bset
    assert list(ids) == sorted(ids)


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
    hyps = list(pg33.hyperplanes()[:6])
    forward = BlockingSet(pg33, 1, frozenset(pts), frozenset(hyps))
    backward = BlockingSet(pg33, 1, frozenset(reversed(pts)), frozenset(reversed(hyps)))
    checks = lemma_checks(forward)
    assert checks == lemma_checks(backward)
    incident = sorted((p.index, pg33.hyperplane_dual_point(hp).index)
                      for p in pts for hp in hyps if pg33.contains(hp, p))
    listed = [(pg33.point(c["point"]).index, pg33.point(c["hyperplane"]).index)
              for c in checks["no_incident_pair"]["counterexamples"]]
    assert listed == incident[:3] and len(incident) > 3


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
            fibre = [hp for hp in ctx.hyperplanes_through(kspace)
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
        hyps = rng.sample(ctx.hyperplanes_through(flat), q + 1 - t)
        hyps += rng.sample([hp for hp in ctx.hyperplanes()
                            if not ctx.contains(hp, flat)], 2)
        bset = BlockingSet(ctx, k, frozenset(pts), frozenset(hyps))
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
        extra = frozenset(rng.sample(ctx.hyperplanes(), 3))
        jobs.append((bset, params.hull))
        jobs.append((BlockingSet(ctx, k, bset.points, bset.hyperplanes | extra),
                     params.hull))
    for _ in range(samples):
        anchor = rng.choice(ctx.subspaces(k - 1))
        jobs.append((bose_burton(ctx, k, "hyperplanes", anchor),
                     rng.choice(ctx.subspaces(k + 1))))
        hull = rng.choice(ctx.subspaces(k + 1))
        pts = rng.sample(ctx.subspace_points(hull), 2)
        jobs.append((BlockingSet(ctx, k, frozenset(pts),
                                 frozenset(rng.sample(ctx.hyperplanes(), 4))), hull))
    cases = set()
    for bset, hull in jobs:
        for pin in ctx.subspace_points(hull):
            if pin in bset.points:
                continue
            rep = pinned_hyperplanes(bset, hull, pin)
            assert rep == brute_pinned_hyperplanes(bset, hull, pin)
            cases.add(rep.case)
    assert cases == {FULL_TRACE, COUNT_BOUND, VACUOUS}
