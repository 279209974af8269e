import hashlib
import json
import random

import pytest

from pgblock.blocking import BlockingSet, dual_set, is_blocking, is_minimal
from pgblock.constructions import (PencilPartitionParams, bose_burton,
                                   canonical_anchor, canonical_pencil_partition,
                                   distinct_pencil_partition_sets, pencil,
                                   pencil_partition, q2_even_mixed_set,
                                   recognize_pencil_partition, theorem_family)
from pgblock.counting import minimum_size_bound, theta
from pgblock.gf import Field, InputError, field_for_order
from pgblock.pgkernel import EMPTY_SUBSPACE, GeometryContext, Subspace
from pgblock.search import classify_minimum, min_blocking_search


def _hyperplanes_through(ctx, space):
    """The hyperplanes containing space: the duals of the points of its dual."""
    return tuple(ctx.hyperplane(p.coords) for p in ctx.subspace_points(ctx.dual(space)))


def random_pencil_params(ctx, k, rng):
    hull = rng.choice(ctx.subspaces(k + 1))
    if k == 1:
        from pgblock.pgkernel import Subspace
        axes = [Subspace(0, (p.coords,)) for p in ctx.subspace_points(hull)]
    else:
        axes = [a for a in ctx.subspaces(k - 1) if ctx.contains(hull, a)]
    axis = rng.choice(axes)
    members = list(pencil(ctx, axis, hull))
    t = rng.randrange(1, ctx.q + 1)
    chosen = rng.sample(members, t)
    return PencilPartitionParams(hull, axis, frozenset(chosen),
                                 frozenset(members) - frozenset(chosen))


def test_pencil_members(pg32):
    params = canonical_pencil_partition(pg32, 1)
    members = pencil(pg32, params.axis, params.hull)
    assert len(members) == 3
    for m in members:
        assert m.dim == 1
        assert pg32.contains(m, params.axis)
        assert pg32.contains(params.hull, m)


def test_pencil_partition_pg32_sizes(pg32):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1, t=1))
    assert len(bset.points) == 2 and len(bset.hyperplanes) == 4
    assert bset.size == 6
    assert is_blocking(bset)[0]


def test_pencil_partition_pg33_sizes(pg33):
    bset = pencil_partition(pg33, canonical_pencil_partition(pg33, 1, t=2))
    assert len(bset.points) == 6 and len(bset.hyperplanes) == 6
    assert bset.size == 12
    assert is_blocking(bset)[0]


def test_empty_part_rejected(pg32):
    params = canonical_pencil_partition(pg32, 1)
    members = frozenset(pencil(pg32, params.axis, params.hull))
    with pytest.raises(InputError, match="both parts of the pencil partition must be nonempty"):
        pencil_partition(pg32, PencilPartitionParams(
            params.hull, params.axis, frozenset(), members))


def test_bad_pencil_rejected(pg32):
    params = canonical_pencil_partition(pg32, 1)
    members = list(pencil(pg32, params.axis, params.hull))
    with pytest.raises(InputError, match="the two parts of the partition overlap"):
        pencil_partition(pg32, PencilPartitionParams(
            params.hull, params.axis,
            frozenset(members[:1]), frozenset(members[:2])))  # overlapping parts
    other_axis = next(p for p in pg32.subspace_points(params.hull)
                      if not pg32.contains(params.axis, p))
    from pgblock.pgkernel import Subspace
    foreign = pencil(pg32, Subspace(0, (other_axis.coords,)), params.hull)
    with pytest.raises(InputError, match="the two parts do not partition the full pencil"):
        pencil_partition(pg32, PencilPartitionParams(
            params.hull, params.axis, frozenset(members[:1]),
            frozenset(foreign) - frozenset(members)))  # not the full pencil of the axis
    for hyperplane_part in (members[1:2], members[1:2] + [params.hull]):
        # a member missing, or the hull (through the axis, inside the hull) as one
        with pytest.raises(InputError, match="the two parts do not partition the full pencil"):
            pencil_partition(pg32, PencilPartitionParams(
                params.hull, params.axis, frozenset(members[:1]), frozenset(hyperplane_part)))


@pytest.mark.parametrize("k,q", [(1, 2), (1, 3), (1, 4), (2, 2)])
def test_random_instances_counting_and_properties(k, q):
    ctx = GeometryContext(Field(*{2: (2,), 3: (3,), 4: (2, 2)}[q]), 2 * k + 1)
    rng = random.Random(100 * k + q)
    qk = q ** k
    for _ in range(5):
        params = random_pencil_params(ctx, k, rng)
        bset = pencil_partition(ctx, params)
        t = len(params.point_spaces)
        assert len(bset.points) == t * qk
        assert len(bset.hyperplanes) == (q + 1 - t) * qk
        assert bset.size == (q + 1) * qk
        assert is_blocking(bset)[0]
        for pt in bset.points:
            for hp in bset.hyperplanes:
                assert not ctx.contains(hp, pt)


def test_recognition_round_trip(pg32, pg33):
    jobs = [(pg32, 1, 8), (pg33, 1, 8),
            (GeometryContext(Field(2, 2), 3), 1, 3),
            (GeometryContext(Field(2), 5), 2, 3)]
    for ctx, k, count in jobs:
        rng = random.Random(ctx.q + k)
        for _ in range(count):
            params = random_pencil_params(ctx, k, rng)
            bset = pencil_partition(ctx, params)
            recovered = recognize_pencil_partition(bset)
            assert recovered is not None
            assert pencil_partition(ctx, recovered) == bset


@pytest.mark.parametrize("field,n,k",
                         [(Field(3), 3, 1), (Field(2, 2), 3, 1), (Field(2), 5, 2)],
                         ids=["pg33", "pg34", "pg52"])
def test_recognition_single_trace(field, n, k):
    # t = q leaves one trace; any axis inside it regenerates the same set
    ctx = GeometryContext(field, n)
    rng = random.Random(ctx.q)
    jobs = [canonical_pencil_partition(ctx, k, ctx.q)]
    while len(jobs) < 4:
        params = random_pencil_params(ctx, k, rng)
        if len(params.hyperplane_spaces) == 1:
            jobs.append(params)
    for params in jobs:
        bset = pencil_partition(ctx, params)
        recovered = recognize_pencil_partition(bset)
        assert recovered is not None
        assert recovered.hull == params.hull
        assert recovered.hyperplane_spaces == params.hyperplane_spaces
        (trace,) = recovered.hyperplane_spaces
        assert recovered.axis == Subspace(k - 1, trace.basis[:k])
        assert pencil_partition(ctx, recovered) == bset


def test_recognition_of_dual(pg32):
    rng = random.Random(17)
    for _ in range(5):
        bset = pencil_partition(pg32, random_pencil_params(pg32, 1, rng))
        dual = dual_set(bset)
        recovered = recognize_pencil_partition(dual)
        assert recovered is not None
        assert pencil_partition(pg32, recovered) == dual


def test_recognition_rejects_bose_burton(pg32):
    plane = canonical_anchor(pg32, 2)
    bset = bose_burton(pg32, 1, "points", plane)
    assert recognize_pencil_partition(bset) is None  # size 7, not 6


@pytest.mark.parametrize("q,n,k", [(3, 2, 0), (2, 4, 1)])
def test_recognition_rejects_sets_outside_the_middle_case(q, n, k):
    # pencil partitions live in n = 2k+1 only; a Bose-Burton set elsewhere
    # blocks, but is none of them
    ctx = GeometryContext(Field(q), n)
    bset = bose_burton(ctx, k, "hyperplanes", canonical_anchor(ctx, n - k - 2))
    assert is_blocking(bset)[0] and bset.size == theta(k + 1, q)
    assert recognize_pencil_partition(bset) is None


def test_recognition_rejects_perturbed_instance(pg32):
    bset = pencil_partition(pg32, canonical_pencil_partition(pg32, 1))
    outside = next(p for p in pg32.points() if p not in bset.points)
    from pgblock.blocking import BlockingSet
    swapped = BlockingSet.from_elements(pg32, 1,
                                        frozenset(list(bset.points)[:1] + [outside]),
                                        bset.hyperplanes)
    assert recognize_pencil_partition(swapped) is None


def test_instances_are_minimal(pg32, pg33):
    rng = random.Random(23)
    for ctx in (pg32, pg33):
        for _ in range(3):
            bset = pencil_partition(ctx, random_pencil_params(ctx, 1, rng))
            assert is_minimal(bset) == (True, None)


def _digest(sets):
    text = json.dumps([list(ids) for ids in sets], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_distinct_sets_pg32(pg32):
    sets, tuples = distinct_pencil_partition_sets(pg32, 1)
    assert tuples == 630          # 15 hulls x 7 axes x 6 nonempty splits
    assert len(sets) == 210       # the tuple -> set map is 3-to-1 here
    assert all(len(ids) == 6 for ids in sets)
    assert _digest(sets) == "8394311b1b3ff284"


def test_distinct_sets_pg34():
    # the one GF(4) pencil enumeration: 85 hulls x 21 axes x 30 nonempty splits
    sets, tuples = distinct_pencil_partition_sets(GeometryContext(Field(2, 2), 3), 1)
    assert tuples == 53550
    assert len(sets) == 39270
    assert _digest(sets) == "40462712896e9bc6"


@pytest.mark.parametrize("q,n,k,sets,tuples,digest", [
    (3, 3, 1, 4160, 7280, "800471438cabb9c9"),
    (2, 5, 2, 19530, 136710, "a861032d1d3520e3"),
], ids=["pg33", "pg52"])
def test_distinct_sets_pinned(q, n, k, sets, tuples, digest):
    found, count = distinct_pencil_partition_sets(GeometryContext(field_for_order(q), n), k)
    assert (len(found), count, _digest(found)) == (sets, tuples, digest)


def _subspace_parts(ctx, axis, hull, members):
    """(points, hyperplanes) of each member as universe ordinals: its points
    off the axis and the points of its dual off the hull's dual."""
    def ordinals(space, offset=0):
        return frozenset(offset + p.index for p in ctx.subspace_points(space))

    hull_hyperplanes = ordinals(ctx.dual(hull), ctx.num_points)
    return [(ordinals(member) - ordinals(axis),
             ordinals(ctx.dual(member), ctx.num_points) - hull_hyperplanes)
            for member in members]


def _subspace_pencil_sets(ctx, k):
    """Reference builder on Subspace objects: the axes of each hull by
    containment, each pencil by `extensions`, and each member's part from its
    points off the axis and the points of its dual off the hull's dual."""
    seen = set()
    count = 0
    for hull in ctx.subspaces(k + 1):
        axes = ([a for a in ctx.subspaces(k - 1) if ctx.contains(hull, a)]
                if k else [EMPTY_SUBSPACE])
        for axis in axes:
            parts = _subspace_parts(ctx, axis, hull, ctx.extensions(axis, hull))
            for split in range(1, 2 ** (ctx.q + 1) - 1):
                ids = set()
                for i, (points, hyperplanes) in enumerate(parts):
                    ids |= points if split >> i & 1 else hyperplanes
                seen.add(tuple(sorted(ids)))
                count += 1
    return tuple(sorted(seen)), count


def _subspace_recognize(bset):
    """Reference recognizer on Subspace objects: the hull by `span` (every
    (k+1)-space over the points when they span a k-space), the traces and
    the axis by `meet`, the pencil by `extensions`, and the regenerated set
    from `_subspace_parts`."""
    ctx, k = bset.ctx, bset.k
    q = ctx.q
    if ctx.n != 2 * k + 1:
        return None
    if not bset.points or not bset.hyperplanes:
        return None
    qk = q ** k
    t, rem = divmod(len(bset.points), qk)
    if rem or not 1 <= t <= q or len(bset.hyperplanes) != (q + 1 - t) * qk:
        return None
    span0 = ctx.span(*bset.points)
    if span0.dim == k + 1:
        hulls = [span0]
    elif span0.dim == k:
        hulls = ctx.extensions(span0, ctx.whole_space())
    else:
        return None
    for hull in hulls:
        if any(ctx.contains(hp, hull) for hp in bset.hyperplanes):
            continue
        traces = frozenset(ctx.meet(hp, hull) for hp in bset.hyperplanes)
        axis, *others = traces
        if not others:
            axis = Subspace(k - 1, axis.basis[:k])
        for trace in others:
            axis = ctx.meet(axis, trace)
        if axis.dim != k - 1:
            continue
        members = tuple(ctx.extensions(axis, hull))
        point_part = frozenset(members) - traces
        if len(point_part) != t:
            continue
        ids = set()
        for member, (points, hyperplanes) in zip(
                members, _subspace_parts(ctx, axis, hull, members)):
            ids |= points if member in point_part else hyperplanes
        if tuple(sorted(ids)) == bset.ids:
            return PencilPartitionParams(hull, axis, point_part, traces)
    return None


def _perturbed(bset, rng):
    """bset with one element swapped for one outside it, of the same kind
    (point or hyperplane) half the time."""
    ctx = bset.ctx
    ids = list(bset.ids)
    gone = ids.pop(rng.randrange(len(ids)))
    outside = [u for u in range(2 * ctx.num_points) if u not in bset.ids]
    same_kind = [u for u in outside if (u < ctx.num_points) == (gone < ctx.num_points)]
    new = rng.choice(same_kind if same_kind and rng.random() < 0.5 else outside)
    return BlockingSet(ctx, bset.k, ids + [new])


def _oracle_jobs(ctx, k, sets, rng):
    """The given sets, their duals and one seeded perturbation of each."""
    for ids in sets:
        bset = BlockingSet(ctx, k, ids)
        yield bset
        yield dual_set(bset)
        yield _perturbed(bset, rng)


@pytest.mark.parametrize("q,n,k,sample", [(2, 1, 0, None), (3, 1, 0, None), (4, 1, 0, None),
                                          (5, 1, 0, None), (2, 3, 1, None), (3, 3, 1, 400)],
                         ids=lambda v: str(v))
def test_recognition_matches_subspace_recognizer(q, n, k, sample):
    # the family (a seeded sample of it), its duals and perturbations
    ctx = GeometryContext(field_for_order(q), n)
    rng = random.Random(1000 * q + n)
    sets = theorem_family(ctx, k)[0]
    if sample is not None:
        sets = rng.sample(sets, sample)
    recognized = 0
    for bset in _oracle_jobs(ctx, k, sets, rng):
        expected = _subspace_recognize(bset)
        assert recognize_pencil_partition(bset) == expected, bset.ids
        recognized += expected is not None
    # every family set and its dual, but the two pure sets of PG(1,q)
    assert recognized >= 2 * len(sets) - (4 if n == 1 else 0)


@pytest.mark.parametrize("q", [2, 3])
def test_one_part_set_does_not_depend_on_the_hull(q):
    # t = 1: the set is the point member off the axis plus the hyperplanes
    # through the axis not containing that member, whatever the hull over
    # it, so recognition tries only the first hull
    ctx = GeometryContext(field_for_order(q), 3)
    whole = ctx.whole_space()
    for member in ctx.subspaces(1):
        for axis_point in ctx.subspace_points(member):
            axis = Subspace(0, (axis_point.coords,))
            hulls = list(ctx.extensions(member, whole))
            assert len(hulls) == q + 1
            built = {pencil_partition(ctx, PencilPartitionParams(
                hull, axis, frozenset([member]),
                frozenset(pencil(ctx, axis, hull)) - {member})).ids for hull in hulls}
            assert len(built) == 1


def _rejected_by_both(bset):
    return recognize_pencil_partition(bset) is None and _subspace_recognize(bset) is None


def test_recognition_rejects_hyperplane_through_hull(pg33):
    # t = 2: the points span the hull, the one hull to try; in PG(3,q) the
    # hull is itself the one hyperplane through it
    params = canonical_pencil_partition(pg33, 1, t=2)
    bset = pencil_partition(pg33, params)
    through = pg33.num_points + pg33.hyperplane_dual_point(params.hull).index
    swapped = BlockingSet(pg33, 1, bset.ids[:-1] + (through,))
    assert len(swapped.points) == 6 and len(swapped.hyperplanes) == 6
    assert _rejected_by_both(swapped)


def test_recognition_rejects_points_spanning_more_than_hull(pg33):
    params = canonical_pencil_partition(pg33, 1, t=2)
    bset = pencil_partition(pg33, params)
    off_hull = next(p for p in pg33.points() if not pg33.contains(params.hull, p))
    swapped = BlockingSet(pg33, 1, (off_hull.index,) + bset.ids[1:])
    assert pg33.span(*swapped.points).dim == 3
    assert len(swapped.points) == 6 and len(swapped.hyperplanes) == 6
    assert _rejected_by_both(swapped)


def test_recognition_spans_k_plus_2_points(pg33, monkeypatch):
    # the hull is the span of k+2 independent points of the set, not of all
    # t q^k of them (the one other span is the meet that gives the axis)
    spans = []
    span = pg33.span
    monkeypatch.setattr(pg33, "span", lambda *parts: spans.append(len(parts)) or span(*parts))
    for t in (2, 3):
        params = canonical_pencil_partition(pg33, 1, t)
        bset = pencil_partition(pg33, params)
        spans.clear()
        assert recognize_pencil_partition(bset) == params
        assert max(spans) == 3


def test_recognition_rejects_traces_without_common_axis():
    # PG(3,4), t = 2: the hyperplanes cut the hull in three lines through
    # no common point
    ctx = GeometryContext(Field(2, 2), 3)
    params = canonical_pencil_partition(ctx, 1, t=2)
    points = pencil_partition(ctx, params).points
    lines = [line for line in ctx.subspaces(1) if ctx.contains(params.hull, line)]
    first, second = lines[:2]
    corner = ctx.meet(first, second)
    third = next(line for line in lines if not ctx.contains(line, corner))
    hyperplanes = [hp for line in (first, second, third)
                   for hp in _hyperplanes_through(ctx, line) if hp != params.hull]
    bset = BlockingSet.from_elements(ctx, 1, points, hyperplanes)
    assert len(bset.points) == 8 and len(bset.hyperplanes) == 12
    assert _rejected_by_both(bset)


def test_recognition_rejects_split_count_other_than_t(pg33):
    # six points (t = 2) but hyperplanes through three pencil members
    params = canonical_pencil_partition(pg33, 1, t=2)
    members = pencil(pg33, params.axis, params.hull)
    (axis_point,) = pg33.subspace_points(params.axis)
    points = [p for member in (members[0], members[3])
              for p in pg33.subspace_points(member) if p != axis_point]
    hyperplanes = [hp for member in members[:3]
                   for hp in [h for h in _hyperplanes_through(pg33, member)
                              if h != params.hull][:2]]
    bset = BlockingSet.from_elements(pg33, 1, points, hyperplanes)
    assert len(bset.points) == 6 and len(bset.hyperplanes) == 6
    assert _rejected_by_both(bset)


def test_classification_builds_only_the_k_incidence():
    # recognizing the PG(3,2) minima reads the incidence the search built
    ctx = GeometryContext(Field(2), 3)
    verdict = classify_minimum(ctx, 1)
    assert verdict.all_minima_match_theorem and verdict.minima_count == 210
    assert list(ctx.incidence_systems) == [1]


@pytest.mark.parametrize("q,n,k", [(2, 1, 0), (3, 1, 0), (4, 1, 0), (5, 1, 0),
                                   (2, 3, 1), (3, 3, 1)], ids=lambda v: str(v))
def test_distinct_sets_match_subspace_builder(q, n, k):
    ctx = GeometryContext(field_for_order(q), n)
    assert distinct_pencil_partition_sets(ctx, k) == _subspace_pencil_sets(ctx, k)


@pytest.mark.parametrize("q,n,k", [(3, 1, 0), (2, 3, 1), (3, 3, 1), (2, 5, 2)],
                         ids=lambda v: str(v))
def test_pencil_partition_builds_no_incidence(q, n, k):
    # construct must stay cheap on geometries whose incidence is large
    ctx = GeometryContext(field_for_order(q), n)
    for t in range(1, q + 1):
        assert pencil_partition(ctx, canonical_pencil_partition(ctx, k, t)).size == \
            (q + 1) * q ** k
    assert ctx.incidence_systems == {}


def test_bose_burton_points(pg32):
    plane = canonical_anchor(pg32, 2)
    bset = bose_burton(pg32, 1, "points", plane)
    assert len(bset.points) == 7 and not bset.hyperplanes
    assert is_blocking(bset)[0]


def test_bose_burton_hyperplanes_pg52():
    ctx = GeometryContext(Field(2), 5)
    anchor = canonical_anchor(ctx, 2)  # n - k - 2 = 2 for k = 1
    bset = bose_burton(ctx, 1, "hyperplanes", anchor)
    assert len(bset.hyperplanes) == theta(2, 2) == 7
    assert not bset.points
    assert is_blocking(bset)[0]


def test_bose_burton_wrong_anchor(pg32):
    with pytest.raises(InputError, match="points variant needs anchor dim n-k = 2, got 1"):
        bose_burton(pg32, 1, "points", canonical_anchor(pg32, 1))
    with pytest.raises(InputError, match="variant must be 'points' or 'hyperplanes', got 'lines'"):
        bose_burton(pg32, 1, "lines", canonical_anchor(pg32, 2))


def test_q2_even_mixed_set_pg22(pg22):
    bset = q2_even_mixed_set(pg22)
    assert bset.size == 4 == 2 ** (pg22.n // 2 + 1)
    assert bset.k == 1
    assert is_blocking(bset)[0]


def test_q2_even_mixed_set_pg42(pg42):
    bset = q2_even_mixed_set(pg42)
    assert bset.size == 8 == 2 ** (pg42.n // 2 + 1)
    assert bset.k == 2
    assert is_blocking(bset)[0]


def test_q2_even_wrong_parameters(pg32, pg23):
    with pytest.raises(InputError, match="needs q = 2 and even n, got q=3, n=2"):
        q2_even_mixed_set(pg23)  # q = 3
    with pytest.raises(InputError, match="needs q = 2 and even n, got q=2, n=3"):
        q2_even_mixed_set(pg32)  # odd n


def test_dual_of_instance_parameter_shape(pg32):
    # the dual instance swaps the roles: hull <-> dual of axis, parts swap
    params = canonical_pencil_partition(pg32, 1, t=1)
    bset = pencil_partition(pg32, params)
    dual = dual_set(bset)
    recovered = recognize_pencil_partition(dual)
    assert recovered is not None
    assert len(recovered.point_spaces) == len(params.hyperplane_spaces)
    assert len(recovered.hyperplane_spaces) == len(params.point_spaces)


@pytest.mark.parametrize("q,n,k", [
    (2, 1, 0), (3, 1, 0), (4, 1, 0), (5, 1, 0),
    (3, 2, 0), (3, 2, 1), (4, 2, 0), (4, 2, 1),
    (2, 3, 0), (2, 3, 1), (3, 3, 0), (3, 3, 2), (2, 4, 0), (2, 4, 3),
], ids=lambda v: str(v))
def test_theorem_family_is_the_search_minima(q, n, k):
    # the enumerated family against branch-and-bound, as sets both ways
    ctx = GeometryContext(field_for_order(q), n)
    bound = minimum_size_bound(n, k, q)
    sets, tuples = theorem_family(ctx, k)
    report = min_blocking_search(ctx, k, bound)
    assert report.minimum_size == bound
    assert set(sets) == set(report.minimum_sets)
    assert list(sets) == sorted(set(sets)) and tuples >= len(sets)
    if n == 1:
        assert len(sets) == tuples == 2 ** (q + 1)


def test_theorem_family_pg32_middle_is_recognized(pg32):
    sets, tuples = theorem_family(pg32, 1)
    assert (sets, tuples) == distinct_pencil_partition_sets(pg32, 1)
    for ids in sets:
        bset = BlockingSet(pg32, 1, ids)
        params = recognize_pencil_partition(bset)
        assert params is not None and pencil_partition(pg32, params) == bset


def test_theorem_family_open_case_is_empty(pg42):
    assert theorem_family(pg42, 2) == ((), 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_k0_pencil_partitions_on_the_line(q):
    # PG(1,q), k = 0: the axis is empty and the pencil is every point
    ctx = GeometryContext(field_for_order(q), 1)
    sets, _ = theorem_family(ctx, 0)
    for t in range(1, q + 1):
        params = canonical_pencil_partition(ctx, 0, t)
        assert params.axis.dim == -1 and len(params.point_spaces) == t
        bset = pencil_partition(ctx, params)
        assert is_blocking(bset)[0] and bset.ids in sets
    unrecognized = []
    for ids in sets:
        bset = BlockingSet(ctx, 0, ids)
        params = recognize_pencil_partition(bset)
        if params is None:
            assert _rejected_by_both(bset)
            unrecognized.append(bset)
        else:
            assert pencil_partition(ctx, params) == bset
    # only the two pure Bose-Burton sets: all points, all hyperplanes
    assert sorted((len(b.points), len(b.hyperplanes)) for b in unrecognized) == \
        [(0, q + 1), (q + 1, 0)]


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 3), (3, 3), (2, 5)])
def test_canonical_members_are_the_pencil(q, n):
    # the members written down over the standard basis are the ones `pencil`
    # builds, in the same order: every split point t gives the same parts
    ctx = GeometryContext(field_for_order(q), n)
    k = (n - 1) // 2
    for t in range(1, q + 1):
        params = canonical_pencil_partition(ctx, k, t)
        members = pencil(ctx, params.axis, params.hull)
        assert params.point_spaces == frozenset(members[:t])
        assert params.hyperplane_spaces == frozenset(members[t:])


@pytest.mark.parametrize("q,n", [(9, 3), (16, 5)])
def test_pencil_spans_each_member_once(q, n):
    # the canonical pencil costs one span per member, q + 1 in all, where
    # spanning the axis with every hull point off it costs theta_{k+1} -
    # theta_{k-1} (90 on PG(3,9), 4352 on PG(5,16)); the members come in
    # the order of their smallest off-axis point
    ctx = GeometryContext(field_for_order(q), n)
    k = (n - 1) // 2
    axis, hull = canonical_anchor(ctx, k - 1), canonical_anchor(ctx, k + 1)
    spans = []
    span = ctx.span
    ctx.span = lambda *parts: spans.append(parts) or span(*parts)
    members = pencil(ctx, axis, hull)
    assert len(spans) == q + 1
    zeros = (0,) * (n - k - 1)
    directions = [(0, 1)] + [(1, c) for c in range(q)]
    assert members == tuple(Subspace(k, axis.basis + ((0,) * k + d + zeros,))
                            for d in directions)
