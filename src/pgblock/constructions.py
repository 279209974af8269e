"""Generators and recognizers for the explicit small blocking-set families.

Three families live here:

* Bose-Burton sets: all points of an (n-k)-space, or dually all
  hyperplanes through an (n-k-2)-space.
* Pencil-partition sets in PG(2k+1, q): fix a (k+1)-space (the hull) and
  a (k-1)-space inside it (the axis, empty for k = 0), split the pencil of
  q+1 k-spaces between them into two nonempty parts, and take the
  off-axis points of one part together with the hyperplanes that cut the
  hull exactly in a member of the other part.  Size is always (q+1) q^k.
* The q = 2 even-dimension variant of the same idea, one level up, for
  k = n/2.

`theorem_family` enumerates the minimum sets the classification names:
every Bose-Burton and pencil-partition set whose size is the bound, as
sorted universe ordinals.  Classification tests the search minima for
membership in it, but recognizes each one in the middle case, k >= 1.

A pencil member contributes the same elements in every split: its
`blocking.candidates` minus those all members share (the axis points and
the hyperplanes through the hull), points to one part, hyperplanes to the
other.  So enumerating every split of a pencil builds it once.  The
enumeration reads each hull's members, axes and pencils off the bitmasks of
`blocking.incidence(ctx, k)`, with no subspace arithmetic: the members are
the k-spaces that every hyperplane through the hull contains, and those
hyperplanes come from the point-hyperplane table (`subspace_masks`).
`pencil_partition` builds one set from the members it is given, as sets of
ordinals, and checks them without building the pencil.

Recognition recovers the parameters of one given set by generate-and-compare:
recover candidate parameters, regenerate the set, and demand exact set
equality.  It reads the same bitmasks of `incidence(ctx, k)`, building them
if absent: the k-spaces inside a hull, the traces of the set's hyperplanes
on it, the axis they share and the members through the axis are ANDs of
`covers` and `candidate_masks` (`blocking.spaces_inside` reads the first).
Subspace arithmetic is left to finding the hull (`GeometryContext.hull` of
at most k+2 of the points) and to the axis of a recognized set (one `span`
of the points the traces share).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .blocking import (BlockingSet, candidates, check_middle, incidence, ordinals,
                       spaces_inside)
from .counting import minimum_size_bound, theta
from .gf import InputError, plain_int
from .pgkernel import GeometryContext, Subspace


@dataclass(frozen=True)
class PencilPartitionParams:
    """(hull, axis, point_spaces, hyperplane_spaces): the pencil of k-spaces
    between axis and hull, split into the part contributing points and the
    part contributing hyperplanes."""

    hull: Subspace
    axis: Subspace
    point_spaces: frozenset[Subspace]
    hyperplane_spaces: frozenset[Subspace]


def pencil(ctx: GeometryContext, axis: Subspace, hull: Subspace) -> tuple[Subspace, ...]:
    """The q+1 spaces between axis (codim 2 in hull) and hull, canonically
    ordered by their smallest off-axis point."""
    if hull.dim - axis.dim != 2 or not ctx.contains(hull, axis):
        raise InputError(f"axis dim {axis.dim} / hull dim {hull.dim} do not form a pencil")
    return tuple(ctx.extensions(axis, hull))


def _contributions(member_candidates, points) -> list:
    """(points, hyperplanes) each pencil member contributes in either part:
    its candidates off the ones all the members share (the axis points plus
    the hyperplanes through the hull), split by `points`, which holds every
    point ordinal among them.  The candidates come as universe bitmasks or
    as sets of ordinals, and the parts in the same form: both read & as
    intersection and ^ as symmetric difference."""
    common = reduce(and_, member_candidates)
    parts = []
    for own in member_candidates:
        own ^= common
        on_points = own & points
        parts.append((on_points, own ^ on_points))
    return parts


def pencil_partition(ctx: GeometryContext, params: PencilPartitionParams) -> BlockingSet:
    """Build the blocking set from validated pencil-partition parameters.

    The parts partition the pencil exactly when their q+1 distinct members
    are k-spaces through the axis inside the hull, so validation builds no
    pencil, and an axis off the hull leaves no such member.  The set is
    built from the members' candidates as sets of ordinals, at a cost
    linear in its size.
    """
    hull, axis = params.hull, params.axis
    k = hull.dim - 1
    if ctx.n != 2 * k + 1 or axis.dim != k - 1:
        raise InputError(
            f"need hull dim k+1 and axis dim k-1 with n = 2k+1; "
            f"got hull {hull.dim}, axis {axis.dim}, n {ctx.n}")
    if not params.point_spaces or not params.hyperplane_spaces:
        raise InputError("both parts of the pencil partition must be nonempty")
    if params.point_spaces & params.hyperplane_spaces:
        raise InputError("the two parts of the partition overlap")
    members = [*params.point_spaces, *params.hyperplane_spaces]
    if len(members) != ctx.q + 1 or not all(
            member.dim == k and ctx.contains(member, axis) and ctx.contains(hull, member)
            for member in members):
        raise InputError("the two parts do not partition the full pencil")
    owns = [frozenset(candidates(ctx, member)) for member in members]
    points = frozenset(u for own in owns for u in own if u < ctx.num_points)
    ids = []
    for i, (on_points, on_hyperplanes) in enumerate(_contributions(owns, points)):
        ids.extend(on_points if i < len(params.point_spaces) else on_hyperplanes)
    return BlockingSet(ctx, k, ids)


def canonical_pencil_partition(ctx: GeometryContext, k: int, t: int = 1) -> PencilPartitionParams:
    """Standard-basis parameters: reproducible byte-for-byte outputs for the
    CLI when no explicit coordinates are supplied.

    The hull is spanned by e_0..e_{k+1} and the axis by e_0..e_{k-1}.  The
    members are the axis plus one direction d of the line on e_k, e_{k+1},
    in `pencil` order: d = e_{k+1} (the member of the hull's smallest
    point), then d = e_k + c e_{k+1} for the field codes c = 0..q-1.  In
    reduced echelon form each member's basis is the axis rows followed by d.
    """
    check_middle(ctx, k)
    if not 1 <= plain_int(t, "t") <= ctx.q:
        raise InputError(f"need 1 <= t <= q, got t={t}")
    hull, axis = canonical_anchor(ctx, k + 1), canonical_anchor(ctx, k - 1)
    zeros = (0,) * (ctx.n - k - 1)
    directions = [(0, 1)] + [(1, c) for c in range(ctx.q)]
    members = [Subspace(k, axis.basis + ((0,) * k + d + zeros,)) for d in directions]
    return PencilPartitionParams(hull, axis,
                                 frozenset(members[:t]), frozenset(members[t:]))


def distinct_pencil_partition_sets(ctx: GeometryContext, k: int):
    """(sorted tuple of distinct element-index tuples, number of parameter
    tuples (hull, axis, nonempty split))."""
    check_middle(ctx, k)
    inc = incidence(ctx, k)
    num_points = ctx.num_points
    point_part = (1 << num_points) - 1
    seen = set()
    count = 0
    for _, _, hull_hyperplanes in ctx.iter_subspace_masks(k + 1):
        inside = spaces_inside(inc, hull_hyperplanes)
        members = [inc.candidate_masks[j] for j in ordinals(inside)]
        member_points = [mask & point_part for mask in members]
        axes = {a & b for i, a in enumerate(member_points) for b in member_points[:i]}
        for axis in axes:
            parts = _contributions([mask for mask, pts in zip(members, member_points)
                                    if pts & axis == axis], point_part)
            for split in range(1, 2 ** (ctx.q + 1) - 1):
                ids = 0
                for i, (points, hyperplanes) in enumerate(parts):
                    ids |= points if split >> i & 1 else hyperplanes
                seen.add(ids)
                count += 1
    return tuple(sorted(ordinals(ids) for ids in seen)), count


def theorem_family(ctx: GeometryContext, k: int):
    """(sorted tuple of the element-index tuples of every construction whose
    size is minimum_size_bound, number of parameter tuples that built them).

    The Bose-Burton point sets are the (n-k)-spaces; the hyperplanes through
    an (n-k-2)-space are the dual points of a (k+1)-space.  Those sets are
    pure (all points or all hyperplanes) and the pencil-partition sets mixed,
    so the two parts share no set.  Open cases have no family.
    """
    bound = minimum_size_bound(ctx.n, k, ctx.q)
    sets, count = distinct_pencil_partition_sets(ctx, k) if ctx.n == 2 * k + 1 else ((), 0)
    pure = tuple(ordinals(points << offset)
                 for dim, offset in ((ctx.n - k, 0), (k + 1, ctx.num_points))
                 if theta(dim, ctx.q) == bound
                 for _, points, _ in ctx.iter_subspace_masks(dim))
    return tuple(sorted(sets + pure)), count + len(pure)


def recognize_pencil_partition(bset: BlockingSet) -> PencilPartitionParams | None:
    """Parameters whose generated set equals bset exactly, or None.

    Recovery reads the bitmasks of `incidence(ctx, k)`, building them if
    absent.  The hull is `ctx.hull` of independent points of the set, picked
    greedily until they span a (k+1)-space or all the points; a set with
    points off that hull is not the one it regenerates.  When the points lie
    in one k-space M (their `covers` share a bit), the picked points span M,
    t = 1 and the set is M off the axis A plus the hyperplanes through A not
    containing M, whatever the hull over M: the first (k+1)-space over M,
    which `ctx.hull` takes, regenerates the set whenever any hull does.  The
    k-spaces inside the hull are the ones every hyperplane through it
    contains, and a set holding such a hyperplane is rejected.  Every other
    hyperplane of the set cuts the hull in one k-space, its trace.  The axis
    is the meet of the traces, read as the points they share and spanned by
    them.  A single trace forces t = q, and then the set is the hull minus
    the trace plus the hyperplanes through the trace off the hull, whatever
    the axis inside the trace, so the span of its first k basis rows is
    taken, and its points are read off the point-hyperplane table.  The
    members are the k-spaces inside the hull through the axis, and the set
    is regenerated from their candidate masks and compared with bset.
    """
    ctx, k = bset.ctx, bset.k
    q, num_points = ctx.q, ctx.num_points
    if ctx.n != 2 * k + 1:
        return None
    split = bisect_left(bset.ids, num_points)
    points, hyperplanes = bset.ids[:split], bset.ids[split:]
    if not points or not hyperplanes:
        return None
    qk = q ** k
    t, rem = divmod(len(points), qk)
    if rem or not 1 <= t <= q or len(hyperplanes) != (q + 1 - t) * qk:
        return None
    inc = incidence(ctx, k)
    covers, masks, spaces = inc.covers, inc.candidate_masks, ctx.subspaces(k)
    # pick each point off the span of those picked before it.  Up to
    # dimension k that span is the meet of the k-spaces holding it (shared),
    # so a point is in it when it is on all of them.  The loop ends at k+2
    # independent points (shared is 0) or with shared the AND of the covers
    # of every point, and then the picked points span all of them.
    shared = inc.full_mask
    independent = []
    for p in points:
        if shared & ~covers[p]:
            independent.append(p)
            shared &= covers[p]
            if not shared:
                break
    hull = ctx.hull(map(ctx.point, independent), k + 1)
    point_part = (1 << num_points) - 1
    inside = spaces_inside(inc, ctx.subspace_masks(hull)[1])
    cuts = [covers[h] & inside for h in hyperplanes]
    if inside in cuts:  # a hyperplane through the hull
        return None
    traces = reduce(or_, cuts)
    trace_ids = ordinals(traces)
    if len(trace_ids) == 1:
        axis = Subspace(k - 1, spaces[trace_ids[0]].basis[:k])
        axis_points = ctx.subspace_masks(axis)[0]
    else:
        axis = None  # the span of axis_points, once the set is confirmed
        axis_points = reduce(and_, (masks[j] for j in trace_ids)) & point_part
        if axis_points.bit_count() != theta(k - 1, q):
            return None
    members = [j for j in ordinals(inside) if masks[j] & axis_points == axis_points]
    point_members = [j for j in members if not traces >> j & 1]
    if len(point_members) != t:
        return None
    ids = 0
    for j, (on_points, on_hyperplanes) in zip(
            members, _contributions([masks[j] for j in members], point_part)):
        ids |= on_hyperplanes if traces >> j & 1 else on_points
    if ordinals(ids) != bset.ids:
        return None
    if axis is None:
        axis = ctx.span(*map(ctx.point, ordinals(axis_points)))
    return PencilPartitionParams(hull, axis,
                                 frozenset(spaces[j] for j in point_members),
                                 frozenset(spaces[j] for j in trace_ids))


def bose_burton(ctx: GeometryContext, k: int, variant: str, anchor: Subspace) -> BlockingSet:
    """The point set of an (n-k)-space, or all hyperplanes through an
    (n-k-2)-space; the smallest one-type blocking sets."""
    if variant == "points":
        if anchor.dim != ctx.n - k:
            raise InputError(
                f"points variant needs anchor dim n-k = {ctx.n - k}, got {anchor.dim}")
        return BlockingSet(ctx, k, [u for u in candidates(ctx, anchor) if u < ctx.num_points])
    if variant == "hyperplanes":
        if anchor.dim != ctx.n - k - 2:
            raise InputError(
                f"hyperplanes variant needs anchor dim n-k-2 = {ctx.n - k - 2}, "
                f"got {anchor.dim}")
        return BlockingSet(ctx, k, [u for u in candidates(ctx, anchor) if u >= ctx.num_points])
    raise InputError(f"variant must be 'points' or 'hyperplanes', got {variant!r}")


def canonical_anchor(ctx: GeometryContext, dim: int) -> Subspace:
    """The standard-basis subspace spanned by the first dim+1 unit vectors."""
    if not -1 <= plain_int(dim, "dim") <= ctx.n:
        raise InputError(f"no subspace of dimension {dim} in {ctx!r}")
    rows = ctx.whole_space().basis
    return Subspace(dim, rows[:dim + 1])


def q2_even_mixed_set(ctx: GeometryContext) -> BlockingSet:
    """For q = 2 and even n, k = n/2: the points of an (n/2)-space off one of
    its hyperplanes, plus the ambient hyperplanes through that sub-hyperplane
    not containing the (n/2)-space.  Size 2^(n/2 + 1), one more than the
    smallest point-only example."""
    if ctx.q != 2 or ctx.n % 2:
        raise InputError(f"needs q = 2 and even n, got q={ctx.q}, n={ctx.n}")
    half = ctx.n // 2
    # the points of inner lie in hull, and the hyperplanes through hull
    # pass through inner
    hull = canonical_anchor(ctx, half)
    inner = canonical_anchor(ctx, half - 1)
    return BlockingSet(ctx, half, set(candidates(ctx, hull)) ^ set(candidates(ctx, inner)))
