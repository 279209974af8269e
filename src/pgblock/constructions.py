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
`blocking.incidence(ctx, k)`, with no subspace arithmetic inside the hull.
Recognition recovers the parameters of one given set by generate-and-compare:
recover candidate parameters, run the generator, and demand exact set
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .blocking import BlockingSet, candidates, incidence, ordinals
from .counting import minimum_size_bound, theta
from .gf import InputError
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


def _contributions(ctx: GeometryContext, member_masks) -> list[tuple[int, int]]:
    """(points, hyperplanes) each pencil member contributes in either part,
    as universe bitmasks: its candidates off the AND of all the members'
    candidates, which is the axis points plus the hyperplanes through the
    hull, split at theta_n."""
    common = reduce(and_, member_masks)
    point_part = (1 << ctx.num_points) - 1
    return [(mask & ~common & point_part, mask & ~common & ~point_part)
            for mask in member_masks]


def pencil_partition(ctx: GeometryContext, params: PencilPartitionParams) -> BlockingSet:
    """Build the blocking set from validated pencil-partition parameters."""
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
    members = pencil(ctx, axis, hull)
    if params.point_spaces | params.hyperplane_spaces != set(members):
        raise InputError("the two parts do not partition the full pencil")
    return _pencil_partition_set(ctx, k, members, params.point_spaces)


def _pencil_partition_set(ctx: GeometryContext, k: int, members, point_spaces) -> BlockingSet:
    """The set that the members in point_spaces give points, the rest hyperplanes."""
    masks = [sum(1 << u for u in candidates(ctx, member)) for member in members]
    ids = 0
    for member, (points, hyperplanes) in zip(members, _contributions(ctx, masks)):
        ids |= points if member in point_spaces else hyperplanes
    return BlockingSet(ctx, k, ordinals(ids))


def canonical_pencil_partition(ctx: GeometryContext, k: int, t: int = 1) -> PencilPartitionParams:
    """Standard-basis parameters: reproducible byte-for-byte outputs for the
    CLI when no explicit coordinates are supplied."""
    if ctx.n != 2 * k + 1:
        raise InputError(f"need n = 2k + 1, got n={ctx.n}, k={k}")
    if not 1 <= t <= ctx.q:
        raise InputError(f"need 1 <= t <= q, got t={t}")
    rows = ctx.whole_space().basis
    hull = Subspace(k + 1, rows[:k + 2])
    axis = Subspace(k - 1, rows[:k])
    members = pencil(ctx, axis, hull)
    return PencilPartitionParams(hull, axis,
                                 frozenset(members[:t]), frozenset(members[t:]))


def distinct_pencil_partition_sets(ctx: GeometryContext, k: int):
    """(sorted tuple of distinct element-index tuples, number of parameter
    tuples (hull, axis, nonempty split))."""
    if ctx.n != 2 * k + 1:
        raise InputError(f"need n = 2k + 1, got n={ctx.n}, k={k}")
    inc = incidence(ctx, k)
    num_points = ctx.num_points
    point_part = (1 << num_points) - 1
    seen = set()
    count = 0
    for hull in ctx.subspaces(k + 1):
        inside = reduce(and_, (inc.covers[num_points + h.index]
                               for h in ctx.subspace_points(ctx.dual(hull))),
                        inc.full_mask)
        members = [inc.candidate_masks[j] for j in ordinals(inside)]
        member_points = [mask & point_part for mask in members]
        axes = {a & b for i, a in enumerate(member_points) for b in member_points[:i]}
        for axis in axes:
            parts = _contributions(ctx, [mask for mask, pts in zip(members, member_points)
                                         if pts & axis == axis])
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
    pure = tuple(tuple(offset + p.index for p in ctx.subspace_points(space))
                 for dim, offset in ((ctx.n - k, 0), (k + 1, ctx.num_points))
                 if theta(dim, ctx.q) == bound
                 for space in ctx.iter_subspaces(dim))
    return tuple(sorted(sets + pure)), count + len(pure)


def recognize_pencil_partition(bset: BlockingSet) -> PencilPartitionParams | None:
    """Parameters whose generated set equals bset exactly, or None.

    Recovery: the hull is the span of the points (tried through every
    (k+1)-space over it in the one-part case t = 1), the hyperplane part's
    traces on the hull give one side of the pencil, and the axis is the meet
    of the traces.  A single trace forces t = q, and then the set is the
    hull minus the trace plus the hyperplanes through the trace off the
    hull, whatever the axis inside the trace, so the span of its first k
    basis rows is taken.  Every candidate is confirmed by regeneration.
    """
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
        # every trace contains the axis and lies in the hull, so the traces
        # and point_part partition the pencil
        members = pencil(ctx, axis, hull)
        point_part = frozenset(members) - traces
        if len(point_part) != t:
            continue
        if _pencil_partition_set(ctx, k, members, point_part) == bset:
            return PencilPartitionParams(hull, axis, point_part, traces)
    return None


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
    if not -1 <= dim <= ctx.n:
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
