"""Mixed point/hyperplane blocking sets: model, verification, diagnostics.

A blocking set with respect to k-spaces holds a set of points and a set
of hyperplanes; it blocks a k-space by containing one of its points or
one of the hyperplanes through it.

The universe of potential blockers is indexed 0..2*theta_n - 1: ordinals
below theta_n are point ordinals, the rest are hyperplanes keyed by
theta_n plus the ordinal of their dual point.  A BlockingSet stores only
its sorted ordinals, the form that the search, the incidence bitmasks and
the theorem family share; its Point and hyperplane Subspace objects are
views built on first use, through `element`.  Verification ORs bitsets
over canonical k-space ordinals, precomputed once per (context, k) and
shared with the search module.

The incidence and the equality-case diagnostics are mask operations on
the point-hyperplane table of `GeometryContext.hyperplane_table`: the
hyperplanes through a space are the AND of its basis rows' entries, its
points the AND of those hyperplanes' entries.  `candidates` answers the
same question for one space by subspace arithmetic, at any scale, for
the constructions.  `lemma_checks` runs the public diagnostics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_

from .counting import check_k, theta
from .gf import (Field, InputError, field_for_order, json_list, json_object,
                 plain_int, required)
from .pgkernel import GeometryContext, Point, Subspace

# spaces per digit string of the `incidence` transpose: it bounds the string
# at _TRANSPOSE_BLOCK * 2 theta_n characters
_TRANSPOSE_BLOCK = 4096


@dataclass(frozen=True)
class IncidenceSystem:
    """Bitset incidence between blocker candidates and the s-spaces.

    covers[u] has bit j set iff universe element u blocks the s-space
    ctx.subspaces(s)[j] (point on it, or hyperplane through it);
    candidate_masks[j] has bit u set iff the same holds.  The two are the
    directions of one relation: element to spaces and space to elements.
    """

    ctx: GeometryContext
    s: int
    covers: tuple[int, ...]
    candidate_masks: tuple[int, ...]
    full_mask: int


def candidates(ctx: GeometryContext, space: Subspace) -> list[int]:
    """The universe ordinals that block space: its points, then the
    hyperplanes through it (the points of its dual)."""
    ids = [pt.index for pt in ctx.subspace_points(space)]
    ids.extend(ctx.num_points + pt.index for pt in ctx.subspace_points(ctx.dual(space)))
    return ids


def ordinals(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a bitmask, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


def incidence(ctx: GeometryContext, s: int) -> IncidenceSystem:
    """The incidence system of the s-spaces, built once per context: each
    space's candidate mask is its point mask with the mask of the
    hyperplanes through it above, both read off `ctx.hyperplane_table`.
    `covers` is their transpose, read by digit columns: the masks of a
    block of spaces, written as binary digits with the last space first,
    hold element e's bits over the block at every width-th digit."""
    cached = ctx.incidence_systems.get(s)
    if cached is not None:
        return cached
    half = ctx.num_points
    width = 2 * half
    cand_masks = tuple(points | hyperplanes << half
                       for _, points, hyperplanes in ctx.iter_subspace_masks(s))
    covers = [0] * width
    digits = f"0{width}b"
    for start in range(0, len(cand_masks), _TRANSPOSE_BLOCK):
        block = cand_masks[start:start + _TRANSPOSE_BLOCK]
        text = "".join(format(mask, digits) for mask in reversed(block))
        for e in range(width):
            covers[e] |= int(text[width - 1 - e::width], 2) << start
    system = IncidenceSystem(
        ctx=ctx,
        s=s,
        covers=tuple(covers),
        candidate_masks=cand_masks,
        full_mask=(1 << len(cand_masks)) - 1,
    )
    ctx.incidence_systems[s] = system
    return system


def spaces_inside(inc: IncidenceSystem, hyperplanes: int) -> int:
    """The s-spaces inside a space, as a mask over ctx.subspaces(s): the ones
    that every hyperplane through it contains.  hyperplanes holds the dual
    ordinals of those hyperplanes, as `GeometryContext.subspace_masks`
    gives them."""
    covers, num_points = inc.covers, inc.ctx.num_points
    return reduce(and_, (covers[num_points + d] for d in ordinals(hyperplanes)),
                  inc.full_mask)


def check_middle(ctx: GeometryContext, k: int):
    """The one check for the middle case n = 2k + 1, shared by the
    diagnostics, the constructions and the search."""
    if ctx.n != 2 * k + 1:
        raise InputError(f"need n = 2k + 1, got n={ctx.n}, k={k}")


def element(ctx: GeometryContext, u: int) -> Point | Subspace:
    """The point or the hyperplane with universe ordinal u."""
    if u < ctx.num_points:
        return ctx.point(u)
    return ctx.hyperplane(ctx.point(u - ctx.num_points).coords)


@dataclass(frozen=True)
class BlockingSet:
    """A set of points and hyperplanes with its ambient geometry and target
    k, stored as its universe ordinals: ids may be given as any iterable
    and are kept sorted and deduplicated.  `points` and `hyperplanes` are
    views built on first use."""

    ctx: GeometryContext
    k: int
    ids: tuple[int, ...]

    def __post_init__(self):
        check_k(self.ctx.n, self.k)
        given = tuple(self.ids)
        if not {int}.issuperset(map(type, given)):
            bad = next(u for u in given if type(u) is not int)
            raise InputError(f"element ordinals must be integers, got {bad!r}")
        ids = tuple(sorted(set(given)))
        if ids and not (0 <= ids[0] and ids[-1] < 2 * self.ctx.num_points):
            raise InputError(f"element ordinals {ids[0]}..{ids[-1]} leave "
                             f"[0, {2 * self.ctx.num_points})")
        object.__setattr__(self, "ids", ids)

    @classmethod
    def from_elements(cls, ctx: GeometryContext, k: int, points, hyperplanes) -> "BlockingSet":
        """The set of the given Point and hyperplane Subspace objects; a point
        from another geometry or a subspace that is no hyperplane is invalid."""
        ids = [ctx.point(pt.coords).index for pt in points]
        ids.extend(ctx.num_points + ctx.hyperplane_dual_point(hp).index for hp in hyperplanes)
        return cls(ctx, k, ids)

    @property
    def size(self) -> int:
        return len(self.ids)

    @cached_property
    def points(self) -> frozenset[Point]:
        return frozenset(element(self.ctx, u) for u in self.ids if u < self.ctx.num_points)

    @cached_property
    def hyperplanes(self) -> frozenset[Subspace]:
        return frozenset(element(self.ctx, u) for u in self.ids if u >= self.ctx.num_points)

    @cached_property
    def element_masks(self) -> tuple[int, int]:
        """The points and the hyperplanes as bitmasks of point ordinals and
        of dual ordinals, the two halves of the universe ordinals."""
        half = self.ctx.num_points
        points = hyperplanes = 0
        for u in self.ids:
            if u < half:
                points |= 1 << u
            else:
                hyperplanes |= 1 << (u - half)
        return points, hyperplanes

    # -- JSON interchange -------------------------------------------------

    def to_dict(self) -> dict:
        ctx = self.ctx
        return {
            "q": ctx.q,
            "n": ctx.n,
            "k": self.k,
            "field": ctx.field.to_dict(),
            "points": [list(ctx.point(u).coords) for u in self.ids if u < ctx.num_points],
            "hyperplanes": [list(ctx.point(u - ctx.num_points).coords)
                            for u in self.ids if u >= ctx.num_points],
        }

    @classmethod
    def from_dict(cls, data: dict, warn=None) -> "BlockingSet":
        data = json_object(data, "blocking-set document")
        field_data = data.get("field")
        if field_data is not None:
            fld = Field.from_dict(field_data)
            if "q" in data and plain_int(data["q"], "q") != fld.q:
                raise InputError(f"q = {data['q']} disagrees with field of order {fld.q}")
        else:
            fld = field_for_order(plain_int(required(data, "q"), "q"))
        ctx = GeometryContext(fld, plain_int(required(data, "n"), "n"))

        def read(kind):
            found = set()
            for raw in json_list(data.get(kind + "s", []), kind + "s"):
                coords = tuple(plain_int(c, f"{kind} coordinate")
                               for c in json_list(raw, kind))
                pt = ctx.point(coords)
                if warn is not None and pt.coords != coords:
                    warn(f"{kind} {list(coords)} normalized to {list(pt.coords)}")
                if warn is not None and pt.index in found:
                    warn(f"duplicate {kind} {list(pt.coords)} kept once")
                found.add(pt.index)
            return found

        points = read("point")
        ids = points | {ctx.num_points + u for u in read("hyperplane")}
        return cls(ctx, plain_int(required(data, "k"), "k"), ids)


def blocked_mask(bset: BlockingSet, s: int | None = None) -> int:
    """Bitset of s-spaces incident with at least one element of the set."""
    covers = incidence(bset.ctx, bset.k if s is None else s).covers
    mask = 0
    for u in bset.ids:
        mask |= covers[u]
    return mask


def is_blocking(bset: BlockingSet):
    """(True, None) if every k-space is blocked, else (False, witness k-space)."""
    inc = incidence(bset.ctx, bset.k)
    mask = blocked_mask(bset)
    if mask == inc.full_mask:
        return True, None
    missing = (~mask & inc.full_mask)
    j = (missing & -missing).bit_length() - 1
    return False, bset.ctx.subspaces(bset.k)[j]


def unblocked_count(bset: BlockingSet, s: int) -> int:
    """Exact number of s-spaces incident with no element of the set."""
    inc = incidence(bset.ctx, s)
    mask = blocked_mask(bset, s)
    return (inc.full_mask & ~mask).bit_count()


def is_minimal(bset: BlockingSet):
    """(True, None) if no single element can be removed, else (False, element).

    Removing one element suffices to decide: blocking is monotone, so a
    proper blocking subset exists iff some element is redundant.
    """
    ok, _ = is_blocking(bset)
    if not ok:
        raise InputError("minimality is only defined for blocking sets")
    covers = incidence(bset.ctx, bset.k).covers
    seen_once = 0
    seen_twice = 0
    for u in bset.ids:
        seen_twice |= seen_once & covers[u]
        seen_once |= covers[u]
    uniquely_covered = seen_once & ~seen_twice
    for u in bset.ids:
        if covers[u] & uniquely_covered == 0:
            return False, element(bset.ctx, u)
    return True, None


def dual_set(bset: BlockingSet) -> BlockingSet:
    """Swap points and hyperplanes through the standard duality; the result
    blocks (n-1-k)-spaces iff the input blocks k-spaces."""
    ctx = bset.ctx
    half = ctx.num_points
    return BlockingSet(ctx, ctx.n - 1 - bset.k,
                       [(u + half) % (2 * half) for u in bset.ids])


@dataclass(frozen=True)
class TangentClosureReport:
    closure: frozenset[Point]
    hypothesis_ok: bool
    violator: Point | None       # a point off S on both a tangent and a secant
    is_subspace: bool | None     # None when the hypothesis fails
    dim: int | None              # dimension of span(closure) when it applies
    expected_dim: int            # min m with |S| <= theta_m


def tangent_closure(ctx: GeometryContext, point_set) -> TangentClosureReport:
    """Close a nonempty point set by adding the points through which no
    tangent line passes.  Under the no-tangent-and-secant hypothesis the
    closure is a subspace of dimension min {m : |S| <= theta_m}; the
    hypothesis is checked, never assumed.
    """
    pts = {ctx.point(p) for p in point_set}
    if not pts:
        raise InputError("tangent closure needs a nonempty point set")
    inside = sum(1 << p.index for p in pts)
    on_tangent = on_secant = 0
    for _, line, _ in ctx.iter_subspace_masks(1):
        hits = (line & inside).bit_count()
        if hits == 1:
            on_tangent |= line
        elif hits:
            on_secant |= line
    on_tangent &= ~inside
    both = on_tangent & on_secant
    violator = ctx.point((both & -both).bit_length() - 1) if both else None
    closure_mask = ((1 << ctx.num_points) - 1) & ~on_tangent
    closure = frozenset(map(ctx.point, ordinals(closure_mask)))
    size = len(pts)
    expected_dim = 0
    while theta(expected_dim, ctx.q) < size:
        expected_dim += 1
    if violator is not None:
        return TangentClosureReport(closure, False, violator,
                                    None, None, expected_dim)
    hull = ctx.span(*closure)
    is_subspace = ctx.subspace_masks(hull)[0] == closure_mask
    return TangentClosureReport(closure, True, None,
                                is_subspace, hull.dim, expected_dim)


@dataclass(frozen=True)
class SkewSpaceProfile:
    count: int                        # hyperplanes of the set through the flat
    bound: Fraction                   # q + 1 - |points| / q^k
    equality: bool
    single_point_per_kspace: bool | None  # checked only at equality
    point_count_multiple: bool | None     # |points| divisible by q^k


def skew_space_profile(bset: BlockingSet, flat: Subspace) -> SkewSpaceProfile:
    """Count the hyperplanes of the set through a (k-1)-space skew to the
    points, compare exactly against q + 1 - |points|/q^k, and at equality
    verify the two equality consequences."""
    ctx, k = bset.ctx, bset.k
    check_middle(ctx, k)
    if flat.dim != k - 1:
        raise InputError(f"flat must have dimension k-1 = {k - 1}")
    flat_points, flat_hyperplanes = ctx.subspace_masks(flat)
    points, hyperplanes = bset.element_masks
    if flat_points & points:
        raise InputError("the flat meets the point part")
    count = (flat_hyperplanes & hyperplanes).bit_count()
    num_points = points.bit_count()
    qk = ctx.q ** k
    scaled_bound = (ctx.q + 1) * qk - num_points  # q^k times the bound
    bound = Fraction(scaled_bound, qk)
    equality = count * qk == scaled_bound
    single = multiple = None
    if equality:
        # the k-spaces through the flat that meet the points are its spans
        # with them, each known by the hyperplanes through it: one per point
        # exactly when no two points give the same hyperplanes
        table = ctx.hyperplane_table()
        single = len({flat_hyperplanes & table[p] for p in ordinals(points)}) == num_points
        multiple = num_points % qk == 0
    return SkewSpaceProfile(count, bound, equality, single, multiple)


FULL_TRACE = "full_trace"
COUNT_BOUND = "count"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class PinnedHyperplanesReport:
    hyperplanes: frozenset[Subspace]  # members through the pin, not through the hull
    case: str                         # FULL_TRACE / COUNT_BOUND / VACUOUS
    trace: Subspace | None            # witness k-space inside the hull (case 1)
    bound: int | None                 # q^k (case 1) or q^(k-1)(q+1) (case 2)
    bound_ok: bool | None


def pinned_hyperplanes(bset: BlockingSet, hull: Subspace, pin: Point) -> PinnedHyperplanesReport:
    """Hyperplanes of the set through a point of the hull, cutting the hull
    properly.  For a blocking set whose points lie in the (k+1)-dim hull,
    either some k-space of the hull has its whole fibre of hyperplanes in
    the collection (size >= q^k), or the collection has size
    >= q^(k-1) (q+1).  Vacuous when the set is not blocking."""
    ctx, k = bset.ctx, bset.k
    check_middle(ctx, k)
    if hull.dim != k + 1:
        raise InputError(f"hull must have dimension k+1 = {k + 1}")
    hull_points, hull_hyperplanes = ctx.subspace_masks(hull)
    points, hyperplanes = bset.element_masks
    if points & ~hull_points:
        raise InputError("the point part is not contained in the hull")
    pin_point, pin_hyperplanes = ctx.subspace_masks(pin)
    if not pin_point & hull_points:
        raise InputError(f"{pin!r} is not on the hull")
    if pin_point & points:
        raise InputError(f"{pin!r} belongs to the point part")
    member_mask = hyperplanes & pin_hyperplanes & ~hull_hyperplanes
    members = frozenset(element(ctx, ctx.num_points + d) for d in ordinals(member_mask))
    inc = incidence(ctx, k)
    if blocked_mask(bset) != inc.full_mask:
        return PinnedHyperplanesReport(members, VACUOUS, None, None, None)
    q = ctx.q
    # Case 1: a k-space of the hull through the pin whose full hyperplane
    # fibre {H : H meet hull = that k-space} sits inside the collection.  A
    # fibre has q^k hyperplanes, so it is full iff q^k members cut the hull
    # in it.  A member's trace is one bit over ctx.subspaces(k): the one
    # k-space inside the hull that it contains.  The witness is the first
    # full trace in canonical order.
    inside = spaces_inside(inc, hull_hyperplanes)
    traces = Counter(inc.covers[ctx.num_points + d] & inside for d in ordinals(member_mask))
    full = [trace for trace, count in traces.items() if count == q ** k]
    if full:
        return PinnedHyperplanesReport(members, FULL_TRACE,
                                       ctx.subspaces(k)[min(full).bit_length() - 1],
                                       q ** k, len(members) >= q ** k)
    bound = q ** (k - 1) * (q + 1)
    return PinnedHyperplanesReport(members, COUNT_BOUND, None,
                                   bound, len(members) >= bound)


def _check(applicable: bool, holds, **fields) -> dict:
    """One entry of `lemma_checks`: a check that does not apply passes."""
    return {"applicable": applicable, "pass": not applicable or holds, **fields}


def lemma_checks(bset: BlockingSet) -> dict:
    """The equality-case diagnostics of the middle case n = 2k + 1, check by
    check: the size bound, the skew-cospace bound, the tangent closure and
    the pinned-hyperplane dichotomy, each with its counts and at most three
    counterexamples, as a JSON-ready dict."""
    ctx, k = bset.ctx, bset.k
    q = ctx.q
    middle = ctx.n == 2 * k + 1
    blocking_ok = is_blocking(bset)[0]
    size_bound = q ** k * (q + 1)
    at_equality = blocking_ok and bset.size == size_bound
    points, hyperplanes = bset.element_masks
    checks = {"size_bound": _check(blocking_ok and middle, bset.size >= size_bound,
                                   bound=size_bound, size=bset.size)}
    if middle and k >= 1:
        failures = []
        count = 0
        for flat, flat_points, _ in ctx.iter_subspace_masks(k - 1):
            if flat_points & points:
                continue
            count += 1
            if not blocking_ok:
                continue
            profile = skew_space_profile(bset, flat)
            if profile.count < profile.bound or (profile.equality and not (
                    profile.single_point_per_kspace and profile.point_count_multiple)):
                failures.append(flat.to_dict())
        checks["skew_cospace_bound"] = _check(blocking_ok, not failures, flats_checked=count,
                                              counterexamples=failures[:3])
    table = ctx.hyperplane_table()
    incident = sorted((p, d) for d in ordinals(hyperplanes)
                      for p in ordinals(table[d] & points))
    checks["no_incident_pair"] = _check(
        at_equality, not incident,
        counterexamples=[{"point": list(ctx.point(p).coords),
                          "hyperplane": list(ctx.point(d).coords)}
                         for p, d in incident[:3]])
    num_points = points.bit_count()
    checks["point_part_multiple"] = _check(at_equality, num_points % q ** k == 0,
                                           points=num_points)
    if points:
        closure = tangent_closure(ctx, bset.points)
        checks["tangent_secant_separation"] = _check(
            at_equality, closure.hypothesis_ok,
            violator=list(closure.violator.coords) if closure.violator else None)
        checks["tangent_closure_dimension"] = _check(
            closure.hypothesis_ok,
            closure.is_subspace and closure.dim == closure.expected_dim,
            dim=closure.dim, expected_dim=closure.expected_dim)
        if at_equality and middle and closure.hypothesis_ok and closure.is_subspace \
                and closure.dim <= k + 1:
            hull = ctx.hull(bset.points, k + 1)
            pins = [ctx.point(u) for u in ordinals(ctx.subspace_masks(hull)[0] & ~points)]
            failures = [list(pt.coords) for pt in pins
                        if not pinned_hyperplanes(bset, hull, pt).bound_ok]
            checks["pinned_hyperplane_dichotomy"] = _check(
                True, not failures, pins_checked=len(pins), counterexamples=failures[:3])
    return checks
