"""Mixed point/hyperplane blocking sets: model, verification, diagnostics.

A blocking set with respect to k-spaces holds a set of points and a set
of hyperplanes; it blocks a k-space by containing one of its points or
by one of the hyperplanes containing it.  Verification runs on bitsets
over canonical k-space ordinals, precomputed once per (context, k) and
shared with the search module.

The universe of potential blockers is indexed 0..2*theta_n - 1: ordinals
below theta_n are point ordinals, the rest are hyperplanes keyed by the
ordinal of their dual point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .counting import theta
from .gf import (Field, InputError, field_for_order, json_list, json_object,
                 plain_int, required)
from .pgkernel import GeometryContext, Point, Subspace


SKEW = "skew"
TANGENT = "tangent"
SECANT = "secant"


@dataclass(frozen=True)
class IncidenceSystem:
    """Bitset incidence between blocker candidates and the s-spaces.

    covers[u] has bit j set iff universe element u blocks the j-th s-space
    (point on it, or hyperplane through it).  candidates[j] lists the
    universe elements that block space j, in increasing ordinal order.
    """

    ctx: GeometryContext
    s: int
    spaces: tuple[Subspace, ...]
    space_index: dict
    covers: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    candidate_masks: tuple[int, ...]
    full_mask: int

    @property
    def num_points(self) -> int:
        return self.ctx.num_points

    @property
    def universe_size(self) -> int:
        return 2 * self.ctx.num_points


def incidence(ctx: GeometryContext, s: int) -> IncidenceSystem:
    cached = ctx.incidence_systems.get(s)
    if cached is not None:
        return cached
    spaces = ctx.subspaces(s)
    num_points = ctx.num_points
    covers = [0] * (2 * num_points)
    candidates = []
    cand_masks = []
    for j, space in enumerate(spaces):
        bit = 1 << j
        cand = []
        for pt in ctx.subspace_points(space):
            covers[pt.index] |= bit
            cand.append(pt.index)
        for dual_pt in ctx.subspace_points(ctx.dual(space)):
            covers[num_points + dual_pt.index] |= bit
            cand.append(num_points + dual_pt.index)
        cand.sort()
        candidates.append(tuple(cand))
        mask = 0
        for u in cand:
            mask |= 1 << u
        cand_masks.append(mask)
    system = IncidenceSystem(
        ctx=ctx,
        s=s,
        spaces=spaces,
        space_index={space: j for j, space in enumerate(spaces)},
        covers=tuple(covers),
        candidates=tuple(candidates),
        candidate_masks=tuple(cand_masks),
        full_mask=(1 << len(spaces)) - 1,
    )
    ctx.incidence_systems[s] = system
    return system


def check_k(ctx: GeometryContext, k: int):
    """The one range check on k, shared by BlockingSet and the search."""
    if not 0 <= k < ctx.n:
        raise InputError(f"need 0 <= k < n, got k={k}, n={ctx.n}")


@dataclass(frozen=True)
class BlockingSet:
    """The pair (points, hyperplanes) with its ambient geometry and target k."""

    ctx: GeometryContext
    k: int
    points: frozenset[Point]
    hyperplanes: frozenset[Subspace]

    def __post_init__(self):
        check_k(self.ctx, self.k)
        for pt in self.points:
            if len(pt.coords) != self.ctx.n + 1:
                raise InputError(f"{pt!r} does not live in {self.ctx!r}")
        for hp in self.hyperplanes:
            if hp.dim != self.ctx.n - 1:
                raise InputError(f"{hp!r} is not a hyperplane of {self.ctx!r}")

    @property
    def size(self) -> int:
        return len(self.points) + len(self.hyperplanes)

    def element_indices(self) -> tuple[int, ...]:
        """Sorted universe ordinals (points, then hyperplanes by dual ordinal)."""
        num_points = self.ctx.num_points
        ids = [pt.index for pt in self.points]
        ids.extend(num_points + self.ctx.hyperplane_dual_point(hp).index
                   for hp in self.hyperplanes)
        return tuple(sorted(ids))

    @classmethod
    def from_indices(cls, ctx: GeometryContext, k: int, ids) -> "BlockingSet":
        num_points = ctx.num_points
        pts = []
        hyps = []
        for u in ids:
            if u < num_points:
                pts.append(ctx.point(u))
            else:
                hyps.append(ctx.hyperplane(ctx.point(u - num_points).coords))
        return cls(ctx, k, frozenset(pts), frozenset(hyps))

    # -- JSON interchange -------------------------------------------------

    def to_dict(self) -> dict:
        pts = sorted(self.points, key=lambda p: p.index)
        hyps = sorted((self.ctx.hyperplane_dual_point(h) for h in self.hyperplanes),
                      key=lambda p: p.index)
        return {
            "q": self.ctx.q,
            "n": self.ctx.n,
            "k": self.k,
            "field": self.ctx.field.to_dict(),
            "points": [list(p.coords) for p in pts],
            "hyperplanes": [list(p.coords) for p in hyps],
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
                if warn is not None and pt in found:
                    warn(f"duplicate {kind} {list(pt.coords)} kept once")
                found.add(pt)
            return found

        points = frozenset(read("point"))
        hyps = frozenset(ctx.hyperplane(pt.coords) for pt in read("hyperplane"))
        return cls(ctx, plain_int(required(data, "k"), "k"), points, hyps)


def blocked_mask(bset: BlockingSet, s: int | None = None) -> int:
    """Bitset of s-spaces incident with at least one element of the set."""
    inc = incidence(bset.ctx, bset.k if s is None else s)
    num_points = inc.num_points
    mask = 0
    for pt in bset.points:
        mask |= inc.covers[pt.index]
    for hp in bset.hyperplanes:
        mask |= inc.covers[num_points + bset.ctx.hyperplane_dual_point(hp).index]
    return mask


def is_blocking(bset: BlockingSet):
    """(True, None) if every k-space is blocked, else (False, witness k-space)."""
    inc = incidence(bset.ctx, bset.k)
    mask = blocked_mask(bset)
    if mask == inc.full_mask:
        return True, None
    missing = (~mask & inc.full_mask)
    j = (missing & -missing).bit_length() - 1
    return False, inc.spaces[j]


def unblocked_count(bset: BlockingSet, s: int) -> int:
    """Exact number of s-spaces incident with no element of the set."""
    inc = incidence(bset.ctx, s)
    mask = blocked_mask(bset, s)
    return (inc.full_mask & ~mask).bit_count()


def _element_cover_pairs(bset: BlockingSet):
    """(universe ordinal, element, cover mask) for every element, sorted."""
    inc = incidence(bset.ctx, bset.k)
    num_points = inc.num_points
    pairs = [(pt.index, pt, inc.covers[pt.index]) for pt in bset.points]
    for hp in bset.hyperplanes:
        u = num_points + bset.ctx.hyperplane_dual_point(hp).index
        pairs.append((u, hp, inc.covers[u]))
    pairs.sort(key=lambda t: t[0])
    return pairs


def is_minimal(bset: BlockingSet):
    """(True, None) if no single element can be removed, else (False, element).

    Removing one element suffices to decide: blocking is monotone, so a
    proper blocking subset exists iff some element is redundant.
    """
    ok, _ = is_blocking(bset)
    if not ok:
        raise InputError("minimality is only defined for blocking sets")
    pairs = _element_cover_pairs(bset)
    seen_once = 0
    seen_twice = 0
    for _, _, mask in pairs:
        seen_twice |= seen_once & mask
        seen_once |= mask
    uniquely_covered = seen_once & ~seen_twice
    for _, element, mask in pairs:
        if mask & uniquely_covered == 0:
            return False, element
    return True, None


def dual_set(bset: BlockingSet) -> BlockingSet:
    """Swap points and hyperplanes through the standard duality; the result
    blocks (n-1-k)-spaces iff the input blocks k-spaces."""
    ctx = bset.ctx
    new_hyps = frozenset(ctx.hyperplane(pt.coords) for pt in bset.points)
    new_pts = frozenset(ctx.hyperplane_dual_point(hp) for hp in bset.hyperplanes)
    return BlockingSet(ctx, ctx.n - 1 - bset.k, new_pts, new_hyps)


def line_type(ctx: GeometryContext, line: Subspace, point_set) -> str:
    """skew / tangent / secant by meeting the set in 0 / 1 / >= 2 points."""
    if line.dim != 1:
        raise InputError(f"dim {line.dim} is not a line")
    idx = {ctx.point(p).index for p in point_set}
    hits = sum(1 for pt in ctx.subspace_points(line) if pt.index in idx)
    if hits == 0:
        return SKEW
    if hits == 1:
        return TANGENT
    return SECANT


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
    idx = {p.index for p in pts}
    num_points = ctx.num_points
    on_tangent = [False] * num_points
    on_secant = [False] * num_points
    for line in ctx.subspaces(1):
        line_pts = ctx.subspace_points(line)
        hits = sum(1 for p in line_pts if p.index in idx)
        if hits == 0:
            continue
        flags = on_tangent if hits == 1 else on_secant
        for p in line_pts:
            if p.index not in idx:
                flags[p.index] = True
    violator = None
    for u in range(num_points):
        if u not in idx and on_tangent[u] and on_secant[u]:
            violator = ctx.point(u)
            break
    closure = set(pts)
    for u in range(num_points):
        if u not in idx and not on_tangent[u]:
            closure.add(ctx.point(u))
    size = len(pts)
    expected_dim = 0
    while theta(expected_dim, ctx.q) < size:
        expected_dim += 1
    if violator is not None:
        return TangentClosureReport(frozenset(closure), False, violator,
                                    None, None, expected_dim)
    hull = ctx.span(*closure)
    is_subspace = len(ctx.subspace_points(hull)) == len(closure)
    return TangentClosureReport(frozenset(closure), True, None,
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
    if ctx.n != 2 * k + 1:
        raise InputError(f"need n = 2k + 1, got n={ctx.n}, k={k}")
    if flat.dim != k - 1:
        raise InputError(f"flat must have dimension k-1 = {k - 1}")
    point_idx = {p.index for p in bset.points}
    if any(p.index in point_idx for p in ctx.subspace_points(flat)):
        raise InputError("the flat meets the point part")
    count = sum(1 for hp in bset.hyperplanes if ctx.contains(hp, flat))
    qk = ctx.q ** k
    bound = Fraction(ctx.q + 1) - Fraction(len(point_idx), qk)
    equality = Fraction(count) == bound
    single = multiple = None
    if equality:
        # the k-spaces through the flat that meet the points are its spans
        # with them, one per point exactly when no two points share one
        single = len({ctx.span(flat, p) for p in bset.points}) == len(point_idx)
        multiple = len(point_idx) % qk == 0
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
    if ctx.n != 2 * k + 1:
        raise InputError(f"need n = 2k + 1, got n={ctx.n}, k={k}")
    if hull.dim != k + 1:
        raise InputError(f"hull must have dimension k+1 = {k + 1}")
    hull_idx = {p.index for p in ctx.subspace_points(hull)}
    point_idx = {p.index for p in bset.points}
    if not point_idx <= hull_idx:
        raise InputError("the point part is not contained in the hull")
    if pin.index not in hull_idx:
        raise InputError(f"{pin!r} is not on the hull")
    if pin.index in point_idx:
        raise InputError(f"{pin!r} belongs to the point part")
    members = frozenset(hp for hp in bset.hyperplanes
                        if ctx.contains(hp, pin) and not ctx.contains(hp, hull))
    if not is_blocking(bset)[0]:
        return PinnedHyperplanesReport(members, VACUOUS, None, None, None)
    q = ctx.q
    # Case 1: a k-space of the hull through the pin whose full hyperplane
    # fibre {H : H meet hull = that k-space} sits inside the collection.  A
    # fibre has q^k hyperplanes, so it is full iff q^k members cut the hull
    # in it; the witness is the first such trace in canonical order.
    traces = Counter(ctx.meet(hp, hull) for hp in members)
    full = [trace for trace, count in traces.items() if count == q ** k]
    if full:
        witness = min(full, key=incidence(ctx, k).space_index.__getitem__)
        return PinnedHyperplanesReport(members, FULL_TRACE, witness,
                                       q ** k, len(members) >= q ** k)
    bound = q ** (k - 1) * (q + 1)
    return PinnedHyperplanesReport(members, COUNT_BOUND, None,
                                   bound, len(members) >= bound)


def lemma_checks(bset: BlockingSet) -> dict:
    """The equality-case diagnostics of the middle case n = 2k + 1, check by
    check: the size bound, the skew-cospace bound, the tangent closure and
    the pinned-hyperplane dichotomy, each with its counts and at most three
    counterexamples, as a JSON-ready dict."""
    ctx, k = bset.ctx, bset.k
    q = ctx.q
    checks: dict[str, dict] = {}
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
            profile = skew_space_profile(bset, flat)
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
        closure = tangent_closure(ctx, bset.points)
        separation_ok = closure.hypothesis_ok or not at_equality
        checks["tangent_secant_separation"] = {
            "applicable": at_equality,
            "pass": separation_ok,
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
                rep = pinned_hyperplanes(bset, hull, pt)
                if rep.case != VACUOUS and not rep.bound_ok:
                    failures.append(list(pt.coords))
            checks["pinned_hyperplane_dichotomy"] = {
                "applicable": True,
                "pass": not failures,
                "pins_checked": pins,
                "counterexamples": failures[:3],
            }
    return checks
