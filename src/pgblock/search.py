"""Exact minimum-blocking-set search and classification.

The search treats blocking as a set-cover problem over the 2*theta_n
candidate blockers (points, then hyperplanes by dual ordinal) and finds
every minimum cover up to a size cap:

* exhaustive mode sweeps subsets by increasing size, on one worker;
* branch-and-bound branches on a currently unblocked k-space with the
  fewest remaining candidates, pruning with coverage lower bounds, and
  keeps leaves duplicate-free by forbidding, inside each branch, the
  candidates tried earlier at the same node;
* the refutation searches each composition in one slice: the elements
  that a collineation can move any blocking set of it onto are forced at
  the root (see `refute_below`).

A shard reads the incidence system itself: `covers` (element to spaces),
`candidate_masks` (space to elements) and `full_mask`, and takes its
candidates lowest bit first, in increasing ordinal order.  Its only other
inputs are the composition caps and the packing memo of its search.  The
per-point and per-hyperplane ceilings, the most k-spaces one element
blocks, are read off `covers` (the bit counts of point 0 and of hyperplane
0).  Every k-space has the same number
C = theta_k + theta_{n-k-1} of candidates (its points and the hyperplanes
through it), so the root, which holds the forced elements and branches on
the lowest space they leave uncovered (space 0 when nothing is forced),
has no more-constrained space to prefer, and "fewest allowed candidates"
is "most forbidden candidates".

A node is a handful of bitmask operations:

* its uncovered spaces are one int over the space ordinals: a child keeps
  `unc & ~covers[e]`, and a node with none is a leaf;
* the number of forbidden candidates of every space, plus a fixed offset,
  is kept in bit-planes (ceil(log2(C+1)) of them for C = 8), and each
  tried sibling adds its `covers` with a ripple carry.  The offset makes
  the top plane the set of spaces with at most one allowed candidate.  The
  node branches on the lowest uncovered space in it, if there is one, and
  otherwise on the lowest uncovered space with the most forbidden
  candidates;
* the greedy packing of uncovered spaces with pairwise disjoint allowed
  candidates runs in ascending order over the spaces below that first
  space with at most one allowed candidate (all of them if there is none).
  Each packed space removes the spaces it shares an allowed candidate
  with, the OR of the covers of its allowed ones, looked up in one memo
  keyed by the allowed-candidate mask.  The memo is prefilled with every
  space's full candidate mask (`_conflicts`), built once per search and
  shared by its shards, so the packing takes at most room+1 steps.

The bounds apply in a fixed order: the static size bound (or, per
composition, the point/hyperplane cover ceiling), then the packing bound,
then, when every uncovered space has two or more allowed candidates, the
adaptive coverage bound: room elements cover the uncovered spaces only if
one allowed element blocks ceil(uncovered / room) of them.  Plain,
composition-constrained and sliced searches share this one path.  On
PG(3,3) k=1 it expands 721,577 nodes and prunes 560,536 of them, and the
refutation below 12, which searches (6, 5) with points 0 and 1 forced and
settles (5, 6) by the polarity, expands 939.

Reports are deterministic for a given (geometry, k, cap, mode): worker
sharding splits the root branches, each shard runs with its own local
incumbent, and the merge is order-independent.  Wall time is reported but
excluded from the canonical form of a report.

Classification compares the minima, as ordinal tuples, with the family the
theorem names (`constructions.theorem_family`).  In the middle case
n = 2k+1, k >= 1, it recognizes each minimum instead, one call per minimum
as the benchmark's per-layer test pins; recognition reads the incidence
bitmasks that the search built, so classification builds no other one.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from functools import reduce
from itertools import combinations
from operator import or_

from . import constructions
from .blocking import (BlockingSet, IncidenceSystem, check_k, check_middle, incidence,
                       is_blocking, ordinals)
from .counting import OPEN, HypothesisViolated, metsch_lower_bound, minimum_size_bound, theta
from .gf import InputError
from .pgkernel import BudgetExceeded, GeometryContext

_WORKER_STATE = {}
_CLASH_MEMO = 1 << 14  # entries the packing memo holds beyond its prefill before it starts over


class TimeBudgetExceeded(BudgetExceeded):
    """Raised when a wall-clock budget runs out; carries partial counters."""

    def __init__(self, message, nodes_expanded=0, pruned=0):
        super().__init__(message)
        self.nodes_expanded = nodes_expanded
        self.pruned = pruned


@dataclass(frozen=True)
class SearchReport:
    n: int
    q: int
    k: int
    size_cap: int
    mode: str
    workers: int
    minimum_size: int | None
    minimum_sets: tuple[tuple[int, ...], ...]
    nodes_expanded: int
    pruned: int
    wall_time: float

    def canonical_dict(self) -> dict:
        """Deterministic payload: identical across reruns and worker counts."""
        out = asdict(self)
        del out["workers"], out["wall_time"]
        return out

    def to_dict(self) -> dict:
        return {**asdict(self), "wall_time": round(self.wall_time, 3)}


def _conflicts(inc: IncidenceSystem) -> dict[int, int]:
    """The prefill of the packing memo: each space's candidate mask mapped to
    the spaces that share a candidate with it, the OR of the covers of its
    candidates (the space among them)."""
    return {mask: _covered_by(inc.covers, mask) for mask in inc.candidate_masks}


def _covered_by(covers, mask: int) -> int:
    """The spaces that some element of mask blocks."""
    return reduce(or_, map(covers.__getitem__, ordinals(mask)))


def _root_tasks(inc: IncidenceSystem, caps, forced=()) -> list[tuple[tuple[int, ...], int]]:
    """(chosen0, forbidden0) of each root branch.  The root holds the forced
    elements and branches on the lowest space they leave uncovered (space 0
    when nothing is forced), forbidding in each branch the candidates tried
    before it; a part whose cap the forced elements fill offers none.  If the
    forced elements block everything, the root is the one task."""
    unc = inc.full_mask
    for e in forced:
        unc &= ~inc.covers[e]
    if not unc:
        return [(tuple(forced), 0)]
    root = inc.candidate_masks[(unc & -unc).bit_length() - 1]
    num_points = inc.ctx.num_points
    point_mask = (1 << num_points) - 1
    forced_points = sum(1 for e in forced if e < num_points)
    if caps[0] == forced_points:
        root &= ~point_mask
    if caps[1] == len(forced) - forced_points:
        root &= point_mask
    tasks = []
    tried = 0
    for e in ordinals(root):
        tasks.append(((*forced, e), tried))
        tried |= 1 << e
    return tasks


def _shard_search(inc: IncidenceSystem, clashes, caps, cap: int, chosen0, forbidden0: int,
                  deadline: float | None, first_only: bool = False):
    """Explore one branch-and-bound shard; returns (best, sets, nodes, pruned).

    clashes is the packing memo, prefilled by `_conflicts(inc)`, which the
    shard extends; chosen0 the elements the shard starts from and forbidden0
    the elements it may not take.  caps is (max points, max hyperplanes),
    None for no limit.  best is the smallest solution size found
    (initialized to cap), sets the complete list of solutions of that size
    inside this shard.
    """
    covers = inc.covers
    cand_masks = inc.candidate_masks
    num_points = inc.ctx.num_points
    point_mask = (1 << num_points) - 1
    per_point, per_hyperplane = covers[0].bit_count(), covers[num_points].bit_count()
    static_max = max(per_point, per_hyperplane)
    max_pts, max_hyps = caps
    composition = max_pts is not None or max_hyps is not None
    # every space has `width` candidates.  Its forbidden count plus `offset`
    # is kept in `depth` bit-planes, most significant first: the offset
    # makes the sum reach 2**top exactly when the count reaches width - 1,
    # so the top plane is the set of spaces with at most one allowed
    # candidate, and the sum never reaches 2**(top+1)
    width = cand_masks[0].bit_count()
    top = max(1, (width - 2).bit_length())
    depth = top + 1
    offset = (1 << top) - (width - 1)
    carry_order = tuple(reversed(range(depth)))

    best = cap
    sets: list[tuple[int, ...]] = []
    nodes = 0
    pruned = 0
    check_every = 1024
    prefill = len(cand_masks)
    element_covers = tuple((1 << e, cover) for e, cover in enumerate(covers))
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded("search budget exhausted", nodes, pruned)

    def explore(chosen, unc, forbidden, planes, pts_used, hyps_used):
        nonlocal best, sets, nodes, pruned
        nodes += 1
        if deadline is not None and nodes % check_every == 0 and time.monotonic() > deadline:
            raise TimeBudgetExceeded("search budget exhausted", nodes, pruned)
        if not unc:
            size = len(chosen)
            if size < best:
                best = size
                sets = [tuple(chosen)]
            elif size == best:
                sets.append(tuple(chosen))
            return
        need = best - len(chosen)
        if need <= 0:
            pruned += 1
            return
        ucnt = unc.bit_count()
        room = need
        if composition:
            pts_room = need if max_pts is None else min(need, max_pts - pts_used)
            hyps_room = need if max_hyps is None else min(need, max_hyps - hyps_used)
            room = min(need, pts_room + hyps_room)
            if pts_room * per_point + hyps_room * per_hyperplane < ucnt:
                pruned += 1
                return
        elif ucnt > need * static_max:
            pruned += 1
            return
        # the uncovered spaces with at most one allowed candidate
        tight = unc & planes[0]
        # greedy packing, in ascending order, of the uncovered spaces below
        # the lowest tight one: spaces with pairwise disjoint allowed
        # candidates need pairwise distinct new elements (any blocker of a
        # space is one of its candidates), so more than room of them prune.
        # Each packed space removes the spaces it shares a candidate with.
        if tight:
            low = tight & -tight
            packable = unc & (low - 1)
        else:
            packable = unc
        packing = 0
        while packable:
            packing += 1
            if packing > room:
                pruned += 1
                return
            j = (packable & -packable).bit_length() - 1
            cm = cand_masks[j] & ~forbidden
            clash = clashes.get(cm)
            if clash is None:
                if len(clashes) >= prefill + _CLASH_MEMO:
                    # popitem takes the newest entry first, so the prefill,
                    # inserted first and never replaced, stays
                    while len(clashes) > prefill:
                        clashes.popitem()
                clash = clashes[cm] = _covered_by(covers, cm)
            packable &= ~clash
        if tight:
            branch = cand_masks[low.bit_length() - 1] & ~forbidden
            if not branch:
                pruned += 1
                return
        else:
            # the lowest space with the most forbidden candidates
            most = unc
            for plane in planes:
                if most & plane:
                    most &= plane
            branch = cand_masks[(most & -most).bit_length() - 1] & ~forbidden
            # adaptive coverage bound: room elements cover ucnt spaces only
            # if one of them blocks ceil(ucnt / room); an allowed element
            # that blocks no uncovered space never qualifies
            threshold = -(-ucnt // room)
            for bit, cover in element_covers:
                if not bit & forbidden and (cover & unc).bit_count() >= threshold:
                    break
            else:
                pruned += 1
                return
        # a part at its cap offers no candidates
        if max_pts is not None and pts_used >= max_pts:
            branch &= ~point_mask
        if max_hyps is not None and hyps_used >= max_hyps:
            branch &= point_mask
        tried = 0
        while branch:
            bit = branch & -branch
            branch ^= bit
            e = bit.bit_length() - 1
            is_point = e < num_points
            cover = covers[e]
            chosen.append(e)
            explore(chosen, unc & ~cover, forbidden | tried, planes,
                    pts_used + is_point, hyps_used + (not is_point))
            chosen.pop()
            if first_only and sets:
                return
            tried |= bit
            if branch:
                planes = _add_ones(planes, cover, carry_order)

    unc0 = inc.full_mask
    for e in chosen0:
        unc0 &= ~covers[e]
    planes0 = [inc.full_mask if offset >> i & 1 else 0 for i in reversed(range(depth))]
    for e in ordinals(forbidden0):
        planes0 = _add_ones(planes0, covers[e], carry_order)
    pts0 = sum(1 for e in chosen0 if e < num_points)
    explore(list(chosen0), unc0, forbidden0, planes0, pts0, len(chosen0) - pts0)
    return best, sets, nodes, pruned


def _add_ones(planes, mask: int, carry_order):
    """The bit-planes (most significant first) with one added to the count
    of every space in mask, by ripple carry; the input is left as it is."""
    planes = list(planes)
    carry = mask
    for i in carry_order:
        plane = planes[i]
        planes[i] = plane ^ carry
        carry &= plane
        if not carry:
            break
    return planes


def _init_worker(*args):
    _WORKER_STATE["args"] = args


def _run_task(task):
    inc, clashes, caps, cap, deadline, first_only = _WORKER_STATE["args"]
    return _shard_search(inc, clashes, caps, cap, *task, deadline, first_only)


def _branch_and_bound(inc: IncidenceSystem, caps, cap: int, workers: int,
                      deadline: float | None, first_only: bool = False, forced=()):
    """Shard the root branches and merge; the merge is associative, so the
    result does not depend on worker count or scheduling.  Every solution
    holds the forced elements, and the root branches as `_root_tasks` says
    (on space 0 when nothing is forced, see the module docstring)."""
    nodes = 1  # the root
    pruned = 0
    tasks = _root_tasks(inc, caps, forced) if cap >= 1 else []
    if not tasks:
        return None, (), nodes, pruned
    clashes = _conflicts(inc)
    if workers <= 1 or len(tasks) == 1:
        results = [_shard_search(inc, clashes, caps, cap, *task, deadline, first_only)
                   for task in tasks]
    else:
        import multiprocessing

        mp = multiprocessing.get_context("fork")
        with mp.Pool(min(workers, len(tasks)), _init_worker,
                     (inc, clashes, caps, cap, deadline, first_only)) as pool:
            results = pool.map(_run_task, tasks)
    best = cap + 1
    merged: set[tuple[int, ...]] = set()
    for shard_best, shard_sets, shard_nodes, shard_pruned in results:
        nodes += shard_nodes
        pruned += shard_pruned
        if shard_sets:
            if shard_best < best:
                best = shard_best
                merged = set()
            if shard_best == best:
                merged.update(tuple(sorted(s)) for s in shard_sets)
    if not merged:
        return None, (), nodes, pruned
    return best, tuple(sorted(merged)), nodes, pruned


def _exhaustive(inc: IncidenceSystem, cap: int, deadline: float | None):
    covers = inc.covers
    full = inc.full_mask
    nodes = 0
    for size in range(cap + 1):
        found = []
        for combo in combinations(range(len(covers)), size):
            nodes += 1
            if deadline is not None and nodes % 65536 == 0 \
                    and time.monotonic() > deadline:
                raise TimeBudgetExceeded("search budget exhausted", nodes, 0)
            mask = 0
            for e in combo:
                mask |= covers[e]
            if mask == full:
                found.append(combo)
        if found:
            return size, tuple(sorted(found)), nodes, 0
    return None, (), nodes, 0


def _check_input(ctx: GeometryContext, k: int, workers: int):
    """Reject the k that BlockingSet rejects, and fewer than one worker."""
    check_k(ctx, k)
    if workers < 1:
        raise InputError(f"need workers >= 1, got workers={workers}")


def min_blocking_search(ctx: GeometryContext, k: int, size_cap: int,
                        mode: str = "branch_and_bound", workers: int = 1,
                        budget_seconds: float | None = None) -> SearchReport:
    """Find every blocking set of minimum size <= size_cap.

    The minimum_sets list is complete: each entry is the sorted tuple of
    universe ordinals of one minimum blocking set.
    """
    if mode not in ("branch_and_bound", "exhaustive"):
        raise InputError(f"unknown mode {mode!r}")
    _check_input(ctx, k, workers)
    if mode == "exhaustive" and workers > 1:
        raise InputError(f"exhaustive mode runs on one worker, got workers={workers}")
    start = time.monotonic()
    deadline = start + budget_seconds if budget_seconds is not None else None
    inc = incidence(ctx, k)
    if mode == "exhaustive":
        best, sets, nodes, pruned = _exhaustive(inc, size_cap, deadline)
    else:
        best, sets, nodes, pruned = _branch_and_bound(inc, (None, None), size_cap,
                                                      workers, deadline)
    return SearchReport(
        n=ctx.n, q=ctx.q, k=k, size_cap=size_cap, mode=mode, workers=workers,
        minimum_size=best, minimum_sets=sets,
        nodes_expanded=nodes, pruned=pruned,
        wall_time=time.monotonic() - start,
    )


# -- bound-assisted refutation ------------------------------------------------


@dataclass(frozen=True)
class CompositionOutcome:
    points: int
    hyperplanes: int
    method: str           # "counting-bound", "polarity" or "search"
    nodes: int = 0


@dataclass(frozen=True)
class RefutationReport:
    """Outcome of proving that no blocking set of size < target exists."""

    target: int
    refuted: bool
    compositions: tuple[CompositionOutcome, ...]
    counterexample: tuple[int, ...] | None
    nodes_expanded: int

    def to_dict(self) -> dict:
        return asdict(self)


def _skew_space_floor(n: int, q: int, s: int, count: int) -> int:
    """Best counting lower bound on the s-spaces skew to `count` points.
    Through the polarity it also bounds the (n-s-1)-spaces that `count`
    hyperplanes leave unblocked."""
    best = 0
    for d in range(n + 1):
        try:
            best = max(best, metsch_lower_bound(n, q, d, s, count))
        except HypothesisViolated:
            pass
    return best


def _slice(ctx: GeometryContext, points: int, hyperplanes: int) -> tuple[int, ...]:
    """The elements forced in the one slice of a composition that holds an
    image of every blocking set of it (see `refute_below`)."""
    if points >= 2:
        return (0, 1)
    if points == 1:
        return (0,)
    if hyperplanes:
        return (ctx.num_points,)  # hyperplane 0, ordinal theta_n
    return ()


def refute_below(ctx: GeometryContext, k: int, target: int,
                 workers: int = 1, budget_seconds: float | None = None) -> RefutationReport:
    """Prove no blocking set of size < target exists (or exhibit one).

    Every exact composition (points, hyperplanes) with total < target is
    killed by the skew-space counting bounds (the part left unblocked by one
    side exceeds what the other side can possibly cover), or settled by
    symmetry and one composition-constrained branch-and-bound run.  Both
    sides use the one point floor (`_skew_space_floor`): a k-space lies in
    no hyperplane of the set exactly when its polar (n-k-1)-space is skew
    to their dual points, so the floor for b1 hyperplanes is the floor for
    b1 points on the (n-k-1)-spaces.

    The search covers one slice of the composition.  A collineation of
    PGL(n+1, q) maps blocking sets onto blocking sets of the same
    composition, and PGL is 2-transitive on points and transitive on
    hyperplanes.  So a set with at least two points has an image holding
    points 0 and 1, a set with exactly one point an image whose point is 0
    (the point cap keeps it the only one), and a set with no point but some
    hyperplane an image holding hyperplane 0; the search forces those
    elements (`_slice`), and finds a set exactly when the whole composition
    has one.  In the middle case n = 2k+1 the polarity maps the k-spaces
    onto themselves and a set of composition (b0, b1) onto one of (b1, b0),
    so a composition with b0 < b1 is settled by its twin, which comes later
    at the same total, and is reported with method "polarity" and 0 nodes.  On PG(3,3) k=1
    below 12 that leaves (6, 5) to search, in 939 nodes.
    """
    _check_input(ctx, k, workers)
    n, q = ctx.n, ctx.q
    start = time.monotonic()
    deadline = start + budget_seconds if budget_seconds is not None else None
    inc = incidence(ctx, k)
    per_point, per_hyperplane = inc.covers[0].bit_count(), inc.covers[ctx.num_points].bit_count()
    outcomes = []
    total_nodes = 0
    for total in range(target):
        for b0 in range(total + 1):
            b1 = total - b0
            if (_skew_space_floor(n, q, k, b0) > b1 * per_hyperplane
                    or _skew_space_floor(n, q, n - k - 1, b1) > b0 * per_point):
                outcomes.append(CompositionOutcome(b0, b1, "counting-bound"))
                continue
            if n == 2 * k + 1 and b0 < b1:
                outcomes.append(CompositionOutcome(b0, b1, "polarity"))
                continue
            _, sets, nodes, _ = _branch_and_bound(inc, (b0, b1), total, workers, deadline,
                                                  first_only=True, forced=_slice(ctx, b0, b1))
            total_nodes += nodes
            outcomes.append(CompositionOutcome(b0, b1, "search", nodes))
            if sets:
                return RefutationReport(target, False, tuple(outcomes),
                                        sets[0], total_nodes)
    return RefutationReport(target, True, tuple(outcomes), None, total_nodes)


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    expected_bound: object            # exact integer or "open"
    observed_minimum: int | None
    all_minima_match_theorem: bool | None  # None: not determined (fallback path)
    mismatches: tuple[tuple[int, ...], ...]
    minima_count: int
    method: str                       # "search" or "fallback"
    report: SearchReport | None
    fallback: "MiddleCaseFallback | None" = None

    def to_dict(self) -> dict:
        # the report serializes itself (wall time rounded), and only once
        report = self.report.to_dict() if self.report else None
        return {**asdict(replace(self, report=None)), "report": report}


@dataclass(frozen=True)
class MiddleCaseFallback:
    """Instance verification plus refutation, for when a full enumeration of
    the minima is out of budget."""

    parameter_tuples: int
    distinct_sets: int
    all_blocking: bool
    refutation: RefutationReport


def verify_middle_case(ctx: GeometryContext, k: int, workers: int = 1,
                       budget_seconds: float | None = None) -> MiddleCaseFallback:
    """Generate every member of the theorem family, check each blocks, and
    refute all sizes below (q+1) q^k with bound-assisted pruning."""
    check_middle(ctx, k)
    sets, tuples = constructions.theorem_family(ctx, k)
    all_blocking = all(is_blocking(BlockingSet(ctx, k, ids))[0]
                       for ids in sets)
    bound = minimum_size_bound(ctx.n, k, ctx.q)
    refutation = refute_below(ctx, k, bound, workers, budget_seconds)
    return MiddleCaseFallback(tuples, len(sets), all_blocking, refutation)


def classify_minimum(ctx: GeometryContext, k: int, size_cap: int | None = None,
                     mode: str = "branch_and_bound", workers: int = 1,
                     budget_seconds: float | None = None) -> ClassificationVerdict:
    """Search for the minimum and compare it, and every minimum set, with the
    classification.  For the open q = 2 middle cases the expected bound is
    reported as "open" and the empirical minimum stands on its own.  If a
    wall-clock budget interrupts the middle-case search, the fallback path
    (instance verification plus bound-assisted refutation) runs instead.
    """
    expected = minimum_size_bound(ctx.n, k, ctx.q)
    if size_cap is None:
        size_cap = expected if isinstance(expected, int) else \
            min(theta(k + 1, ctx.q), theta(ctx.n - k, ctx.q))
    try:
        report = min_blocking_search(ctx, k, size_cap, mode, workers, budget_seconds)
    except TimeBudgetExceeded:
        if ctx.n != 2 * k + 1:
            raise
        fallback = verify_middle_case(ctx, k, workers)
        confirmed = fallback.all_blocking and fallback.refutation.refuted
        return ClassificationVerdict(
            expected_bound=expected,
            observed_minimum=expected if confirmed else None,
            all_minima_match_theorem=None,
            mismatches=(),
            minima_count=fallback.distinct_sets if confirmed else 0,
            method="fallback",
            report=None,
            fallback=fallback,
        )
    found = report.minimum_sets
    if expected == OPEN:
        mismatches = ()  # nothing is claimed for open cases
    elif report.minimum_size != expected:
        mismatches = found
    elif ctx.n == 2 * k + 1 and k:
        # not at k = 0: the family of PG(1,q) also holds the two pure
        # Bose-Burton sets (all points, all hyperplanes), which are no
        # pencil partition, so recognition would reject them
        recognize = constructions.recognize_pencil_partition
        mismatches = tuple(ids for ids in found
                           if recognize(BlockingSet(ctx, k, ids)) is None)
    else:
        family = set(constructions.theorem_family(ctx, k)[0])
        mismatches = tuple(ids for ids in found if ids not in family)
    return ClassificationVerdict(
        expected_bound=expected,
        observed_minimum=report.minimum_size,
        all_minima_match_theorem=report.minimum_size is not None and not mismatches,
        mismatches=mismatches,
        minima_count=len(found),
        method="search",
        report=report,
    )
