"""Exact minimum-blocking-set search and classification.

The search treats blocking as a set-cover problem over the 2*theta_n
candidate blockers (points, then hyperplanes by dual ordinal) and finds
every minimum cover up to a size cap:

* exhaustive mode sweeps subsets by increasing size, on one worker;
* branch-and-bound branches on a currently unblocked k-space with the
  fewest remaining candidates, pruning with coverage lower bounds, and
  keeps leaves duplicate-free by forbidding, inside each branch, the
  candidates tried earlier at the same node;
* the refutation searches each composition in one shard per rank r of
  its point part, in rank order up to the first with a set: a
  collineation moves any blocking set of it into one of them, which starts
  from r forced independent points and forbids every point off their span
  (see `refute_below`).

A shard reads the incidence system itself: `covers` (element to spaces),
`candidate_masks` (space to elements) and `full_mask`, and takes its
candidates lowest bit first, in increasing ordinal order.  Its only other
inputs are the composition caps and the packing memo of its search.  The
per-point and per-hyperplane ceilings, the most k-spaces one element
blocks, are read off `covers` (the bit counts of point 0 and of hyperplane
0).  Every k-space has the same number
C = theta_k + theta_{n-k-1} of candidates (its points and the hyperplanes
through it), so plain search's root, which branches on space 0, has no
more-constrained space to prefer, and "fewest allowed candidates" is
"most forbidden candidates".

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
  keyed by the allowed-candidate mask.  The memo depends on the mask
  alone, so a search call (a plain search or a whole refutation) keeps one,
  and each forked worker a copy: it starts empty, fills on a miss and is
  cleared at `_CLASH_MEMO` entries.  The packing takes at most need+1
  steps, need being the number of elements the node may still add.

Every uncovered space keeps an allowed candidate at every node.  Plain
search's root forbids nothing, and its split on space 0 is a node's
branching.  A slice forbids elements of one kind only, so at its root
every k-space keeps all its candidates of the other kind: theta_{n-k-1}
hyperplanes, or theta_k points in a slice of hyperplanes.  A node with a
tight space branches on its one allowed candidate and forbids nothing new;
any other node branches on a space with the fewest allowed candidates,
m >= 2, and its i-th child forbids only the i-1 < m tried before it, while
every uncovered space had at least m allowed ones.  So no space's
forbidden count passes C - 1 (a covered space keeps the element that
covers it), and the bit-planes cannot overflow.

The bounds apply in a fixed order: the static size bound (or, per
composition, the point/hyperplane cover ceiling), then the packing bound,
then, when every uncovered space has two or more allowed candidates, the
adaptive coverage bound: need elements cover the uncovered spaces only if
one allowed element blocks ceil(uncovered / need) of them.  Plain,
composition-constrained and sliced searches share this one path.  On
PG(3,3) k=1 it expands 721,577 nodes and prunes 560,536 of them, and the
refutation below 12, which searches the rank slices of (6, 5) and settles
(5, 6) by the polarity, expands 109.

A search call runs its shards through one `_Runner`, which forks at most
one pool and ends it when the call returns or raises.  Reports are
deterministic for a given (geometry, k, cap, mode): worker sharding splits
plain search's root branches, each shard runs with its own local
incumbent, and the merge is order-independent; a composition search reads
its slices' shards in order and stops at the first with a set.  Wall time
is reported but excluded from the canonical form of a report.

Classification compares the minima, as ordinal tuples, with the family the
theorem names (`constructions.theorem_family`).  In the middle case
n = 2k+1, k >= 1, it recognizes each minimum instead, one call per minimum
as the benchmark's per-layer test pins; recognition reads the incidence
bitmasks that the search built, so classification builds no other one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from operator import or_

from . import constructions
from .blocking import (BlockingSet, IncidenceSystem, check_middle, incidence, is_blocking,
                       ordinals)
from .counting import OPEN, check_k, metsch_lower_bound, minimum_size_bound, theta
from .gf import InputError, plain_int
from .pgkernel import BudgetExceeded, GeometryContext

_WORKER_STATE = {}
_CLASH_MEMO = 1 << 14  # entries the packing memo holds before it starts over


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
        return {k: v for k, v in vars(self).items() if k not in ("workers", "wall_time")}

    def to_dict(self) -> dict:
        return {**vars(self), "wall_time": round(self.wall_time, 3)}


def _covered_by(covers, mask: int) -> int:
    """The spaces that some element of mask blocks."""
    return reduce(or_, map(covers.__getitem__, ordinals(mask)))


def _root_tasks(inc: IncidenceSystem) -> list[tuple[tuple[int, ...], int]]:
    """(chosen0, forbidden0) of each root branch of plain search: the root
    branches on space 0, forbidding in each branch the candidates tried
    before it, the ones below it."""
    root = inc.candidate_masks[0]
    return [((e,), root & ((1 << e) - 1)) for e in ordinals(root)]


def _shard_search(inc: IncidenceSystem, clashes, caps, cap: int, chosen0, forbidden0: int,
                  deadline: float | None):
    """Explore one branch-and-bound shard; returns (best, sets, nodes, pruned).

    clashes is the packing memo of the search, each allowed-candidate mask
    mapped to `_covered_by` of it, which the shard extends; chosen0 the
    elements the shard starts from and forbidden0 the elements it may not
    take.  caps is a composition (points, hyperplanes) whose total is cap,
    or None for plain search.  best is the smallest solution size found
    (initialized to cap), sets the complete list of solutions of that size
    inside this shard.  A composition search asks only whether a set
    exists, so it stops at its first set; a plain search explores the whole
    shard.
    """
    covers = inc.covers
    cand_masks = inc.candidate_masks
    num_points = inc.ctx.num_points
    point_mask = (1 << num_points) - 1
    per_point, per_hyperplane = covers[0].bit_count(), covers[num_points].bit_count()
    static_max = max(per_point, per_hyperplane)
    composition = caps is not None
    max_pts = caps[0] if composition else None
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
    element_covers = tuple((1 << e, cover) for e, cover in enumerate(covers))
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded("search budget exhausted", nodes, pruned)

    def explore(chosen, unc, forbidden, planes, pts_used):
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
        if composition:
            # cap is the composition's total and no part passes its cap, so
            # need is the points left plus the hyperplanes left
            pts_room = max_pts - pts_used
            if pts_room * per_point + (need - pts_room) * per_hyperplane < ucnt:
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
        # space is one of its candidates), so more than need of them prune.
        # Each packed space removes the spaces it shares a candidate with.
        if tight:
            low = tight & -tight
            packable = unc & (low - 1)
        else:
            packable = unc
        packing = 0
        while packable:
            packing += 1
            if packing > need:
                pruned += 1
                return
            j = (packable & -packable).bit_length() - 1
            cm = cand_masks[j] & ~forbidden
            clash = clashes.get(cm)
            if clash is None:
                if len(clashes) >= _CLASH_MEMO:
                    clashes.clear()
                clash = clashes[cm] = _covered_by(covers, cm)
            packable &= ~clash
        if tight:
            branch = cand_masks[low.bit_length() - 1] & ~forbidden
        else:
            # the lowest space with the most forbidden candidates
            most = unc
            for plane in planes:
                if most & plane:
                    most &= plane
            branch = cand_masks[(most & -most).bit_length() - 1] & ~forbidden
            # adaptive coverage bound: need elements cover ucnt spaces only
            # if one of them blocks ceil(ucnt / need); an allowed element
            # that blocks no uncovered space never qualifies
            threshold = -(-ucnt // need)
            for bit, cover in element_covers:
                if not bit & forbidden and (cover & unc).bit_count() >= threshold:
                    break
            else:
                pruned += 1
                return
        # a part at its cap offers no candidates
        if composition:
            if not pts_room:
                branch &= ~point_mask
            elif pts_room == need:
                branch &= point_mask
        tried = 0
        while branch:
            bit = branch & -branch
            branch ^= bit
            e = bit.bit_length() - 1
            cover = covers[e]
            chosen.append(e)
            explore(chosen, unc & ~cover, forbidden | tried, planes, pts_used + (e < num_points))
            chosen.pop()
            if composition and sets:
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
    explore(list(chosen0), unc0, forbidden0, planes0, sum(1 for e in chosen0 if e < num_points))
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


def _init_worker(*state):
    _WORKER_STATE["state"] = state


def _run_task(task, state=None):
    inc, clashes, deadline = state or _WORKER_STATE["state"]
    return _shard_search(inc, clashes, *task, deadline)


class _Runner:
    """The shard runner of one search call.  It holds the call's state, (inc,
    its one packing memo, its deadline), and at most one forked pool, which
    it terminates when the call leaves it, on return or on an exception."""

    def __init__(self, inc: IncidenceSystem, workers: int, deadline: float | None):
        self.state, self.workers, self.pool = (inc, {}, deadline), workers, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.terminate()

    def fork(self, size: int):
        import multiprocessing

        return multiprocessing.get_context("fork").Pool(size, _init_worker, self.state)

    def run(self, tasks):
        """The `_shard_search` results of tasks (caps, cap, chosen0,
        forbidden0) in task order: on the pool if the call has two or more
        workers and there are two or more tasks, else in process.  The pool
        is forked at the first such list, with at most one worker per task."""
        if self.workers > 1 and len(tasks) > 1:
            if self.pool is None:
                self.pool = self.fork(min(self.workers, len(tasks)))
            return self.pool.imap(_run_task, tasks)
        return (_run_task(task, self.state) for task in tasks)


def _branch_and_bound(inc: IncidenceSystem, cap, run, slices=(((), 0),)):
    """Build the tasks of one search, run them through run (a `_Runner.run`)
    and merge their results.  cap is the size cap of a plain search, or a
    composition (points, hyperplanes), which is searched for a set of its
    total size.

    Plain search has one task per root branch (`_root_tasks`), counts the
    root as one node and merges every shard.  A composition search has one
    task per (forced, forbidden) slice of `slices` (the whole composition by
    default): every set it finds holds the forced elements and none of the
    forbidden ones.  It stops at the first slice with a set, counting the
    nodes of the slices up to it."""
    if isinstance(cap, tuple):
        caps, cap, tasks, nodes = cap, sum(cap), slices, 0
    else:
        caps, tasks, nodes = None, _root_tasks(inc), 1  # the root
    if cap < 1:
        return None, (), 1, 0
    best = cap + 1
    merged: set[tuple[int, ...]] = set()
    pruned = 0
    for shard_best, shard_sets, shard_nodes, shard_pruned in run(
            [(caps, cap, *task) for task in tasks]):
        nodes += shard_nodes
        pruned += shard_pruned
        if shard_sets:
            if shard_best < best:
                best = shard_best
                merged = set()
            if shard_best == best:
                merged.update(tuple(sorted(s)) for s in shard_sets)
            if caps is not None:
                break
    return best if merged else None, tuple(sorted(merged)), nodes, pruned


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


def _check_input(ctx: GeometryContext, k: int, workers: int,
                 budget_seconds: float | None) -> float | None:
    """Reject the k that BlockingSet rejects, workers that are no int >= 1,
    and a budget that is no int or float, or NaN, which no clock reading
    exceeds; return the deadline the budget sets from now (None for none)."""
    check_k(ctx.n, k)
    if plain_int(workers, "workers") < 1:
        raise InputError(f"need workers >= 1, got workers={workers}")
    if budget_seconds is not None and (type(budget_seconds) not in (int, float)
                                       or math.isnan(budget_seconds)):
        raise InputError(f"need a budget that is a number, got budget_seconds={budget_seconds}")
    return None if budget_seconds is None else time.monotonic() + budget_seconds


def min_blocking_search(ctx: GeometryContext, k: int, size_cap: int,
                        mode: str = "branch_and_bound", workers: int = 1,
                        budget_seconds: float | None = None) -> SearchReport:
    """Find every blocking set of minimum size <= size_cap.

    The minimum_sets list is complete: each entry is the sorted tuple of
    universe ordinals of one minimum blocking set.
    """
    if mode not in ("branch_and_bound", "exhaustive"):
        raise InputError(f"unknown mode {mode!r}")
    deadline = _check_input(ctx, k, workers, budget_seconds)
    plain_int(size_cap, "size_cap")
    if mode == "exhaustive" and workers > 1:
        raise InputError(f"exhaustive mode runs on one worker, got workers={workers}")
    start = time.monotonic()
    inc = incidence(ctx, k)
    if mode == "exhaustive":
        best, sets, nodes, pruned = _exhaustive(inc, size_cap, deadline)
    else:
        with _Runner(inc, workers, deadline) as runner:
            best, sets, nodes, pruned = _branch_and_bound(inc, size_cap, runner.run)
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
        return {**vars(self), "compositions": tuple(dict(vars(c)) for c in self.compositions)}


@cache
def _skew_space_floor(n: int, q: int, s: int, count: int) -> int:
    """Best counting lower bound on the s-spaces skew to `count` points.
    Through the polarity it also bounds the (n-s-1)-spaces that `count`
    hyperplanes leave unblocked.  It takes every d where the bound's
    hypotheses hold: d + s <= n and count <= theta_d."""
    return max((metsch_lower_bound(n, q, d, s, count)
                for d in range(n - s + 1) if count <= theta(d, q)), default=0)


def _slices(ctx: GeometryContext, points: int, hyperplanes: int
            ) -> list[tuple[tuple[int, ...], int]]:
    """(forced, forbidden) of each rank slice of a composition: together they
    hold an image of every blocking set of it (see `refute_below`)."""
    if points:
        count, base = points, 0
    elif hyperplanes:
        count, base = hyperplanes, ctx.num_points  # dual ordinals, offset by theta_n
    else:
        return [((), 0)]
    thetas = ctx.thetas
    block = ((1 << ctx.num_points) - 1) << base
    return [(tuple(base + start for start in thetas[:r]),
             block & ~((1 << base + thetas[r]) - 1))
            for r in range(1, min(count, ctx.n + 1) + 1) if thetas[r] >= count]


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

    The search covers one slice of the composition per rank r of its point
    part (`_slices`), each one shard, in rank order up to the first slice
    with a set; its node count is the count of those shards.  The call's
    compositions share one `_Runner`: one packing memo and, on more than
    one worker, one pool, forked at the first with two or more slices.

    A collineation of PGL(n+1, q) maps blocking sets onto blocking sets of
    the same composition, and PGL is transitive on ordered r-tuples of
    independent points.  Take a set whose b0 points span rank r: a
    collineation maps r independent ones among them onto
    E_r = {e_n, ..., e_{n-r+1}}, and so maps the other points into
    span(E_r).  In ordinals, E_r is {theta_{i-1} : i < r} =
    {0, 1, q+1, ...} and span(E_r) is the points below theta_{r-1}; slice r
    forces E_r and forbids every point off span(E_r).  It is needed exactly
    when 1 <= r <= min(b0, n+1) and theta_{r-1} >= b0, so the slices find a
    set exactly when the whole composition has one.  When b0 = 0 < b1 the
    same rule applies to the hyperplanes' dual ordinals, offset by theta_n,
    and (0, 0) keeps its one empty slice.  A sliced part larger than theta_n
    has no slice, and no set has that exact composition; a smaller total
    fails first, since theta_n points block.  In the middle
    case n = 2k+1 the polarity maps the k-spaces onto themselves and a set
    of composition (b0, b1) onto one of (b1, b0), so a composition with
    b0 < b1 is settled by its twin, which comes later at the same total, and
    is reported with method "polarity" and 0 nodes.  On PG(3,3) k=1 below 12
    that leaves (6, 5) to search, in 109 nodes.
    """
    deadline = _check_input(ctx, k, workers, budget_seconds)
    plain_int(target, "target")
    n, q = ctx.n, ctx.q
    inc = incidence(ctx, k)
    per_point, per_hyperplane = inc.covers[0].bit_count(), inc.covers[ctx.num_points].bit_count()
    outcomes = []
    total_nodes = 0
    with _Runner(inc, workers, deadline) as runner:
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
                _, sets, nodes, _ = _branch_and_bound(inc, (b0, b1), runner.run,
                                                      _slices(ctx, b0, b1))
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
        return {**vars(self), "report": self.report and self.report.to_dict(),
                "fallback": self.fallback and self.fallback.to_dict()}


@dataclass(frozen=True)
class MiddleCaseFallback:
    """Instance verification plus refutation, for when a full enumeration of
    the minima is out of budget."""

    parameter_tuples: int
    distinct_sets: int
    all_blocking: bool
    refutation: RefutationReport

    def to_dict(self) -> dict:
        return {**vars(self), "refutation": self.refutation.to_dict()}


def verify_middle_case(ctx: GeometryContext, k: int, workers: int = 1,
                       budget_seconds: float | None = None) -> MiddleCaseFallback:
    """Generate every member of the theorem family, check each blocks, and
    refute all sizes below (q+1) q^k with bound-assisted pruning."""
    check_middle(ctx, k)
    deadline = _check_input(ctx, k, workers, budget_seconds)
    sets, tuples = constructions.theorem_family(ctx, k)
    all_blocking = all(is_blocking(BlockingSet(ctx, k, ids))[0]
                       for ids in sets)
    bound = minimum_size_bound(ctx.n, k, ctx.q)
    left = None if deadline is None else deadline - time.monotonic()
    refutation = refute_below(ctx, k, bound, workers, left)
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
            min(ctx.thetas[k + 2], ctx.thetas[ctx.n - k + 1])
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
