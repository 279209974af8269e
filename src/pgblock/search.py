"""Exact minimum-blocking-set search and classification.

The search treats blocking as a set-cover problem over the 2*theta_n
candidate blockers (points, then hyperplanes by dual ordinal) and finds
every minimum cover up to a size cap:

* exhaustive mode sweeps subsets by increasing size, on one worker;
* branch-and-bound branches on a currently unblocked k-space with the
  fewest remaining candidates, pruning with coverage lower bounds, and
  keeps leaves duplicate-free by forbidding, inside each branch, the
  candidates tried earlier at the same node.

A shard reads the incidence system itself: `covers` (element to spaces),
`candidate_masks` (space to elements) and `full_mask`, and takes its
candidates lowest bit first, in increasing ordinal order.  Its only other
inputs are the composition caps and the per-point and per-hyperplane
ceilings, the Gaussian counts [n,k]_q and [n,k+1]_q of the k-spaces one
element blocks.  The root branches on space 0: every k-space has
theta_k + theta_{n-k-1} candidates, so the root has no more-constrained
space to prefer.

Each node inherits its uncovered spaces from its parent as an ascending
list of ordinals: a child keeps the spaces its new element does not block,
looked up in that element's frozenset of blocked spaces (built once per
search from `covers`), and a node with an empty list is a leaf.  The node
scans the list once.  The scan finds the most-constrained space (stopping
at one with at most one candidate left), builds the greedy packing of
spaces with disjoint candidate sets and the union of their candidates, and
prunes as soon as the packing exceeds the room left.  The bounds apply in
a fixed order: the static size bound (or, per composition, the
point/hyperplane cover ceiling) before the scan, the packing bound during
it, and the adaptive coverage bound over the candidate union after it.
The adaptive bound stops at the first union element that blocks
ceil(uncovered / room) uncovered spaces, which decides exactly as the
maximum cover would.  Plain and composition-constrained searches share
this one path.

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
from dataclasses import dataclass
from itertools import combinations

from . import constructions
from .blocking import (BlockingSet, IncidenceSystem, check_k, incidence, is_blocking,
                       ordinals)
from .counting import OPEN, gaussian, minimum_size_bound, theta
from .gf import InputError
from .pgkernel import BudgetExceeded, GeometryContext

_WORKER_STATE = {}


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
        return {
            "n": self.n,
            "q": self.q,
            "k": self.k,
            "size_cap": self.size_cap,
            "mode": self.mode,
            "minimum_size": self.minimum_size,
            "minimum_sets": [list(s) for s in self.minimum_sets],
            "nodes_expanded": self.nodes_expanded,
            "pruned": self.pruned,
        }

    def to_dict(self) -> dict:
        out = self.canonical_dict()
        out["workers"] = self.workers
        out["wall_time"] = round(self.wall_time, 3)
        return out


def _ceilings(ctx: GeometryContext, k: int) -> tuple[int, int]:
    """(k-spaces through a point, k-spaces inside a hyperplane): the most
    k-spaces that one point, or one hyperplane, blocks."""
    return gaussian(ctx.n, k, ctx.q), gaussian(ctx.n, k + 1, ctx.q)


def _shard_search(inc: IncidenceSystem, blocked, caps, cap: int, chosen0, unc0,
                  covered0: int, forbidden0: int, deadline: float | None,
                  first_only: bool = False):
    """Explore one branch-and-bound shard; returns (best, sets, nodes, pruned).

    blocked[e] is the frozenset of the spaces element e blocks, unc0 the
    ascending list of the spaces chosen0 leaves uncovered.  caps is (max
    points, max hyperplanes), None for no limit.  best is the smallest
    solution size found (initialized to cap), sets the complete list of
    solutions of that size inside this shard.
    """
    covers = inc.covers
    cand_masks = inc.candidate_masks
    full = inc.full_mask
    num_points = inc.ctx.num_points
    point_mask = (1 << num_points) - 1
    per_point, per_hyperplane = _ceilings(inc.ctx, inc.s)
    static_max = max(per_point, per_hyperplane)
    max_pts, max_hyps = caps
    composition = max_pts is not None or max_hyps is not None

    best = cap
    sets: list[tuple[int, ...]] = []
    nodes = 0
    pruned = 0
    check_every = 1024
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded("search budget exhausted", nodes, pruned)

    def explore(chosen, unc, covered, forbidden, pts_used, hyps_used):
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
        if first_only and sets:
            return
        need = best - len(chosen)
        if need <= 0:
            pruned += 1
            return
        ucnt = len(unc)
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
        # one pass over the uncovered spaces: the most-constrained space, the
        # greedy packing and the union of the remaining candidates.  Spaces
        # with pairwise disjoint candidate sets need pairwise distinct new
        # elements (any blocker of a space is one of its candidates), so even
        # a partial packing is a lower bound and may prune mid-scan.
        allowed = ~forbidden
        branch = 0
        best_cnt = len(covers) + 1
        packing = 0
        taken = 0
        union = 0
        for j in unc:
            cm = cand_masks[j] & allowed
            cnt = cm.bit_count()
            if cnt < best_cnt:
                best_cnt = cnt
                branch = cm
                if cnt <= 1:
                    break
            union |= cm
            if not cm & taken:
                packing += 1
                if packing > room:
                    pruned += 1
                    return
                taken |= cm
        if best_cnt == 0:
            pruned += 1
            return
        if best_cnt > 1:
            # adaptive coverage bound over the elements that still matter
            # (every blocker of an uncovered space lies in the union mask):
            # room elements cover ucnt spaces only if one of them blocks
            # ceil(ucnt / room), so the scan stops at the first that does
            uncovered = full & ~covered
            threshold = -(-ucnt // room)
            m = union
            while m:
                low = m & -m
                m ^= low
                if (covers[low.bit_length() - 1] & uncovered).bit_count() >= threshold:
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
            chosen.append(e)
            blocked_e = blocked[e]
            explore(chosen, [j for j in unc if j not in blocked_e], covered | covers[e],
                    forbidden | tried, pts_used + is_point, hyps_used + (not is_point))
            chosen.pop()
            if first_only and sets:
                return
            tried |= bit
    pts0 = sum(1 for e in chosen0 if e < num_points)
    explore(list(chosen0), unc0, covered0, forbidden0, pts0, len(chosen0) - pts0)
    return best, sets, nodes, pruned


def _init_worker(*args):
    _WORKER_STATE["args"] = args


def _run_task(task):
    inc, blocked, caps, cap, deadline, first_only = _WORKER_STATE["args"]
    return _shard_search(inc, blocked, caps, cap, *task, deadline, first_only)


def _branch_and_bound(inc: IncidenceSystem, caps, cap: int, workers: int,
                      deadline: float | None, first_only: bool = False):
    """Shard the root branches and merge; the merge is associative, so the
    result does not depend on worker count or scheduling.  The root
    branches on space 0 (see the module docstring)."""
    nodes = 1  # the root
    pruned = 0
    root = inc.candidate_masks[0]
    point_mask = (1 << inc.ctx.num_points) - 1
    if caps[0] == 0:
        root &= ~point_mask
    if caps[1] == 0:
        root &= point_mask
    if cap < 1 or not root:
        return None, (), nodes, pruned
    blocked = tuple(frozenset(ordinals(c)) for c in inc.covers)
    unc = ordinals(inc.full_mask)
    tasks = []
    tried = 0
    for e in ordinals(root):
        blocked_e = blocked[e]
        tasks.append(((e,), [j for j in unc if j not in blocked_e], inc.covers[e], tried))
        tried |= 1 << e
    if workers <= 1 or len(tasks) == 1:
        results = [_shard_search(inc, blocked, caps, cap, *task, deadline, first_only)
                   for task in tasks]
    else:
        import multiprocessing

        mp = multiprocessing.get_context("fork")
        with mp.Pool(min(workers, len(tasks)), _init_worker,
                     (inc, blocked, caps, cap, deadline, first_only)) as pool:
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
    method: str           # "counting-bound" or "search"
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
        return {
            "target": self.target,
            "refuted": self.refuted,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "nodes_expanded": self.nodes_expanded,
            "compositions": [
                {"points": c.points, "hyperplanes": c.hyperplanes,
                 "method": c.method, "nodes": c.nodes}
                for c in self.compositions
            ],
        }


def _skew_space_floor(n: int, q: int, k: int, count: int, dual: bool) -> int:
    """Best counting lower bound on the k-spaces a part of `count` elements
    leaves unblocked (points for dual=False, hyperplanes for dual=True)."""
    from .counting import HypothesisViolated, metsch_dual_lower_bound, metsch_lower_bound

    best = 0
    for d in range(0, n + 1):
        if count > theta(d, q):
            continue
        try:
            if dual:
                value = metsch_dual_lower_bound(n, q, d, k, count)
            else:
                value = metsch_lower_bound(n, q, d, k, count)
        except HypothesisViolated:
            continue
        best = max(best, value)
    return best


def refute_below(ctx: GeometryContext, k: int, target: int,
                 workers: int = 1, budget_seconds: float | None = None) -> RefutationReport:
    """Prove no blocking set of size < target exists (or exhibit one).

    Every exact composition (points, hyperplanes) with total < target is
    either killed by the skew-space counting bounds (the part left
    unblocked by one side exceeds what the other side can possibly cover)
    or settled by a composition-constrained branch-and-bound run.
    """
    _check_input(ctx, k, workers)
    n, q = ctx.n, ctx.q
    start = time.monotonic()
    deadline = start + budget_seconds if budget_seconds is not None else None
    per_point, per_hyperplane = _ceilings(ctx, k)
    inc = incidence(ctx, k)
    outcomes = []
    total_nodes = 0
    for total in range(target):
        for b0 in range(total + 1):
            b1 = total - b0
            if (_skew_space_floor(n, q, k, b0, dual=False) > b1 * per_hyperplane
                    or _skew_space_floor(n, q, k, b1, dual=True) > b0 * per_point):
                outcomes.append(CompositionOutcome(b0, b1, "counting-bound"))
                continue
            _, sets, nodes, _ = _branch_and_bound(inc, (b0, b1), total, workers,
                                                  deadline, first_only=True)
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
        return {
            "expected_bound": self.expected_bound,
            "observed_minimum": self.observed_minimum,
            "all_minima_match_theorem": self.all_minima_match_theorem,
            "mismatches": [list(m) for m in self.mismatches],
            "minima_count": self.minima_count,
            "method": self.method,
            "report": self.report.to_dict() if self.report else None,
            "fallback": self.fallback.to_dict() if self.fallback else None,
        }


@dataclass(frozen=True)
class MiddleCaseFallback:
    """Instance verification plus refutation, for when a full enumeration of
    the minima is out of budget."""

    parameter_tuples: int
    distinct_sets: int
    all_blocking: bool
    refutation: RefutationReport

    def to_dict(self) -> dict:
        return {
            "parameter_tuples": self.parameter_tuples,
            "distinct_sets": self.distinct_sets,
            "all_blocking": self.all_blocking,
            "refutation": self.refutation.to_dict(),
        }


def verify_middle_case(ctx: GeometryContext, k: int, workers: int = 1,
                       budget_seconds: float | None = None) -> MiddleCaseFallback:
    """Generate every member of the theorem family, check each blocks, and
    refute all sizes below (q+1) q^k with bound-assisted pruning."""
    if ctx.n != 2 * k + 1:
        raise InputError(f"need n = 2k + 1, got n={ctx.n}, k={k}")
    sets, tuples = constructions.theorem_family(ctx, k)
    all_blocking = all(is_blocking(BlockingSet(ctx, k, ids))[0]
                       for ids in sets)
    bound = (ctx.q + 1) * ctx.q ** k
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
        bound = (ctx.q + 1) * ctx.q ** k
        confirmed = fallback.all_blocking and fallback.refutation.refuted
        return ClassificationVerdict(
            expected_bound=expected,
            observed_minimum=bound if confirmed else None,
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
        all_minima_match_theorem=(report.minimum_size is not None and not mismatches
                                  and expected in (OPEN, report.minimum_size)),
        mismatches=mismatches,
        minima_count=len(found),
        method="search",
        report=report,
    )
