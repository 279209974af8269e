import copy
import hashlib
import json
import math
import multiprocessing
import time
from functools import reduce
from operator import or_
from types import SimpleNamespace

import pytest

from pgblock import constructions, search
from pgblock.blocking import (BlockingSet, candidates, dual_set, incidence, is_blocking,
                              is_minimal, ordinals)
from pgblock.counting import (OPEN, HypothesisViolated, gaussian, metsch_dual_lower_bound,
                              minimum_size_bound, theta)
from pgblock.gf import Field, InputError
from pgblock.pgkernel import GeometryContext
from pgblock.search import (TimeBudgetExceeded, classify_minimum,
                            min_blocking_search, refute_below, verify_middle_case)


def _list_shard_search(inc, blocked, caps, cap, chosen0, unc0, covered0, forbidden0,
                       deadline, first_only=False):
    """The list-based shard kernel that the bitmask node replaced, kept as its
    oracle: each node inherits its uncovered spaces as an ascending list and
    scans it once for the most-constrained space, the greedy packing and the
    union of the allowed candidates."""
    covers = inc.covers
    cand_masks = inc.candidate_masks
    full = inc.full_mask
    num_points = inc.ctx.num_points
    point_mask = (1 << num_points) - 1
    # the ceilings from the Gaussian counts, independently of the kernel,
    # which reads them off covers
    per_point, per_hyperplane = (gaussian(inc.ctx.n, inc.s, inc.ctx.q),
                                 gaussian(inc.ctx.n, inc.s + 1, inc.ctx.q))
    static_max = max(per_point, per_hyperplane)
    max_pts, max_hyps = caps or (None, None)
    composition = max_pts is not None or max_hyps is not None

    best = cap
    sets = []
    nodes = 0
    pruned = 0
    check_every = 1024
    if deadline is not None and search.time.monotonic() > deadline:
        raise TimeBudgetExceeded("search budget exhausted", nodes, pruned)

    def explore(chosen, unc, covered, forbidden, pts_used, hyps_used):
        nonlocal best, sets, nodes, pruned
        nodes += 1
        if deadline is not None and nodes % check_every == 0 \
                and search.time.monotonic() > deadline:
            raise TimeBudgetExceeded("search budget exhausted", nodes, pruned)
        # the invariant of the `search` module docstring
        assert all(cand_masks[j] & ~forbidden for j in unc), "a space lost every candidate"
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


def _list_shards(inc, caps, cap, first_only=False, deadline=None):
    """Per-shard results of the oracle kernel: a plain search's root
    branches, built as the list-based search built them, or a composition
    as one task."""
    if caps is not None:
        return _list_tasks(inc, caps, cap, [((), 0)], first_only, deadline)
    tasks = []
    tried = 0
    for e in ordinals(inc.candidate_masks[0]):
        tasks.append(((e,), tried))
        tried |= 1 << e
    return _list_tasks(inc, caps, cap, tasks, first_only, deadline)


def _list_tasks(inc, caps, cap, tasks, first_only=True, deadline=None):
    """Per-task results of the oracle kernel on the given root tasks."""
    blocked = tuple(frozenset(ordinals(c)) for c in inc.covers)
    results = []
    for chosen0, forbidden0 in tasks:
        covered0 = reduce(or_, (inc.covers[e] for e in chosen0), 0)
        results.append(_list_shard_search(
            inc, blocked, caps, cap, chosen0, list(ordinals(inc.full_mask & ~covered0)),
            covered0, forbidden0, deadline, first_only))
    return results


def _branch_and_bound(inc, cap, slices=(((), 0),), workers=1, deadline=None):
    """One search's shards, run and merged through a runner of its own."""
    with search._Runner(inc, workers, deadline) as runner:
        return search._branch_and_bound(inc, cap, runner.run, slices)


def _bitmask_shards(inc, caps, cap, deadline=None):
    clashes = {}
    return [search._shard_search(inc, clashes, caps, cap, *task, deadline)
            for task in ([((), 0)] if caps is not None else search._root_tasks(inc))]


def _classify_cap(ctx, k):
    expected = minimum_size_bound(ctx.n, k, ctx.q)
    return expected if isinstance(expected, int) else \
        min(theta(k + 1, ctx.q), theta(ctx.n - k, ctx.q))


@pytest.mark.parametrize("q,n,k", [
    *[(q, 2, k) for q in (2, 3, 4, 5) for k in (0, 1)],
    (2, 3, 0), (2, 3, 1), (2, 4, 1), (2, 4, 2),
])
def test_bitmask_node_matches_list_oracle(q, n, k):
    # the same tree: equal (best, sets, nodes, pruned) in every root shard
    ctx = GeometryContext(Field(2, 2) if q == 4 else Field(q), n)
    inc = incidence(ctx, k)
    caps = None
    cap = _classify_cap(ctx, k)
    oracle = _list_shards(inc, caps, cap)
    assert len(oracle) > 1
    assert _bitmask_shards(inc, caps, cap) == oracle


def test_bitmask_node_matches_list_oracle_per_composition(pg32):
    inc = incidence(pg32, 1)
    searched = 0
    for total in range(6):
        for points in range(total + 1):
            caps = (points, total - points)
            oracle = _list_shards(inc, caps, total, first_only=True)
            assert _bitmask_shards(inc, caps, total) == oracle, caps
            searched += bool(oracle)
    assert searched == 21  # every composition, (0, 0) included, is one task


@pytest.mark.parametrize("q,n,k,compositions", [
    (2, 3, 1, [(b0, t - b0) for t in range(7) for b0 in range(t + 1)]),
    (3, 2, 1, [(b0, t - b0) for t in range(6) for b0 in range(t + 1)]),
    (3, 3, 1, [(6, 5), (6, 6)]),
    (2, 5, 2, [(5, 5), (8, 3)]),
    (2, 6, 3, [(6, 8)]),
])
def test_bitmask_node_matches_list_oracle_on_slices(q, n, k, compositions):
    # the same tree in the shard of every rank slice, hyperplane slices
    # included, and the oracle asserts at each node, the slice root first,
    # that every uncovered space keeps an allowed candidate
    ctx = GeometryContext(Field(q), n)
    inc = incidence(ctx, k)
    for caps in compositions:
        tasks = search._slices(ctx, *caps)
        clashes = {}
        assert [search._shard_search(inc, clashes, caps, sum(caps), *task, None)
                for task in tasks] == _list_tasks(inc, caps, sum(caps), tasks), caps


def test_budget_expires_mid_shard(pg33, monkeypatch):
    # the clock passes the deadline after the shard starts: each kernel
    # raises at its first check, 1024 nodes in, with the same counters
    raised = []
    for shards in (_bitmask_shards, _list_shards):
        ticks = iter([0.0])
        monkeypatch.setattr(search, "time", SimpleNamespace(
            monotonic=lambda: next(ticks, 10.0)))
        with pytest.raises(TimeBudgetExceeded) as info:
            shards(incidence(pg33, 1), None, 12, deadline=1.0)
        raised.append((info.value.nodes_expanded, info.value.pruned))
    assert raised[0] == raised[1]
    assert raised[0][0] == 1024 and 0 < raised[0][1] < 1024


def test_budget_exit_on_the_worker_pool(pg33, monkeypatch):
    # the forked workers inherit the patched clock: each raises at its first
    # check, and the raising shard's counters survive unpickling
    ticks = iter([0.0])
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks, 10.0)))
    with pytest.raises(TimeBudgetExceeded) as info:
        _branch_and_bound(incidence(pg33, 1), 12, workers=2, deadline=1.0)
    assert info.value.nodes_expanded == 1024 and 0 < info.value.pruned < 1024
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("call", [
    lambda ctx: min_blocking_search(ctx, 1, 12, workers=2, budget_seconds=0),
    lambda ctx: refute_below(ctx, 1, 12, workers=2, budget_seconds=0),
], ids=["search", "refutation"])
def test_budget_exit_on_two_workers_leaves_no_process(pg33, monkeypatch, call):
    # the plain search forks at its 8 root tasks and the refutation at
    # (6, 5), its first composition searched, with two slices; a worker
    # raises at its first check, and the call terminates the pool on the way
    # out, so no worker outlives it
    forked = []
    fork = search._Runner.fork
    monkeypatch.setattr(search._Runner, "fork",
                        lambda runner, size: forked.append(size) or fork(runner, size))
    with pytest.raises(TimeBudgetExceeded):
        call(pg33)
    assert forked == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("q,n,k,call,size", [
    (2, 3, 1, lambda ctx, k, w: min_blocking_search(ctx, k, 6, workers=w).canonical_dict(), 6),
    (3, 3, 1, lambda ctx, k, w: refute_below(ctx, k, 13, workers=w), 2),
    (2, 5, 2, lambda ctx, k, w: refute_below(ctx, k, 12, workers=w), 3),
], ids=["search", "refutation-pg33", "refutation-pg52"])
def test_pool_size_is_capped_by_the_task_lists(monkeypatch, q, n, k, call, size):
    # a huge workers value asks the fork factory once, for no more processes
    # than the largest task list of the call: plain search's 6 root
    # branches, or the slices of the refutation's first composition with
    # two or more (2 of 2 on PG(3,3), 3 of 4 on PG(5,2)).  The stand-in
    # pool runs its tasks in process and starts no process
    ctx = GeometryContext(Field(q), n)
    sizes, lists = [], []
    run = search._Runner.run

    def listed(runner, tasks):
        lists.append(len(tasks))
        return run(runner, tasks)

    def fork(runner, size):
        sizes.append(size)
        return SimpleNamespace(
            imap=lambda _, tasks: (search._run_task(task, runner.state) for task in tasks),
            terminate=lambda: None)

    monkeypatch.setattr(search._Runner, "run", listed)
    monkeypatch.setattr(search._Runner, "fork", fork)
    report = call(ctx, k, 10 ** 6)
    assert sizes == [size] and size <= max(lists)
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    assert report == call(ctx, k, 1)


def test_budget_on_exhaustive_mode(pg32):
    # exhaustive mode reads the clock every 65536 subsets
    with pytest.raises(TimeBudgetExceeded) as info:
        min_blocking_search(pg32, 1, 6, mode="exhaustive", budget_seconds=0)
    assert info.value.nodes_expanded == 65536 and info.value.pruned == 0


def test_packing_memo_start_over(pg32, monkeypatch):
    # a memo that starts over at every new entry: the same shards as the
    # oracle, and the memo never holds more than that one entry
    class Memo(dict):
        sizes = []

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            self.sizes.append(len(self))

    monkeypatch.setattr(search, "_CLASH_MEMO", 1)
    inc = incidence(pg32, 1)
    caps = None
    clashes = Memo()
    shards = [search._shard_search(inc, clashes, caps, 6, *task, None)
              for task in search._root_tasks(inc)]
    assert shards == _list_shards(inc, caps, 6)
    assert len(clashes.sizes) > 1 and set(clashes.sizes) == {1}


def test_pg22_minima_are_the_lines(pg22):
    report = min_blocking_search(pg22, 1, 3)
    assert report.minimum_size == 3
    expected = set()
    for line in pg22.subspaces(1):
        expected.add(tuple(sorted(p.index for p in pg22.subspace_points(line))))
    assert set(report.minimum_sets) == expected
    assert len(report.minimum_sets) == 7


def test_pg22_modes_agree(pg22):
    bb = min_blocking_search(pg22, 1, 3)
    ex = min_blocking_search(pg22, 1, 3, mode="exhaustive")
    assert bb.minimum_size == ex.minimum_size
    assert bb.minimum_sets == ex.minimum_sets


def test_pg32_modes_agree(pg32, pg32_minima):
    ex = min_blocking_search(pg32, 1, 6, mode="exhaustive")
    assert pg32_minima.minimum_size == ex.minimum_size == 6
    assert pg32_minima.minimum_sets == ex.minimum_sets


def test_pg23_k0_minima_are_pencils(pg23):
    report = min_blocking_search(pg23, 0, 4)
    assert report.minimum_size == 4
    num_points = pg23.num_points
    expected = set()
    for pt in pg23.points():
        expected.add(tuple(sorted(
            u for u in candidates(pg23, pg23.span(pt)) if u >= num_points)))
    assert set(report.minimum_sets) == expected
    assert len(report.minimum_sets) == 13


def test_pg23_k1_minima_are_line_point_sets(pg23):
    report = min_blocking_search(pg23, 1, 4)
    assert report.minimum_size == 4
    expected = set()
    for line in pg23.subspaces(1):
        expected.add(tuple(sorted(p.index for p in pg23.subspace_points(line))))
    assert set(report.minimum_sets) == expected
    assert len(report.minimum_sets) == 13


def test_minima_are_sound(pg32, pg32_minima):
    for ids in pg32_minima.minimum_sets:
        bset = BlockingSet(pg32, 1, ids)
        assert is_blocking(bset)[0]
        assert is_minimal(bset)[0]


def test_refutation_below_six(pg32):
    report = min_blocking_search(pg32, 1, 5)
    assert report.minimum_size is None
    assert report.minimum_sets == ()


def test_exhaustive_refutation_below_six(pg32):
    report = min_blocking_search(pg32, 1, 5, mode="exhaustive")
    assert report.minimum_size is None
    assert report.nodes_expanded == sum(math.comb(30, s) for s in range(6))


def test_worker_determinism(pg32):
    payloads = []
    for workers in (1, 2, 8):
        report = min_blocking_search(pg32, 1, 6, workers=workers)
        payloads.append(json.dumps(report.canonical_dict(), sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]


@pytest.mark.parametrize("fixture,k,cap,nodes,pruned", [
    ("pg32", 1, 6, 1940, 1188),
    ("pg42", 2, 7, 10311, 8228),
    ("pg23", 1, 4, 121, 76),
    ("pg24", 1, 5, 309, 218),
    ("pg25", 1, 6, 674, 511),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_branch_and_bound_counters_pinned(request, fixture, k, cap, nodes, pruned, workers):
    # node and prune counts of the plain search, pinned so that a faster node
    # scan is shown to explore exactly the same tree
    report = min_blocking_search(request.getfixturevalue(fixture), k, cap, workers=workers)
    assert (report.nodes_expanded, report.pruned) == (nodes, pruned)


def test_rerun_determinism(pg32, pg32_minima):
    again = min_blocking_search(pg32, 1, 6)
    assert again.canonical_dict() == pg32_minima.canonical_dict()


def test_root_coverage_bound_is_safe(pg22, pg32, pg23):
    # the coverage lower bound at the root never exceeds the true optimum
    for ctx, k, cap in ((pg22, 1, 3), (pg32, 1, 6), (pg23, 0, 4), (pg23, 1, 4)):
        inc = incidence(ctx, k)
        max_cover = max(c.bit_count() for c in inc.covers)
        root_bound = -(-len(inc.candidate_masks) // max_cover)
        report = min_blocking_search(ctx, k, cap)
        assert report.minimum_size is not None
        assert root_bound <= report.minimum_size


def test_time_budget(pg33):
    with pytest.raises(TimeBudgetExceeded):
        min_blocking_search(pg33, 1, 12, budget_seconds=0.05)


def test_refute_below_pg32(pg32):
    report = refute_below(pg32, 1, 6)
    assert report.refuted
    assert report.counterexample is None
    methods = {(c.points, c.hyperplanes): c.method for c in report.compositions}
    assert len(methods) == sum(range(1, 7))  # all exact compositions of sizes 0..5
    assert "counting-bound" in set(methods.values())


def test_hyperplane_floor_is_the_best_dual_bound():
    """The floor refute_below puts on the k-spaces that b hyperplanes leave
    unblocked, the point floor of the (n-k-1)-spaces, is the largest dual
    Metsch bound within its hypotheses."""
    for q in (2, 3, 4, 5):
        for n in range(1, 7):
            edges = {theta(d, q) + e for d in range(n + 1) for e in (-1, 0, 1)}
            for count in sorted(set(range(theta(2, q) + 1)) | edges):
                for k in range(n):
                    dual = []
                    for d in range(n + 1):
                        try:
                            dual.append(metsch_dual_lower_bound(n, q, d, k, count))
                        except HypothesisViolated:
                            pass
                    assert search._skew_space_floor(n, q, n - k - 1, count) == \
                        max(dual, default=0), (q, n, k, count)


@pytest.mark.parametrize("k,workers,message", [
    (3, 1, "need 0 <= k < n, got k=3, n=3"),
    (-1, 1, "need 0 <= k < n, got k=-1, n=3"),
    (1, 0, "need workers >= 1, got workers=0"),
    (1, -3, "need workers >= 1, got workers=-3"),
], ids=["k=n", "k<0", "workers=0", "workers<0"])
def test_search_rejects_bad_arguments(pg32, k, workers, message):
    with pytest.raises(InputError, match=message):
        min_blocking_search(pg32, k, 3, workers=workers)
    with pytest.raises(InputError, match=message):
        refute_below(pg32, k, 3, workers=workers)


def test_search_rejects_nan_budget(pg32):
    # no clock reading exceeds a NaN deadline, so the budget would never fire
    calls = [lambda: min_blocking_search(pg32, 1, 6, budget_seconds=math.nan),
             lambda: refute_below(pg32, 1, 6, budget_seconds=math.nan),
             lambda: classify_minimum(pg32, 1, budget_seconds=math.nan)]
    for call in calls:
        with pytest.raises(InputError, match="got budget_seconds=nan"):
            call()


@pytest.mark.parametrize("workers,budget,message", [
    (0, None, "need workers >= 1, got workers=0"),
    (1, math.nan, "got budget_seconds=nan"),
], ids=["workers=0", "nan-budget"])
def test_fallback_checks_arguments_before_building_the_family(pg32, monkeypatch,
                                                              workers, budget, message):
    def unbuilt(ctx, k):
        raise AssertionError("the theorem family was built")

    monkeypatch.setattr(constructions, "theorem_family", unbuilt)
    with pytest.raises(InputError, match=message):
        verify_middle_case(pg32, 1, workers, budget)


def test_fallback_spends_one_budget(pg33, monkeypatch):
    # the refutation gets what the family leaves of the budget: a family
    # that takes longer than the whole budget leaves a spent deadline, so
    # the first searched composition raises
    family = constructions.theorem_family

    def slow_family(ctx, k):
        time.sleep(0.3)
        return family(ctx, k)

    monkeypatch.setattr(constructions, "theorem_family", slow_family)
    with pytest.raises(TimeBudgetExceeded):
        verify_middle_case(pg33, 1, budget_seconds=0.2)


def test_exhaustive_mode_runs_on_one_worker(pg22):
    with pytest.raises(InputError, match="exhaustive mode runs on one worker, got workers=2"):
        min_blocking_search(pg22, 1, 3, mode="exhaustive", workers=2)


def test_refute_below_pg33_worker_independent(pg33):
    # two compositions survive the counting bounds; the polarity settles
    # (5, 6) by its twin, the node count of (6, 5) is pinned, and the report
    # is the same at any worker count
    docs = [refute_below(pg33, 1, 12, workers=w).to_dict() for w in (1, 2)]
    assert docs[0] == docs[1]
    assert docs[0]["refuted"] and docs[0]["nodes_expanded"] == 109
    assert [(c["points"], c["hyperplanes"], c["method"], c["nodes"])
            for c in docs[0]["compositions"] if c["method"] != "counting-bound"] \
        == [(5, 6, "polarity", 0), (6, 5, "search", 109)]


def test_refute_below_finds_counterexample(pg32):
    report = refute_below(pg32, 1, 7)  # size-6 sets exist
    assert not report.refuted
    assert report.counterexample is not None
    bset = BlockingSet(pg32, 1, report.counterexample)
    assert is_blocking(bset)[0]


def _composition(ctx, ids):
    points = sum(1 for u in ids if u < ctx.num_points)
    return points, len(ids) - points


@pytest.mark.parametrize("q,n,k", [
    (2, 1, 0), (3, 1, 0), (2, 2, 0), (2, 2, 1), (3, 2, 0), (3, 2, 1),
    (2, 3, 0), (2, 3, 1), (2, 3, 2), (2, 4, 1), (2, 4, 2),
])
def test_slice_search_matches_plain_search(q, n, k):
    # the oracle of the symmetry argument: for every composition of at most
    # 8 elements, the rank slices together find a set exactly when the plain
    # search of the whole composition does, and in the middle case so does
    # the plain search of its twin.  The sliced part (the points, or the
    # hyperplanes when there is no point) has no slice when it is larger
    # than theta_n, since no set has that exact composition; plain search
    # within the caps still finds smaller sets there, so it is left out
    ctx = GeometryContext(Field(q), n)
    inc = incidence(ctx, k)
    found = {}
    for total in range(9):
        for points in range(total + 1):
            caps = (points, total - points)
            slices = search._slices(ctx, *caps)
            if (caps[0] or caps[1]) > ctx.num_points:
                assert slices == [], caps
                continue
            _, plain, _, _ = _branch_and_bound(inc, caps)
            hit = False
            for forced, forbidden in slices:
                _, sliced, _, _ = _branch_and_bound(inc, caps, [(forced, forbidden)])
                for ids in sliced:
                    assert set(forced) <= set(ids), (caps, ids)
                    assert not any(forbidden >> u & 1 for u in ids), (caps, ids)
                    assert is_blocking(BlockingSet(ctx, k, ids))[0]
                    got = _composition(ctx, ids)
                    assert got[0] <= caps[0] and got[1] <= caps[1], (caps, ids)
                hit = hit or bool(sliced)
            assert hit == bool(plain), caps
            _, together, _, _ = _branch_and_bound(inc, caps, slices)
            assert bool(together) == hit, caps
            found[caps] = hit
    if n == 2 * k + 1:
        assert all(found[b1, b0] == hit for (b0, b1), hit in found.items()
                   if (b1, b0) in found)
    report = refute_below(ctx, k, 9)
    assert report.refuted == (not any(found.values()))
    if report.counterexample is not None:
        last = report.compositions[-1]
        assert last.method == "search"
        assert _composition(ctx, report.counterexample) == (last.points, last.hyperplanes)
        assert is_blocking(BlockingSet(ctx, k, report.counterexample))[0]
        smallest = min(sum(caps) for caps, hit in found.items() if hit)
        assert len(report.counterexample) == smallest


@pytest.mark.parametrize("q,n", [(2, 1), (3, 2), (4, 2), (3, 3), (2, 5)])
def test_slices_force_a_basis_and_forbid_off_its_span(q, n):
    # slice r forces r independent points (hyperplanes, when the composition
    # has no point) and forbids exactly the ones off their span, and there
    # is one slice for every rank that b points can span: r <= min(b, n+1)
    # and theta_{r-1} >= b
    ctx = GeometryContext(Field(2, 2) if q == 4 else Field(q), n)
    half = ctx.num_points
    assert search._slices(ctx, 0, 0) == [((), 0)]
    for b in range(1, half + 2):
        for caps, base in (((b, 0), 0), ((b, 3), 0), ((0, b), half)):
            slices = search._slices(ctx, *caps)
            ranks = [len(forced) for forced, _ in slices]
            assert ranks == [r for r in range(1, n + 2) if r <= b <= theta(r - 1, q)], caps
            for forced, forbidden in slices:
                assert all(base <= u < base + half for u in forced)
                span = ctx.span(*(ctx.point(u - base) for u in forced))
                assert span.dim == len(forced) - 1
                inside = sum(1 << base + p.index for p in ctx.subspace_points(span))
                assert forbidden == (((1 << half) - 1) << base) & ~inside, caps


def test_root_tasks_with_forced_elements(pg22, pg32):
    # plain search's root branches on space 0, each branch forbidding the
    # candidates tried before it
    inc = incidence(pg32, 1)
    tried = 0
    expected = []
    for e in ordinals(inc.candidate_masks[0]):
        expected.append(((e,), tried))
        tried |= 1 << e
    assert search._root_tasks(inc) == expected
    # (0, 0) has one empty slice and a cap of 0: one node
    assert search._slices(pg32, 0, 0) == [((), 0)]
    assert _branch_and_bound(inc, (0, 0)) == (None, (), 1, 0)
    # a slice whose forced elements block everything: its root is a leaf,
    # one node, and the search returns them
    line = tuple(p.index for p in pg22.subspace_points(pg22.subspaces(1)[3]))
    inc22 = incidence(pg22, 1)
    for forbidden in (0, 1 << 6):
        assert _branch_and_bound(inc22, (3, 0), [(line, forbidden)]) == (3, (line,), 1, 0)


@pytest.mark.parametrize("q,n,k,target,searched,size", [
    (3, 3, 1, 13, [(6, 5, 109), (6, 6, 47)], 12),
    (2, 5, 2, 12, [(5, 5, 10), (6, 5, 143), (7, 4, 154), (8, 3, 106)], None),
])
def test_refute_below_rank_slices_worker_independent(q, n, k, target, searched, size):
    # the node counts of the rank slices, pinned, and the same report at any
    # worker count
    ctx = GeometryContext(Field(q), n)
    docs = [refute_below(ctx, k, target, workers=w).to_dict() for w in (1, 2)]
    assert docs[0] == docs[1]
    assert [(c["points"], c["hyperplanes"], c["nodes"]) for c in docs[0]["compositions"]
            if c["method"] == "search"] == searched
    assert docs[0]["nodes_expanded"] == sum(nodes for *_, nodes in searched)
    assert docs[0]["refuted"] == (size is None)
    if size is not None:
        counterexample = docs[0]["counterexample"]
        assert len(counterexample) == size
        assert _composition(ctx, counterexample) == searched[-1][:2]
        assert is_blocking(BlockingSet(ctx, k, counterexample))[0]


@pytest.mark.parametrize("q,n,k,target", [(3, 3, 1, 13), (2, 5, 2, 12)])
def test_refutation_runs_on_one_pool(monkeypatch, q, n, k, target):
    # two workers fork one pool for every composition searched, terminated
    # when refute_below returns, found set or not; the report is the one
    # worker's
    ctx = GeometryContext(Field(q), n)
    opened, terminated = [], []
    fork = search._Runner.fork

    def counted(runner, size):
        pool = fork(runner, size)
        terminate = pool.terminate
        pool.terminate = lambda: (terminated.append(pool), terminate())
        opened.append(pool)
        return pool

    monkeypatch.setattr(search._Runner, "fork", counted)
    report = refute_below(ctx, k, target, workers=2)
    assert opened == terminated and len(opened) == 1
    assert sum(c.method == "search" for c in report.compositions) > 1
    assert report == refute_below(ctx, k, target, workers=1) and len(opened) == 1


@pytest.mark.parametrize("q,n,k,target,misses", [(3, 3, 1, 13, 165), (2, 5, 2, 12, 322)])
def test_refutation_keeps_one_packing_memo(monkeypatch, q, n, k, target, misses):
    # in process, every composition of a refutation reads one packing memo,
    # so no allowed-candidate mask misses it twice (with one memo per
    # composition there were 189 and 803 misses)
    ctx = GeometryContext(Field(q), n)
    masks = []
    covered_by = search._covered_by
    monkeypatch.setattr(search, "_covered_by",
                        lambda covers, mask: masks.append(mask) or covered_by(covers, mask))
    refute_below(ctx, k, target)
    assert len(masks) == len(set(masks)) == misses


def test_refute_below_pg62_k3():
    # an open q = 2 case of the paper, settled here: in PG(6,2) no set below
    # 15 blocks the 3-spaces, and at 15 the search finds the points of a
    # 3-space, a (15, 0) set, whose dual set blocks the 2-spaces
    ctx = GeometryContext(Field(2), 6)
    assert minimum_size_bound(6, 3, 2) == OPEN
    docs = [refute_below(ctx, 3, 15, workers=w).to_dict() for w in (1, 2)]
    assert docs[0] == docs[1]
    assert docs[0]["refuted"] and docs[0]["nodes_expanded"] == 1417
    assert [(c["points"], c["hyperplanes"], c["nodes"]) for c in docs[0]["compositions"]
            if c["method"] == "search"] \
        == [(6, 8, 80), (7, 7, 283), (8, 6, 348), (9, 5, 353), (10, 4, 353)]
    report = refute_below(ctx, 3, 16)
    assert not report.refuted
    bset = BlockingSet(ctx, 3, report.counterexample)
    assert _composition(ctx, bset.ids) == (15, 0)
    assert ctx.span(*bset.points).dim == 3
    assert is_blocking(bset)[0]
    assert is_blocking(dual_set(bset))[0] and dual_set(bset).k == 2


@pytest.mark.parametrize("target", [6, 7])
def test_refute_below_pg32_worker_independent(pg32, target):
    docs = [refute_below(pg32, 1, target, workers=w).to_dict() for w in (1, 2)]
    assert docs[0] == docs[1]
    assert docs[0]["refuted"] == (target == 6)


def test_classify_pg23(pg23):
    for k, family_size in ((0, 13), (1, 13)):
        verdict = classify_minimum(pg23, k)
        assert verdict.expected_bound == 4
        assert verdict.observed_minimum == 4
        assert verdict.all_minima_match_theorem
        assert verdict.minima_count == family_size
        assert verdict.mismatches == ()
        assert verdict.method == "search"


def test_classify_pg32_middle(pg32):
    verdict = classify_minimum(pg32, 1)
    assert verdict.expected_bound == 6
    assert verdict.observed_minimum == 6
    assert verdict.all_minima_match_theorem
    assert verdict.minima_count == 210


def test_classify_open_case(pg22):
    verdict = classify_minimum(pg22, 1)  # q=2, n=2: k = n/2 is excluded
    assert verdict.expected_bound == OPEN
    assert verdict.observed_minimum == 3
    assert verdict.all_minima_match_theorem is True  # vacuous for open cases


def test_classify_lists_minima_missing_from_family(pg23, monkeypatch):
    sets, tuples = constructions.theorem_family(pg23, 1)
    missing = sets[5]
    monkeypatch.setattr(constructions, "theorem_family",
                        lambda ctx, k: (sets[:5] + sets[6:], tuples - 1))
    verdict = classify_minimum(pg23, 1)
    assert verdict.observed_minimum == 4 and verdict.minima_count == 13
    assert verdict.mismatches == (missing,)
    assert verdict.all_minima_match_theorem is False


def test_classify_middle_case_lists_unrecognized_minima(pg32, monkeypatch):
    sets, _ = constructions.theorem_family(pg32, 1)
    missing = sets[7]
    recognize = constructions.recognize_pencil_partition
    monkeypatch.setattr(constructions, "recognize_pencil_partition",
                        lambda bset: None if bset.ids == missing
                        else recognize(bset))
    verdict = classify_minimum(pg32, 1)
    assert verdict.observed_minimum == 6 and verdict.minima_count == 210
    assert verdict.mismatches == (missing,)
    assert verdict.all_minima_match_theorem is False


def test_classify_below_the_bound(pg32):
    # a cap below the minimum finds nothing, which is no match
    verdict = classify_minimum(pg32, 1, size_cap=5)
    assert verdict.observed_minimum is None and verdict.minima_count == 0
    assert verdict.all_minima_match_theorem is False and verdict.mismatches == ()


def test_classify_fallback_path(pg32):
    # force the budget failure; the middle-case fallback must still decide
    verdict = classify_minimum(pg32, 1, budget_seconds=0.0)
    assert verdict.method == "fallback"
    assert verdict.observed_minimum == 6
    assert verdict.fallback is not None
    assert verdict.fallback.all_blocking
    assert verdict.fallback.refutation.refuted
    assert verdict.all_minima_match_theorem is None


def test_classify_pg52_low_case():
    ctx = GeometryContext(Field(2), 5)
    verdict = classify_minimum(ctx, 1)  # k < (n-1)/2: hyperplane pencils win
    assert verdict.expected_bound == 7
    assert verdict.observed_minimum == 7
    assert verdict.all_minima_match_theorem
    assert verdict.minima_count == gaussian(6, 3, 2)  # one per (n-k-2)-space


def test_report_serialization(pg22):
    report = min_blocking_search(pg22, 1, 3)
    doc = report.to_dict()
    assert doc["minimum_size"] == 3
    assert "wall_time" in doc and "wall_time" not in report.canonical_dict()
    rebuilt = [BlockingSet(pg22, 1, ids) for ids in report.minimum_sets]
    assert all(is_blocking(b)[0] for b in rebuilt)


def _payload_digest(doc):
    """A digest of the sorted-key JSON of a payload, without its wall times."""
    doc = {key: value for key, value in doc.items() if key != "wall_time"}
    if doc.get("report"):
        doc["report"] = {key: value for key, value in doc["report"].items()
                         if key != "wall_time"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind,digest", [
    ("search", "152f8dfe0b5044bc"),
    ("classify", "549e264e596a171a"),
    ("fallback", "fbfdf505fc20ac8d"),
    ("refute", "cf57acad8c3358df"),
], ids=("search", "classify", "fallback", "refute"))
def test_serialized_payloads_pinned(pg32, pg32_minima, kind, digest):
    # the to_dict payloads of PG(3,2) k=1, byte for byte
    build = {
        "search": lambda: pg32_minima,
        "classify": lambda: classify_minimum(pg32, 1),
        "fallback": lambda: classify_minimum(pg32, 1, budget_seconds=0),
        "refute": lambda: refute_below(pg32, 1, 6),
    }[kind]
    assert _payload_digest(build().to_dict()) == digest


def _scribble(doc):
    """Overwrite every value of every dict inside a payload, innermost first."""
    for value in doc.values() if isinstance(doc, dict) else doc:
        if isinstance(value, (dict, tuple)):
            _scribble(value)
    if isinstance(doc, dict):
        doc.update(dict.fromkeys(doc, "edited"))


@pytest.mark.parametrize("kind", ["classify", "fallback", "refute"])
def test_payloads_are_independent_of_the_report(pg32, kind):
    # a payload shares only immutable values with its report: editing every
    # dict in it, top-level and nested, changes neither the report nor the
    # next payload
    report = {
        "classify": lambda: classify_minimum(pg32, 1),
        "fallback": lambda: classify_minimum(pg32, 1, budget_seconds=0),
        "refute": lambda: refute_below(pg32, 1, 7),
    }[kind]()

    def payloads():
        docs = [report.to_dict()]
        if kind == "classify":
            docs.append(report.report.canonical_dict())
        return docs

    snapshot = copy.deepcopy(report)
    docs = payloads()
    expected = copy.deepcopy(docs)
    for doc in docs:
        _scribble(doc)
    assert docs != expected
    assert report == snapshot
    assert payloads() == expected
