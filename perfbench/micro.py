"""Micro timings of the field and geometry kernels on fixed PG(3,3) inputs.

Each figure is the median over several repeats of a fixed loop, so a kernel
change shows here before any workload moves.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REPEATS = 7


def _per_call(fn, calls: int, scale: float) -> float:
    """Median time per call of fn() over REPEATS loops of `calls` calls."""
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - start) / calls * scale)
    return statistics.median(samples)


def run_all() -> dict:
    from pgblock.gf import Field
    from pgblock.pgkernel import GeometryContext, rref

    field = Field(3)
    ctx = GeometryContext(field, 3)
    pairs = [(a, b) for a in range(3) for b in range(3)] * 100
    mul = field.mul

    def mul_loop():
        for a, b in pairs:
            mul(a, b)

    rows = ((1, 2, 0, 1), (2, 2, 1, 0), (0, 1, 2, 2))
    p1, p2 = ctx.point((1, 0, 2, 1)), ctx.point((0, 1, 1, 2))
    plane_a, plane_b = ctx.hyperplane((1, 1, 0, 2)), ctx.hyperplane((0, 1, 2, 1))
    line = ctx.span(ctx.point((1, 0, 0, 1)), ctx.point((0, 1, 2, 0)))

    def subspace_points_us():
        # subspace_points caches per context, so each repeat takes a new
        # context and reads every line of it once
        samples = []
        for _ in range(REPEATS):
            fresh = GeometryContext(field, 3)
            lines = fresh.subspaces(1)
            start = perf_counter()
            for ln in lines:
                fresh.subspace_points(ln)
            samples.append((perf_counter() - start) / len(lines) * 1e6)
        return statistics.median(samples)

    return {
        "gf.mul_ns": _per_call(mul_loop, 20, 1e9 / len(pairs)),
        "pgkernel.rref_us": _per_call(lambda: rref(field, rows), 2000, 1e6),
        "pgkernel.span_us": _per_call(lambda: ctx.span(p1, p2), 2000, 1e6),
        "pgkernel.meet_us": _per_call(lambda: ctx.meet(plane_a, plane_b), 1000, 1e6),
        "pgkernel.contains_us": _per_call(lambda: ctx.contains(plane_a, line), 4000, 1e6),
        "pgkernel.subspace_points_us": subspace_points_us(),
    }
