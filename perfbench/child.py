"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/child.py '{"workload": ..., "mode": ..., "input": ...}'

Modes: "run" (set-up, then the workload untraced), "setup" (set-up only),
"trace" (the workload with every public pgblock function wrapped, reporting
per-layer figures) and "micro" (the kernel micro timings). The last line of
stdout is one JSON object; the workload's own stdout is captured. A failed
check or an exception is reported in that object, not raised.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import micro  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _cpu_seconds() -> float:
    """User plus system time of this process and of its finished children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(tracer: Tracer, wl, result) -> dict:
    """Per-layer figures from the trace, plus the counts the result carries."""
    t = tracer
    report = getattr(result, "report", None)
    refutation = getattr(result, "refutation", None)
    nodes = report.nodes_expanded if report else 0
    bnb_s = t.seconds("search.min_blocking_search")
    recognize_calls = t.count("constructions.recognize_pencil_partition")
    recognize_s = t.seconds("constructions.recognize_pencil_partition")
    outcomes = refutation.compositions if refutation else ()
    metsch = ("counting.metsch_lower_bound", "counting.metsch_dual_lower_bound")
    return {
        "search.bnb_s": bnb_s,
        "search.nodes": nodes,
        "search.pruned": report.pruned if report else 0,
        "search.us_per_node": bnb_s / nodes * 1e6 if nodes else 0.0,
        "search.leaf_yield": len(report.minimum_sets) / nodes if nodes else 0.0,
        "search.refute_s": t.seconds("search.refute_below"),
        "search.refute_nodes": refutation.nodes_expanded if refutation else 0,
        "search.compositions_searched": sum(c.method == "search" for c in outcomes),
        "search.compositions_by_bound": sum(c.method == "counting-bound" for c in outcomes),
        "search.self_s": t.module_self("search"),
        "constructions.recognize_calls": recognize_calls,
        "constructions.recognize_s": recognize_s,
        "constructions.recognize_ms_per_set":
            recognize_s / recognize_calls * 1e3 if recognize_calls else 0.0,
        "constructions.enumerate_s": t.seconds("constructions.distinct_pencil_partition_sets"),
        "constructions.param_tuples": getattr(result, "parameter_tuples", 0),
        "constructions.self_s": t.module_self("constructions"),
        "blocking.incidence_builds": t.distinct_results("blocking.incidence"),
        "blocking.incidence_s": t.seconds("blocking.incidence"),
        "blocking.is_blocking_calls": t.count("blocking.is_blocking"),
        "blocking.is_blocking_s": t.seconds("blocking.is_blocking"),
        "blocking.skew_profile_calls": t.count("blocking.skew_space_profile"),
        "blocking.skew_profile_s": t.seconds("blocking.skew_space_profile"),
        "blocking.tangent_closure_s": t.seconds("blocking.tangent_closure"),
        "blocking.pinned_s": t.seconds("blocking.pinned_hyperplanes"),
        "blocking.self_s": t.module_self("blocking"),
        "pgkernel.contains_calls": t.count("pgkernel.GeometryContext.contains"),
        "pgkernel.contains_s": t.seconds("pgkernel.GeometryContext.contains"),
        "pgkernel.span_calls": t.count("pgkernel.GeometryContext.span"),
        "pgkernel.meet_calls": t.count("pgkernel.GeometryContext.meet"),
        "pgkernel.subspace_points_calls": t.count("pgkernel.GeometryContext.subspace_points"),
        "pgkernel.subspace_points_s": t.seconds("pgkernel.GeometryContext.subspace_points"),
        "pgkernel.subspaces_s": t.seconds("pgkernel.GeometryContext.subspaces"),
        "pgkernel.self_s": t.module_self("pgkernel"),
        "gf.ops": t.count(*(f"gf.Field.{op}" for op in ("add", "sub", "mul", "neg", "inv"))),
        "counting.bound_calls": t.count(*metsch),
        "counting.bound_s": t.seconds(*metsch),
        "counting.self_s": t.module_self("counting"),
        "cli.self_s": t.module_self("cli"),
    }


def _worker_check(wl, ctx, report) -> tuple[float, list[str]]:
    """Rerun the classify search with one worker: its time, and every way its
    counters or minima differ from the two-worker run."""
    from pgblock import search

    start = time.perf_counter()
    single = search.min_blocking_search(ctx, wl.k, report.size_cap, workers=1)
    elapsed = time.perf_counter() - start
    problems = [f"workers=1 {name} {getattr(single, name)!r} != workers=2 "
                f"{getattr(report, name)!r}"
                for name in ("nodes_expanded", "pruned", "minimum_size", "minimum_sets")
                if getattr(single, name) != getattr(report, name)]
    return elapsed, problems


def measure(spec: dict) -> dict:
    wl = workloads.WORKLOADS[spec["workload"]]
    mode = spec["mode"]
    if mode == "micro":
        return {"ok": True, "micro": micro.run_all()}
    out = {"ok": False, "problems": []}
    tracer = None
    start = time.perf_counter()
    workloads.import_package()
    if mode == "trace":
        tracer = Tracer().install()
    ctx = workloads.make_context(wl)
    out["setup_s"] = time.perf_counter() - start
    if mode == "setup":
        out["ok"] = True
        return out
    result = None
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        result = workloads.run(wl, ctx, spec.get("input"))
    except Exception:
        out["problems"].append(traceback.format_exc(limit=3))
    out["wall_s"] = time.perf_counter() - start
    out["cpu_s"] = _cpu_seconds() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    if result is not None:
        try:
            out["problems"].extend(workloads.check(wl, result))
            if tracer is not None:
                tracer.remove()
                layers = out["layers"] = layer_metrics(tracer, wl, result)
                out["functions"] = tracer.table()
                layers["search.speedup_w2"] = 0.0
                if wl.kind == "classify":
                    single_s, problems = _worker_check(wl, ctx, result.report)
                    layers["search.speedup_w2"] = single_s / layers["search.bnb_s"]
                    out["problems"].extend(problems)
        except Exception:
            out["problems"].append(traceback.format_exc(limit=3))
    out["ok"] = not out["problems"]
    return out


def main():
    spec = json.loads(sys.argv[1])
    out = measure(spec)
    sys.stdout.flush()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
