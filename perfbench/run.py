"""The pgblock benchmark driver.

    python3 perfbench/run.py --workload classify_pg33 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pgblock is imported from ./src.
Closed loop, one client: each timed run is a fresh interpreter that sets up,
runs the workload once to completion and exits, and the next starts only
then, while one more run of the same length still ends within --seconds (at
least one run). Set-up-only interpreters run before and after, so that setup_s
is a median of several.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(one untraced run, one traced run, and the kernel micro timings). With no
--workload and no --trace, every benchmark workload runs both ways, which
prints every metric and runs every output check. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_ONLY_RUNS = 12
RUN_LIMIT_S = 170   # every child is killed after this; the driver stays under 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "search.bnb_s": "s", "search.nodes": "count", "search.pruned": "count",
    "search.us_per_node": "us", "search.leaf_yield": "minima/node",
    "search.speedup_w2": "x", "search.refute_s": "s", "search.refute_nodes": "count",
    "search.compositions_searched": "count", "search.compositions_by_bound": "count",
    "search.self_s": "s",
    "constructions.recognize_calls": "count", "constructions.recognize_s": "s",
    "constructions.recognize_ms_per_set": "ms", "constructions.enumerate_s": "s",
    "constructions.param_tuples": "count", "constructions.self_s": "s",
    "blocking.incidence_builds": "count", "blocking.incidence_s": "s",
    "blocking.is_blocking_calls": "count", "blocking.is_blocking_s": "s",
    "blocking.skew_profile_calls": "count", "blocking.skew_profile_s": "s",
    "blocking.tangent_closure_s": "s", "blocking.pinned_s": "s", "blocking.self_s": "s",
    "pgkernel.contains_calls": "count", "pgkernel.contains_s": "s",
    "pgkernel.span_calls": "count", "pgkernel.meet_calls": "count",
    "pgkernel.subspace_points_calls": "count", "pgkernel.subspace_points_s": "s",
    "pgkernel.subspaces_s": "s", "pgkernel.self_s": "s",
    "gf.ops": "count",
    "counting.bound_calls": "count", "counting.bound_s": "s", "counting.self_s": "s",
    "cli.self_s": "s",
    "gf.mul_ns": "ns", "pgkernel.rref_us": "us", "pgkernel.span_us": "us",
    "pgkernel.meet_us": "us", "pgkernel.contains_us": "us",
    "pgkernel.subspace_points_us": "us",
    "trace.overhead_s": "s",
}


class Run:
    """Children started, their results, and the deadline they share."""

    def __init__(self, workload):
        self.workload = workload
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.results = []
        self.functions = []   # the traced run's per-function table

    def child(self, mode, input_path=None) -> dict:
        spec = {"workload": self.workload.name, "mode": mode, "input": input_path}
        env = dict(os.environ, PYTHONPATH=SRC)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                                   json.dumps(spec)],
                                  cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  timeout=timeout, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else \
                {"ok": False, "problems": [f"child exited with code {proc.returncode}"]}
        except subprocess.TimeoutExpired:
            result = {"ok": False, "problems": [f"child killed after {timeout:.0f} s"]}
        result["mode"] = mode
        self.results.append(result)
        for problem in result.get("problems", ()):
            print(f"perfbench: {self.workload.name} {mode}: {problem}", file=sys.stderr)
        return result

    def timed(self):
        """Results of the runs that executed the workload (not set-up only)."""
        return [r for r in self.results if r["mode"] in ("run", "trace")]


def _median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, seconds: float, input_path) -> dict:
    # half the set-up-only runs go before the timed runs and half after, so
    # that setup_s samples the machine at both ends of the run
    for _ in range(SETUP_ONLY_RUNS // 2):
        run.child("setup")
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        result = run.child("run", input_path)
        now = time.monotonic()
        # stop when one more run of the same length would end past --seconds
        if "wall_s" not in result or 2 * now - begun - start > seconds:
            break
    for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2):
        run.child("setup")
    runs = run.timed()
    return {
        "wall_s": _median(runs, "wall_s"),
        "setup_s": _median(run.results, "setup_s"),
        "cpu_s": _median(runs, "cpu_s"),
        "peak_rss_mb": _median(runs, "peak_rss_mb"),
    }


def per_layer(run: Run, input_path) -> dict:
    plain = run.child("run", input_path)
    traced = run.child("trace", input_path)
    micro = run.child("micro")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(traced.get("layers", {}))
    metrics.update(micro.get("micro", {}))
    if "wall_s" in plain and "wall_s" in traced:
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    if "functions" in traced:
        run.functions = traced["functions"]
    return metrics


def environment() -> dict:
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):  # never a repository above ROOT
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg_1m": os.getloadavg()[0], "commit": commit}


def bench_one(name: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    wl = workloads.WORKLOADS[name]
    input_path = workloads.make_input(wl, seed, WORKDIR)
    run = Run(wl)
    if trace:
        metrics = per_layer(run, input_path)
        units = PER_LAYER
    else:
        metrics = end_to_end(run, seconds, input_path)
        units = END_TO_END
    if input_path is not None:
        os.remove(input_path)
    attempted = len(run.results)
    failed = sum(not r["ok"] for r in run.results)
    samples = len(run.timed()) if not trace else 1
    for key, value in metrics.items():
        note = ""
        if key in ("wall_s", "cpu_s", "peak_rss_mb"):
            note = f"  (median of {samples} runs)"
        elif key == "setup_s":
            note = f"  (median of {sum('setup_s' in r for r in run.results)} set-ups)"
        print(f"{name} {key} = {value:.6g} {units[key]}{note}")
    print(f"{name} fail_rate = {failed / attempted if attempted else 1.0:.3g}"
          f"  ({failed} of {attempted})")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "metrics": metrics, "runs": run.results,
              "functions": run.functions}
    os.makedirs(WORKDIR, exist_ok=True)
    with open(os.path.join(WORKDIR, f"{name}-seed{seed}-trace{trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pgblock", "__init__.py")):
        print(f"perfbench: no pgblock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    names = workloads.BENCHMARK_WORKLOADS if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    outcomes = {}
    for name in names:
        for trace in traces:
            outcomes[name, trace] = bench_one(name, args.seed, args.seconds, trace, env)
    if len(outcomes) == 1:
        summary = next(iter(outcomes.values()))
    else:
        summary = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{name}.{key}": value
                        for (name, _), o in outcomes.items()
                        for key, value in o["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
