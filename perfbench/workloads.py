"""Workloads of the pgblock benchmark: inputs, the timed call, the output check.

Importing this module does not import pgblock, so that a child process can
time the package import as part of its set-up.

Three workloads form the benchmark (see README.md for why each was chosen);
three smaller ones on PG(3,2), k=1 exercise the same code paths in a few
seconds and back the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "classify", "fallback" or "lemma"
    q: int
    n: int
    k: int
    expected: dict


def minima_digest(minimum_sets) -> str:
    """Short sha256 of the canonical minimum-set list."""
    text = json.dumps([list(s) for s in minimum_sets], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Expected outputs, recorded at the commit that introduced the benchmark.
WORKLOADS = {w.name: w for w in (
    Workload("classify_pg33", "classify", 3, 3, 1,
             {"minimum": 12, "minima": 4160, "digest": "800471438cabb9c9"}),
    Workload("fallback_pg33", "fallback", 3, 3, 1,
             {"minimum": 12, "param_tuples": 7280, "distinct_sets": 4160}),
    Workload("lemma_pg52", "lemma", 2, 5, 2,
             {"size": 12, "points": 4, "flats_checked": 533, "pins_checked": 11}),
    Workload("classify_pg32", "classify", 2, 3, 1,
             {"minimum": 6, "minima": 210, "digest": "8394311b1b3ff284"}),
    Workload("fallback_pg32", "fallback", 2, 3, 1,
             {"minimum": 6, "param_tuples": 630, "distinct_sets": 210}),
    Workload("lemma_pg32", "lemma", 2, 3, 1,
             {"size": 6, "points": 2, "flats_checked": 13, "pins_checked": 5}),
)}

BENCHMARK_WORKLOADS = ("classify_pg33", "fallback_pg33", "lemma_pg52")


# -- inputs (made by the driver, from the seed) --------------------------------


def _invert_mod_p(matrix, p):
    """Inverse of a square matrix over GF(p), or None when it is singular."""
    size = len(matrix)
    work = [list(row) + [int(i == j) for j in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col] % p), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], p - 2, p)
        work[col] = [x * inv % p for x in work[col]]
        for r in range(size):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[col])]
    return [row[size:] for row in work]


def _apply(matrix, vec, p):
    return [sum(a * x for a, x in zip(row, vec)) % p for row in matrix]


def random_collineation_image(doc: dict, seed: int) -> dict:
    """The blocking-set document moved by a seeded random element of PGL(n+1, p).

    Points map x -> A x and hyperplane duals a -> A^-T a, so every incidence,
    and with it every lemma-check count, is preserved.
    """
    p = doc["q"]
    size = doc["n"] + 1
    rng = random.Random(seed)
    while True:
        matrix = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        inverse = _invert_mod_p(matrix, p)
        if inverse is not None:
            break
    inverse_t = [list(col) for col in zip(*inverse)]
    out = dict(doc)
    out["points"] = sorted(_apply(matrix, x, p) for x in doc["points"])
    out["hyperplanes"] = sorted(_apply(inverse_t, a, p) for a in doc["hyperplanes"])
    return out


def make_input(wl: Workload, seed: int, workdir: str) -> str | None:
    """Write the workload's input file under workdir; None when it takes none.

    The classify and fallback workloads enumerate the whole geometry, so the
    seed does not change them.
    """
    if wl.kind != "lemma":
        return None
    from pgblock import canonical_pencil_partition, pencil_partition
    from pgblock.gf import field_for_order
    from pgblock.pgkernel import GeometryContext

    ctx = GeometryContext(field_for_order(wl.q), wl.n)
    bset = pencil_partition(ctx, canonical_pencil_partition(ctx, wl.k, t=1))
    doc = random_collineation_image(bset.to_dict(), seed)
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{wl.name}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


# -- set-up, the timed call and the check (run in a child process) -------------


def import_package():
    import pgblock  # noqa: F401  (the import is part of set-up)


def make_context(wl: Workload):
    """The geometry plus its k-space incidence, as every workload needs them."""
    from pgblock.blocking import incidence
    from pgblock.gf import field_for_order
    from pgblock.pgkernel import GeometryContext

    ctx = GeometryContext(field_for_order(wl.q), wl.n)
    incidence(ctx, wl.k)
    return ctx


def run(wl: Workload, ctx, input_path: str | None):
    """The timed call. Its result goes to check()."""
    from pgblock import cli, search

    if wl.kind == "classify":
        return search.classify_minimum(ctx, wl.k, workers=2)
    if wl.kind == "fallback":
        return search.verify_middle_case(ctx, wl.k, workers=1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["lemma-check", input_path])
    return code, json.loads(out.getvalue())


def check(wl: Workload, result) -> list[str]:
    """Every way the result differs from the expected output; empty if none."""
    exp = wl.expected
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got!r}, expected {want!r}")

    if wl.kind == "classify":
        expect("method", result.method, "search")
        expect("minimum", result.observed_minimum, exp["minimum"])
        expect("minima", result.minima_count, exp["minima"])
        expect("all_minima_match_theorem", result.all_minima_match_theorem, True)
        expect("digest", minima_digest(result.report.minimum_sets), exp["digest"])
    elif wl.kind == "fallback":
        expect("param_tuples", result.parameter_tuples, exp["param_tuples"])
        expect("distinct_sets", result.distinct_sets, exp["distinct_sets"])
        expect("all_blocking", result.all_blocking, True)
        expect("refuted", result.refutation.refuted, True)
        expect("target", result.refutation.target, exp["minimum"])
    else:
        code, doc = result
        checks = doc["checks"]
        expect("exit code", code, 0)
        expect("all_pass", doc["all_pass"], True)
        for name, entry in sorted(checks.items()):
            expect(f"{name}.pass", entry["pass"], True)
        expect("size", checks["size_bound"]["size"], exp["size"])
        expect("points", checks["point_part_multiple"]["points"], exp["points"])
        expect("flats_checked", checks["skew_cospace_bound"]["flats_checked"],
               exp["flats_checked"])
        expect("pins_checked", checks["pinned_hyperplane_dichotomy"]["pins_checked"],
               exp["pins_checked"])
    return problems
