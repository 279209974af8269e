"""Command-line front end with stable JSON input/output.

Blocking sets travel as JSON documents:

    {"q": 2, "n": 3, "k": 1,
     "field": {"p": 2, "e": 1, "modulus": [0, 1]},
     "points": [[0, 0, 1, 1], ...],
     "hyperplanes": [[1, 0, 0, 0], ...]}

Points are arrays of field codes, normalized so the leftmost nonzero
coordinate is 1 (unnormalized input is accepted, normalized, and noted on
stderr).  Hyperplanes are given by their dual coordinate vector a, meaning
the hyperplane {x : sum a_i x_i = 0}.  Exact bound values are rendered as
decimal strings so they survive 64-bit JSON consumers.

Exit codes: 0 computed and any checked property holds; 1 computed and the
property fails; 2 invalid input, meaning an `InputError`: malformed,
unreadable or out-of-range input; 3 enumeration or time budget exceeded.
Any other exception is a bug and surfaces as a traceback.  All diagnostics
go to stderr, stdout carries only JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import blocking, constructions, search
from .blocking import BlockingSet
from .counting import (BoundReport, gaussian, heger_nagy_upper_bound,
                       metsch_dual_lower_bound, metsch_lower_bound,
                       minimum_size_bound, theta)
from .gf import InputError, field_for_order, json_list, json_object, required
from .pgkernel import BudgetExceeded, GeometryContext

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3


def _emit(payload: dict):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _warn(message: str):
    print(f"pgblock: {message}", file=sys.stderr)


def _read_json(path: str):
    """The JSON document at path (- for stdin); an unreadable file or text
    that is not JSON is an InputError."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(str(exc)) from exc


def _read_blocking_set(path: str) -> BlockingSet:
    return BlockingSet.from_dict(_read_json(path), warn=_warn)


def _context(args) -> GeometryContext:
    return GeometryContext(field_for_order(args.q), args.n)


def _element_json(ctx: GeometryContext, element) -> dict:
    if hasattr(element, "coords"):
        return {"type": "point", "coords": list(element.coords)}
    dual = ctx.hyperplane_dual_point(element)
    return {"type": "hyperplane", "dual": list(dual.coords)}


# -- subcommands ---------------------------------------------------------------


def _cmd_verify(args) -> int:
    bset = _read_blocking_set(args.input)
    ok, witness = blocking.is_blocking(bset)
    payload = {"blocking": ok}
    if witness is not None:
        payload["witness"] = witness.to_dict()
    _emit(payload)
    return EXIT_OK if ok else EXIT_PROPERTY_FAILS


def _cmd_minimal(args) -> int:
    bset = _read_blocking_set(args.input)
    ok, removable = blocking.is_minimal(bset)
    payload = {"minimal": ok}
    if removable is not None:
        payload["removable"] = _element_json(bset.ctx, removable)
    _emit(payload)
    return EXIT_OK if ok else EXIT_PROPERTY_FAILS


def _cmd_dual(args) -> int:
    bset = _read_blocking_set(args.input)
    _emit(blocking.dual_set(bset).to_dict())
    return EXIT_OK


def _cmd_construct(args) -> int:
    ctx = _context(args)
    doc = None
    if args.params:
        doc = json_object(_read_json(args.params), "params document")

    def space(rows, what):
        """The subspace spanned by a JSON array of coordinate arrays."""
        return ctx.subspace([json_list(row, f"{what} row") for row in json_list(rows, what)])

    if args.kind == "pencil-partition":
        if doc is not None:
            hull = space(required(doc, "hull"), "hull")
            axis = space(required(doc, "axis"), "axis")
            members = constructions.pencil(ctx, axis, hull)
            point_part = frozenset(
                space(rows, "point space")
                for rows in json_list(required(doc, "point_spaces"), "point_spaces"))
            hyp_part = frozenset(members) - point_part
            params = constructions.PencilPartitionParams(hull, axis, point_part, hyp_part)
        else:
            params = constructions.canonical_pencil_partition(ctx, args.k, args.t)
        bset = constructions.pencil_partition(ctx, params)
    elif args.kind == "bose-burton-points":
        anchor = (space(required(doc, "anchor"), "anchor") if doc is not None
                  else constructions.canonical_anchor(ctx, ctx.n - args.k))
        bset = constructions.bose_burton(ctx, args.k, "points", anchor)
    elif args.kind == "bose-burton-hyperplanes":
        anchor = (space(required(doc, "anchor"), "anchor") if doc is not None
                  else constructions.canonical_anchor(ctx, ctx.n - args.k - 2))
        bset = constructions.bose_burton(ctx, args.k, "hyperplanes", anchor)
    else:  # q2-even; argparse admits no other kind
        if args.k != ctx.n // 2:
            raise InputError(f"q2-even needs k = n/2 = {ctx.n // 2}, got {args.k}")
        bset = constructions.q2_even_mixed_set(ctx)
    _emit(bset.to_dict())
    return EXIT_OK


# formula -> (report name, function, argument names in call order)
_FORMULAS = {
    "main-theorem": ("main_theorem_bound", minimum_size_bound, ("n", "k", "q")),
    "gaussian": ("gaussian", gaussian, ("a", "b", "q")),
    "theta": ("theta", theta, ("m", "q")),
    "metsch": ("metsch_lower_bound", metsch_lower_bound,
               ("n", "q", "d", "s", "b_size")),
    "metsch-dual": ("metsch_dual_lower_bound", metsch_dual_lower_bound,
                    ("n", "q", "d", "s", "b_size")),
    "heger-nagy": ("heger_nagy_upper_bound", heger_nagy_upper_bound, ("a", "b", "q")),
}


def _cmd_bounds(args) -> int:
    name, formula, arg_names = _FORMULAS[args.formula]
    missing = [f"--{a.replace('_', '-')}" for a in arg_names if getattr(args, a) is None]
    if missing:
        raise InputError(f"--formula {args.formula} needs {', '.join(missing)}")
    params = {a: getattr(args, a) for a in arg_names}
    value = formula(*params.values())
    comparison = None
    if args.formula == "heger-nagy":
        actual = gaussian(args.a, args.b, args.q)
        comparison = (actual, actual < value)
    _emit(BoundReport(name, params, value, comparison).to_dict())
    return EXIT_OK


def _cmd_search(args) -> int:
    ctx = _context(args)
    report = search.min_blocking_search(ctx, args.k, args.cap, mode=args.mode,
                                        workers=args.workers,
                                        budget_seconds=args.budget_seconds)
    _emit(report.to_dict())
    return EXIT_OK


def _cmd_classify(args) -> int:
    ctx = _context(args)
    verdict = search.classify_minimum(ctx, args.k, size_cap=args.cap,
                                      mode=args.mode, workers=args.workers,
                                      budget_seconds=args.budget_seconds)
    _emit(verdict.to_dict())
    if verdict.all_minima_match_theorem is False:
        return EXIT_PROPERTY_FAILS
    if verdict.method == "fallback" and verdict.observed_minimum is None:
        return EXIT_PROPERTY_FAILS
    return EXIT_OK


def _cmd_lemma_check(args) -> int:
    bset = _read_blocking_set(args.input)
    checks = blocking.lemma_checks(bset)
    all_ok = all(c["pass"] for c in checks.values())
    _emit({"checks": checks, "all_pass": all_ok})
    return EXIT_OK if all_ok else EXIT_PROPERTY_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgblock",
        description="Exact workbench for mixed blocking sets in PG(n, q)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_geometry(p):
        p.add_argument("--q", type=int, required=True, help="field order (prime power)")
        p.add_argument("--n", type=int, required=True, help="projective dimension")
        p.add_argument("--k", type=int, required=True, help="dimension being blocked")

    def add_search_flags(p):
        p.add_argument("--mode", choices=("branch_and_bound", "exhaustive"),
                       default="branch_and_bound")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--budget-seconds", type=float, default=None,
                       help="wall-clock budget")

    p = sub.add_parser("verify", help="check the blocking property")
    p.add_argument("input", help="blocking-set JSON path, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("minimal", help="check minimality of a blocking set")
    p.add_argument("input")
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("dual", help="emit the dual blocking set")
    p.add_argument("input")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("construct", help="emit a construction instance")
    add_geometry(p)
    p.add_argument("--kind", default="pencil-partition",
                   choices=("pencil-partition", "bose-burton-points",
                            "bose-burton-hyperplanes", "q2-even"))
    p.add_argument("--t", type=int, default=1,
                   help="pencil members contributing points (1 <= t <= q)")
    p.add_argument("--params", default=None,
                   help="JSON file with explicit subspace bases")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bounds", help="evaluate a bound formula exactly")
    p.add_argument("--formula", default="main-theorem",
                   choices=tuple(_FORMULAS))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--b-size", type=int, default=0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="find all minimum blocking sets up to a cap")
    add_geometry(p)
    p.add_argument("--cap", type=int, required=True)
    add_search_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("classify", help="search and compare with the classification")
    add_geometry(p)
    p.add_argument("--cap", type=int, default=None)
    add_search_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lemma-check", help="equality-case diagnostics for a set")
    p.add_argument("input")
    p.set_defaults(func=_cmd_lemma_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        _warn(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except InputError as exc:
        _warn(f"invalid input: {exc}")
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
