"""Each input guard fires on the input it names, with its message."""

import pytest

from pgblock.blocking import BlockingSet, pinned_hyperplanes, skew_space_profile, tangent_closure
from pgblock.cli import main
from pgblock.constructions import (PencilPartitionParams, bose_burton, canonical_anchor,
                                   canonical_pencil_partition, pencil, pencil_partition)
from pgblock.counting import (gaussian, heger_nagy_upper_bound, metsch_lower_bound,
                              minimum_size_bound, theta)
from pgblock.gf import Field, InputError, field_for_order
from pgblock.pgkernel import BudgetExceeded, GeometryContext
from pgblock.search import min_blocking_search, refute_below

PG22 = GeometryContext(Field(2), 2)
PG32 = GeometryContext(Field(2), 3)
PARAMS = canonical_pencil_partition(PG32, 1)
PENCIL_SET = pencil_partition(PG32, PARAMS)
LINE = PG32.subspaces(1)[0]
OFF_HULL = next(p for p in PG32.points() if not PG32.contains(PARAMS.hull, p))

GUARDS = {
    "field-disagrees-with-q": (
        lambda: BlockingSet.from_dict({"q": 3, "n": 3, "k": 1, "field": Field(2).to_dict()}),
        InputError, "q = 3 disagrees with field of order 2"),
    "empty-tangent-closure": (
        lambda: tangent_closure(PG32, []),
        InputError, "tangent closure needs a nonempty point set"),
    "flat-dimension": (
        lambda: skew_space_profile(PENCIL_SET, LINE),
        InputError, "flat must have dimension k-1 = 0"),
    "hull-dimension": (
        lambda: pinned_hyperplanes(PENCIL_SET, LINE, OFF_HULL),
        InputError, r"hull must have dimension k\+1 = 2"),
    "pin-off-hull": (
        lambda: pinned_hyperplanes(PENCIL_SET, PARAMS.hull, OFF_HULL),
        InputError, "is not on the hull"),
    "not-a-pencil": (
        lambda: pencil(PG32, PARAMS.axis, LINE),
        InputError, "axis dim 0 / hull dim 1 do not form a pencil"),
    "pencil-partition-dimensions": (
        lambda: pencil_partition(PG32, PencilPartitionParams(
            LINE, canonical_anchor(PG32, -1), PARAMS.point_spaces, PARAMS.hyperplane_spaces)),
        InputError, "need hull dim k\\+1 and axis dim k-1 with n = 2k\\+1; "
                    "got hull 1, axis -1, n 3"),
    "t-out-of-range": (
        lambda: canonical_pencil_partition(PG32, 1, 0),
        InputError, "need 1 <= t <= q, got t=0"),
    "hyperplane-anchor": (
        lambda: bose_burton(PG32, 1, "hyperplanes", LINE),
        InputError, "hyperplanes variant needs anchor dim n-k-2 = 0, got 1"),
    "anchor-dimension": (
        lambda: canonical_anchor(PG32, 4),
        InputError, r"no subspace of dimension 4 in PG\(3,2\)"),
    "field-exponent": (
        lambda: Field(2, 0),
        InputError, "exponent e = 0 must be >= 1"),
    "projective-dimension": (
        lambda: GeometryContext(Field(2), 0),
        InputError, "projective dimension n = 0 must be >= 1"),
    "zero-vector-index": (
        lambda: PG32.point_index((0, 0, 0, 0)),
        InputError, "the zero vector is not a projective point"),
    "enumeration-budget": (
        lambda: GeometryContext(Field(2), 27).points(),
        BudgetExceeded, "268435455 points exceed the enumeration budget"),
    "span-of-non-subspace": (
        lambda: PG32.span(5),
        InputError, "expected Point or Subspace, got int"),
    "span-of-foreign-part": (
        lambda: PG32.span(PG22.point(0)),
        InputError, "part does not live in this geometry"),
    "contains-foreign-operand": (
        lambda: PG32.contains(PG32.whole_space(), PG22.point(0)),
        InputError, "operand does not live in this geometry"),
    "search-mode": (
        lambda: min_blocking_search(PG32, 1, 6, mode="dfs"),
        InputError, "unknown mode 'dfs'"),
    "bound-k-float": (
        lambda: minimum_size_bound(3, 1.0, 2),
        InputError, "k must be an integer, got 1.0"),
    "blocking-set-k-float": (
        lambda: BlockingSet(PG32, 1.0, PENCIL_SET.ids),
        InputError, "k must be an integer, got 1.0"),
    "blocking-set-float-ordinal": (
        lambda: BlockingSet(PG32, 1, [0.0, 5]),
        InputError, "element ordinals must be integers, got 0.0"),
    "blocking-set-bool-ordinal": (
        lambda: BlockingSet(PG32, 1, [True, 5]),
        InputError, "element ordinals must be integers, got True"),
    "blocking-set-string-ordinal": (
        lambda: BlockingSet(PG32, 1, ["1", 5]),
        InputError, "element ordinals must be integers, got '1'"),
    "search-k-float": (
        lambda: min_blocking_search(PG32, 1.0, 6),
        InputError, "k must be an integer, got 1.0"),
    "projective-dimension-float": (
        lambda: GeometryContext(Field(2), 3.0),
        InputError, "projective dimension n must be an integer, got 3.0"),
    "search-cap-float": (
        lambda: min_blocking_search(PG32, 1, 6.5),
        InputError, "size_cap must be an integer, got 6.5"),
    "search-workers-float": (
        lambda: min_blocking_search(PG32, 1, 6, workers=1.5),
        InputError, "workers must be an integer, got 1.5"),
    "refutation-target-float": (
        lambda: refute_below(PG32, 1, 6.5),
        InputError, "target must be an integer, got 6.5"),
    "budget-string": (
        lambda: min_blocking_search(PG32, 1, 6, budget_seconds="1"),
        InputError, "need a budget that is a number, got budget_seconds=1"),
    "budget-bool": (
        lambda: refute_below(PG32, 1, 7, budget_seconds=True),
        InputError, "need a budget that is a number, got budget_seconds=True"),
    "point-float-coordinate": (
        lambda: PG32.point((1.5, 0, 0, 0)),
        InputError, "coordinate must be an integer, got 1.5"),
    "point-string": (
        lambda: PG32.point("0001"),
        InputError, "point ordinal must be an integer, got '0001'"),
    "point-bool": (
        lambda: PG32.point(True),
        InputError, "point ordinal must be an integer, got True"),
    "point-float": (
        lambda: PG32.point(1.0),
        InputError, "point ordinal must be an integer, got 1.0"),
    "hyperplane-bool": (
        lambda: PG32.hyperplane(True),
        InputError, "point ordinal must be an integer, got True"),
    "anchor-bool": (
        lambda: canonical_anchor(PG32, True),
        InputError, "dim must be an integer, got True"),
    "anchor-float": (
        lambda: canonical_anchor(PG32, 1.0),
        InputError, "dim must be an integer, got 1.0"),
    "t-bool": (
        lambda: canonical_pencil_partition(PG32, 1, t=True),
        InputError, "t must be an integer, got True"),
    "t-float": (
        lambda: canonical_pencil_partition(PG32, 1, t=1.0),
        InputError, "t must be an integer, got 1.0"),
    "theta-float": (
        lambda: theta(1.5, 2),
        InputError, "m must be an integer, got 1.5"),
    "gaussian-float": (
        lambda: gaussian(4.0, 2, 2),
        InputError, "a must be an integer, got 4.0"),
    "bound-q-float": (
        lambda: minimum_size_bound(3, 1, 3.0),
        InputError, "q must be an integer, got 3.0"),
    "metsch-size-float": (
        lambda: metsch_lower_bound(3, 2, 1, 1, 2.5),
        InputError, "b_size must be an integer, got 2.5"),
    "heger-nagy-q-float": (
        lambda: heger_nagy_upper_bound(4, 2, 3.0),
        InputError, "q must be an integer, got 3.0"),
    "field-order-float": (
        lambda: field_for_order(4.0),
        InputError, "q must be an integer, got 4.0"),
    "field-exponent-bool": (
        lambda: Field(2, True),
        InputError, "exponent e must be an integer, got True"),
    "hull-dim-too-high": (
        lambda: PG32.hull([PG32.point(0)], 5),
        InputError, r"no subspace of dimension 5 in PG\(3,2\)"),
    "hull-dim-bool": (
        lambda: PG32.hull([PG32.point(0)], True),
        InputError, "dim must be an integer, got True"),
    "hull-dim-float": (
        lambda: PG32.hull([PG32.point(0)], 1.5),
        InputError, "dim must be an integer, got 1.5"),
}


@pytest.mark.parametrize("call,error,message", GUARDS.values(), ids=GUARDS.keys())
def test_input_guard(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_construct_q2_even_needs_half_k(capsys):
    assert main(["construct", "--q", "2", "--n", "4", "--k", "1", "--kind", "q2-even"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "q2-even needs k = n/2 = 2, got 1" in captured.err
