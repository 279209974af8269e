import random
from fractions import Fraction
from itertools import combinations

import pytest

from pgblock.blocking import BlockingSet, candidates, unblocked_count
from pgblock.counting import (OPEN, HypothesisViolated,
                              fraction_decimal_upper, gaussian, heger_nagy_bracket,
                              heger_nagy_upper_bound, metsch_dual_lower_bound,
                              metsch_lower_bound, minimum_size_bound, theta)
from pgblock.gf import InputError

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]


def test_gaussian_examples(pg33):
    assert gaussian(4, 2, 2) == 35
    assert gaussian(3, 5, 2) == 0
    assert gaussian(5, -1, 3) == 0
    assert gaussian(4, 2, 3) == 130
    assert gaussian(4, 2, 3) == len(pg33.subspaces(1))  # direct line count


def test_gaussian_invalid_q():
    with pytest.raises(InputError, match="q = 6 is not a prime power >= 2"):
        gaussian(4, 2, 6)
    with pytest.raises(InputError, match="q = 1 is not a prime power >= 2"):
        theta(2, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_q_pascal_recurrences(q):
    for a in range(1, 13):
        for b in range(0, a + 1):
            assert gaussian(a, b, q) == \
                q ** b * gaussian(a - 1, b, q) + gaussian(a - 1, b - 1, q)
            assert gaussian(a, b, q) == \
                gaussian(a - 1, b, q) + q ** (a - b) * gaussian(a - 1, b - 1, q)


def test_theta_examples():
    assert theta(2, 2) == 7
    assert theta(-1, 5) == 0
    assert theta(3, 3) == 40


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_theta_is_gaussian_column(q):
    for m in range(-1, 13):
        assert theta(m, q) == gaussian(m + 1, 1, q)


def test_metsch_examples():
    assert metsch_lower_bound(3, 2, 1, 1, 0) == 34
    assert metsch_lower_bound(3, 2, 1, 1, 3) == 16
    with pytest.raises(HypothesisViolated, match=r"need 0 <= \|B\| <= theta_1 = 3, got 4"):
        metsch_lower_bound(3, 2, 1, 1, 4)  # 4 > theta_1 = 3
    with pytest.raises(HypothesisViolated, match=r"need d, s >= 0 and n >= d \+ s, got n=1"):
        metsch_lower_bound(1, 2, 1, 1, 0)  # n < d + s


def test_metsch_versus_enumeration_pg32(pg32):
    """Exhaustive |B| <= theta_1 = 3 point sets against the skew-space count."""
    pts = pg32.points()
    for size in range(4):
        for combo in combinations(range(len(pts)), size):
            bset = BlockingSet.from_elements(pg32, 1, frozenset(pts[i] for i in combo), frozenset())
            for s in (0, 1, 2):
                actual = unblocked_count(bset, s)
                assert actual >= metsch_lower_bound(3, 2, 1, s, size)


def test_metsch_equality_at_full_line(pg32):
    line = pg32.subspaces(1)[0]
    bset = BlockingSet.from_elements(pg32, 1, frozenset(pg32.subspace_points(line)), frozenset())
    assert unblocked_count(bset, 1) == 16 == metsch_lower_bound(3, 2, 1, 1, 3)


def test_metsch_dual_example(pg32):
    bound = metsch_dual_lower_bound(3, 2, 2, 1, 0)
    empty = BlockingSet.from_elements(pg32, 1, frozenset(), frozenset())
    assert unblocked_count(empty, 1) == 35 >= bound


def test_metsch_dual_is_dual_of_metsch():
    for q in (2, 3):
        for n in (2, 3, 4):
            for d in range(0, n + 1):
                for s in range(max(d - 1, 0), n):
                    if n < d + (n - 1 - s):
                        continue
                    for b in (0, 1, theta(d, q)):
                        assert metsch_dual_lower_bound(n, q, d, s, b) == \
                            metsch_lower_bound(n, q, d, n - 1 - s, b)


def test_metsch_dual_against_dualized_set(pg32, pg33, pg42):
    """The dual bound against hyperplane sets counted by brute force: random
    sets of up to theta_d hyperplanes satisfy it, and the theta_d hyperplanes
    through an (n-d-1)-space meet it with equality."""
    rng = random.Random(11)
    equalities = 0
    for ctx in (pg32, pg33, pg42):
        n, q, half = ctx.n, ctx.q, ctx.num_points
        for d in range(n):
            for _ in range(3):
                size = rng.randrange(0, theta(d, q) + 1)
                bset = BlockingSet(ctx, 0, [half + u for u in rng.sample(range(half), size)])
                for s in range(max(d - 1, 0), n):
                    assert unblocked_count(bset, s) >= metsch_dual_lower_bound(n, q, d, s, size)
            anchor = rng.choice(ctx.subspaces(n - d - 1))
            through = BlockingSet(ctx, 0, [u for u in candidates(ctx, anchor) if u >= half])
            assert through.size == theta(d, q)
            for s in range(max(d - 1, 0), n):
                assert unblocked_count(through, s) == \
                    metsch_dual_lower_bound(n, q, d, s, through.size)
                equalities += 1
    assert equalities == 29


@pytest.mark.parametrize("k,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 4)])
def test_metsch_dual_specialization_in_hull(k, q):
    # d = 1, s = 0 inside a (k+1)-dimensional ambient: (q + 1 - b) * q^k
    for b in range(0, q + 2):
        assert metsch_dual_lower_bound(k + 1, q, 1, 0, b) == (q + 1 - b) * q ** k


def test_heger_nagy_examples():
    lo3, hi3 = heger_nagy_bracket(4, 2, 3)
    assert gaussian(4, 2, 3) == 130 < lo3
    assert abs(float(hi3) - 220.2) < 0.1
    lo2, hi2 = heger_nagy_bracket(4, 2, 2)
    assert gaussian(4, 2, 2) == 35 < lo2
    assert abs(float(hi2) - 62.3) < 0.1
    assert heger_nagy_upper_bound(4, 2, 3) == hi3
    with pytest.raises(InputError, match="q = 6 is not a prime power >= 2"):
        heger_nagy_upper_bound(4, 2, 6)


@pytest.mark.parametrize("a,b", [(1, 2), (3, -1), (0, 1), (-1, 0)])
def test_heger_nagy_rejects_b_outside_0_a(a, b):
    with pytest.raises(InputError, match=f"need 0 <= b <= a, got a={a}, b={b}"):
        heger_nagy_bracket(a, b, 3)


def test_heger_nagy_bracket_is_tight():
    lo, hi = heger_nagy_bracket(6, 3, 2)
    assert lo < hi
    assert (hi - lo) / hi < Fraction(1, 10 ** 20)


def test_minimum_size_bound_cases():
    assert minimum_size_bound(3, 1, 2) == 6        # middle: (q+1) q^k
    assert minimum_size_bound(5, 1, 2) == 7        # below: theta_{k+1}
    assert minimum_size_bound(5, 3, 2) == 7        # above: theta_{n-k}
    assert minimum_size_bound(4, 2, 2) == OPEN     # excluded q=2 case
    assert minimum_size_bound(4, 1, 2) == OPEN
    assert minimum_size_bound(4, 2, 3) == 13       # same shape, q=3 is decided
    with pytest.raises(ValueError):
        minimum_size_bound(3, 3, 2)


def test_minimum_size_bound_duality():
    for q in (2, 3, 4, 5):
        for n in range(2, 10):
            for k in range(0, n):
                assert minimum_size_bound(n, k, q) == \
                    minimum_size_bound(n, n - 1 - k, q)


def test_fraction_decimal_upper():
    assert fraction_decimal_upper(Fraction(1, 3), 4) == "0.3334"
    assert fraction_decimal_upper(Fraction(5, 4), 2) == "1.25"
