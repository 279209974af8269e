import random

import pytest

from pgblock.gf import (BUILTIN_MODULI, TABLE_LIMIT, Field, InputError, field_for_order,
                        prime_power_parts)

TABLE_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


def test_prime_field_construction():
    f = Field(2)
    assert (f.p, f.e, f.q) == (2, 1, 2)


def test_gf4_explicit_modulus():
    f = Field(2, 2, [1, 1, 1])
    assert f.q == 4
    assert f.mul(2, 2) == 3  # x * x = x + 1


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(InputError, match=r"modulus \(1, 0, 1\) is reducible over GF\(2\)"):
        Field(2, 2, [1, 0, 1])


def test_non_prime_p():
    with pytest.raises(InputError, match="p = 4 is not prime"):
        Field(4)
    with pytest.raises(InputError, match="p = 1 is not prime"):
        Field(1)


def test_no_builtin_modulus():
    with pytest.raises(InputError, match="no built-in irreducible modulus for q = 32"):
        Field(2, 5)  # q = 32 is outside the built-in table


def test_malformed_modulus():
    with pytest.raises(InputError, match="modulus must be monic of degree 2"):
        Field(2, 2, [1, 1])      # wrong degree
    with pytest.raises(InputError, match="modulus must be monic of degree 2"):
        Field(3, 2, [1, 0, 2])   # not monic


@pytest.mark.parametrize("modulus", [[1, 3, 1], [1, -1, 1], [3, 1, 1]],
                         ids=["3", "-1", "constant"])
def test_modulus_coefficient_out_of_range(modulus):
    # each reduces mod 2 to the irreducible x^2 + x + 1, and none is coerced
    with pytest.raises(InputError, match=r"modulus coefficients must lie in \[0, 2\)"):
        Field(2, 2, modulus)


def test_spec_arithmetic_examples():
    assert Field(3).add(2, 2) == 1
    assert Field(3).sub(0, 1) == 2
    assert Field(3).neg(1) == 2
    assert Field(2, 2).mul(2, 2) == 3
    assert Field(5).inv(2) == 3


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError, match="0 has no inverse in GF\\(7\\)"):
        Field(7).inv(0)


def test_elements_order():
    # the codes 0..q-1 are the field: closed under add and mul
    for q in (2, 3, 4):
        f = field_for_order(q)
        elems = set(range(q))
        assert {f.add(a, b) for a in elems for b in elems} == elems
        assert {f.mul(a, b) for a in elems for b in elems} == elems


def assert_axioms(f, elems):
    """The field axioms on every pair and triple drawn from elems."""
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def power(f, a, e):
    out = 1
    for _ in range(e):
        out = f.mul(out, a)
    return out


def assert_frobenius(f, elems):
    """(a + b)^p = a^p + b^p on every pair drawn from elems."""
    for a in elems:
        for b in elems:
            assert power(f, f.add(a, b), f.p) == f.add(power(f, a, f.p), power(f, b, f.p))


@pytest.mark.parametrize("q", TABLE_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_for_order(q)
    assert_axioms(f, range(f.q))


@pytest.mark.parametrize("q", TABLE_ORDERS)
def test_frobenius(q):
    f = field_for_order(q)
    assert_frobenius(f, range(f.q))


@pytest.mark.parametrize("field", [
    Field(29), Field(31), Field(2, 5, [1, 0, 1, 0, 0, 1]), Field(7, 2, [3, 1, 1]),
], ids=["29", "31", "32", "49"])
def test_raw_arithmetic_above_table_limit(field):
    # orders above TABLE_LIMIT build no tables: every operation is computed
    assert field.q > TABLE_LIMIT and field._mul_table is None
    rng = random.Random(field.q)
    elems = [0, 1, field.q - 1] + rng.sample(range(2, field.q - 1), 9)
    assert_axioms(field, elems)
    assert_frobenius(field, elems)
    # the nonzero elements form a group of order q - 1
    assert all(power(field, a, field.q - 1) == 1 for a in elems if a)


def test_builtin_moduli_are_monic_and_used():
    for q, modulus in BUILTIN_MODULI.items():
        f = field_for_order(q)
        assert f.q == q
        assert f.modulus == modulus
        assert modulus[-1] == 1


def test_any_irreducible_modulus_accepted():
    # x^2 + x + 2 is another irreducible quadratic over GF(3)
    f = Field(3, 2, [2, 1, 1])
    assert f.q == 9
    for a in range(1, 9):
        assert f.mul(a, f.inv(a)) == 1


def test_equality_and_hash():
    assert Field(2, 2) == Field(2, 2, [1, 1, 1])
    assert hash(Field(5)) == hash(Field(5))
    assert Field(2) != Field(3)


def test_field_for_order_rejects_non_prime_powers():
    with pytest.raises(InputError, match="q = 6 is not a prime power"):
        field_for_order(6)
    with pytest.raises(InputError, match="q = 1 is not a prime power"):
        field_for_order(1)


def test_prime_power_parts():
    cases = {1: None, 2: (2, 1), 6: None, 12: None, 27: (3, 3), 49: (7, 2),
             1024: (2, 10), 2 ** 31 - 1: (2 ** 31 - 1, 1), 3 * 2 ** 31: None}
    for q, parts in cases.items():
        assert prime_power_parts(q) == parts, q
    for q in (0, -4):
        assert prime_power_parts(q) is None
