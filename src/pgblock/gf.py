"""Exact arithmetic in small Galois fields GF(p^e).

Field elements are plain ints in [0, q).  The base-p digits of a code are
the coefficients of the element's polynomial representative, so 0 and 1
are the additive and multiplicative identities in every field.  For the
orders this package actually searches (q <= 27) all operations are dense
table lookups.
"""

from __future__ import annotations

from itertools import product

TABLE_LIMIT = 27  # orders up to this get dense precomputed op tables

# Irreducible monic moduli for the built-in extension orders, written as
# coefficient tuples c with c[i] the coefficient of x^i.
BUILTIN_MODULI = {
    4: (1, 1, 1),         # x^2 + x + 1
    8: (1, 1, 0, 1),      # x^3 + x + 1
    9: (1, 0, 1),         # x^2 + 1
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 0, 1),        # x^2 + 2
    27: (1, 2, 0, 1),     # x^3 + 2x + 1
}


class InputError(ValueError):
    """Input that the caller got wrong: malformed, unreadable or out of range.

    Every check on outside input raises this type (or a subclass), so a
    front end can tell the caller's mistake from a bug in the library."""


def plain_int(value, what: str) -> int:
    """value itself if it is a plain int; a float, string or bool is rejected."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """value itself if it is a JSON object; a list, number or string is rejected."""
    if type(value) is not dict:
        raise InputError(f"{what} must be a JSON object, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """value itself if it is a JSON array; an object, number or string is rejected."""
    if type(value) is not list:
        raise InputError(f"{what} must be a JSON array, got {value!r}")
    return value


def required(data: dict, key: str):
    """data[key]; a missing key is rejected by name."""
    if key not in data:
        raise InputError(f"missing key {key!r}")
    return data[key]


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo b over GF(p); b must be trimmed and nonzero."""
    a = _poly_trim(a[:])
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        for i, coeff in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * coeff) % p
        _poly_trim(a)
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    e = len(modulus) - 1
    m = list(modulus)
    for deg in range(1, e // 2 + 1):
        for tail in product(range(p), repeat=deg):
            g = list(tail) + [1]
            if not _poly_rem(m, g, p):
                return False
    return True


class Field:
    """GF(p^e); immutable and hashable, compared by (p, e, modulus).

    Any irreducible modulus is accepted; fields of equal order are
    isomorphic so the geometry built on top does not depend on the choice.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if prime_power_parts(p) != (p, 1):
            raise InputError(f"p = {p} is not prime")
        if e < 1:
            raise InputError(f"exponent e = {e} must be >= 1")
        q = p ** e
        if e == 1:
            modulus = (0, 1)  # x; never used by the arithmetic
        else:
            if modulus is None:
                if q not in BUILTIN_MODULI:
                    raise InputError(
                        f"no built-in irreducible modulus for q = {q}; supply one")
                modulus = BUILTIN_MODULI[q]
            modulus = tuple(plain_int(c, "modulus coefficient") for c in modulus)
            if any(not 0 <= c < p for c in modulus):
                raise InputError(
                    f"modulus coefficients must lie in [0, {p}), got {modulus}")
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise InputError(
                    f"modulus must be monic of degree {e}, got {modulus}")
            if not _is_irreducible(modulus, p):
                raise InputError(
                    f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self._mul_table = None
        self._inv_table = None
        self._add_table = None
        self._neg_table = None
        if q <= TABLE_LIMIT:
            self._build_tables()

    # -- code <-> coefficient vector ------------------------------------

    def _decode(self, code: int) -> list[int]:
        digits = []
        for _ in range(self.e):
            code, d = divmod(code, self.p)
            digits.append(d)
        return digits

    def _encode(self, digits) -> int:
        code = 0
        for d in reversed(list(digits)):
            code = code * self.p + d
        return code

    # -- raw (table-free) arithmetic ------------------------------------

    def _add_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode((x + y) % self.p for x, y in zip(da, db))

    def _neg_raw(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._encode((-x) % self.p for x in self._decode(a))

    def _mul_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mul(_poly_trim(self._decode(a)), _poly_trim(self._decode(b)), self.p)
        if len(prod) >= self.e + 1:
            prod = _poly_rem(prod, list(self.modulus), self.p)
        prod += [0] * (self.e - len(prod))
        return self._encode(prod)

    def _build_tables(self):
        q = self.q
        self._add_table = [self._add_raw(a, b) for a in range(q) for b in range(q)]
        self._mul_table = [self._mul_raw(a, b) for a in range(q) for b in range(q)]
        self._neg_table = [self._neg_raw(a) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul_table[a * q + b] == 1:
                    inv[a] = b
                    break
        self._inv_table = inv

    # -- public operations ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._neg_raw(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        # q is small whenever we get here without tables
        for b in range(1, self.q):
            if self._mul_raw(a, b) == 1:
                return b
        raise RuntimeError(f"no inverse found for {a}")  # unreachable for valid fields

    def pow(self, a: int, m: int) -> int:
        out = 1
        base = a
        while m:
            if m & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            m >>= 1
        return out

    def elements(self) -> list[int]:
        """All q elements in increasing code order (the canonical order)."""
        return list(range(self.q))

    def to_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, data: dict) -> "Field":
        data = json_object(data, "field")
        e = plain_int(data.get("e", 1), "field e")
        modulus = data.get("modulus")
        return cls(plain_int(required(data, "p"), "field p"), e,
                   None if modulus is None else json_list(modulus, "field modulus"))

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


def prime_power_parts(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e, or None if q is not a prime power >= 2.

    Trial division stops at sqrt(q), which keeps it cheap enough for the
    q check that counting runs on every theta and gaussian call."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    return (p, e) if m == 1 else None


def field_for_order(q: int) -> Field:
    """Build GF(q) from its prime-power factorization, using built-in moduli."""
    parts = prime_power_parts(q)
    if parts is None:
        raise InputError(f"q = {q} is not a prime power")
    return Field(*parts)
