"""Exact counting formulas and size bounds for subspaces and blocking sets.

Everything here is arbitrary-precision: the bound formulas contain terms
like q^((s+1)(d+1)) that overflow machine words almost immediately, and
the comparisons downstream must never round.  The one real-valued bound
(the Gaussian-coefficient upper bound involving e^x) is returned as a
certified rational bracket so strict-inequality checks cannot pass or
fail spuriously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gf import InputError, prime_power_parts


class HypothesisViolated(InputError):
    """A bound formula was asked for outside the hypotheses it is proved under."""


# Marker returned instead of a number for the q = 2, even-n cases the
# classification leaves open (k in {(n-2)/2, n/2}).
OPEN = "open"


def _check_q(q: int):
    if prime_power_parts(q) is None:
        raise InputError(f"q = {q} is not a prime power >= 2")


def gaussian(a: int, b: int, q: int) -> int:
    """Gaussian binomial [a choose b]_q; 0 unless 0 <= b <= a."""
    _check_q(q)
    if b < 0 or b > a:
        return 0
    num = 1
    den = 1
    for i in range(1, b + 1):
        num *= q ** (a - b + i) - 1
        den *= q ** i - 1
    return num // den


def theta(m: int, q: int) -> int:
    """Number of points of PG(m, q); 0 for the empty subspace (m = -1)."""
    _check_q(q)
    if m < 0:
        return 0
    return (q ** (m + 1) - 1) // (q - 1)


def metsch_lower_bound(n: int, q: int, d: int, s: int, b_size: int) -> int:
    """Lower bound on the number of s-spaces skew to a point set of size
    b_size <= theta_d in PG(n, q)."""
    _check_q(q)
    if d < 0 or s < 0 or n < d + s:
        raise HypothesisViolated(f"need d, s >= 0 and n >= d + s, got n={n}, d={d}, s={s}")
    if not 0 <= b_size <= theta(d, q):
        raise HypothesisViolated(f"need 0 <= |B| <= theta_{d} = {theta(d, q)}, got {b_size}")
    return (q ** ((s + 1) * (d + 1)) * gaussian(n - d, s + 1, q)
            + (theta(d, q) - b_size) * q ** (s * d) * gaussian(n - d, s, q))


def metsch_dual_lower_bound(n: int, q: int, d: int, s: int, b_size: int) -> int:
    """Lower bound on the number of s-spaces lying in no member of a set of
    b_size <= theta_d hyperplanes of PG(n, q)."""
    _check_q(q)
    if d < 0 or s < d - 1 or s >= n:
        raise HypothesisViolated(f"need d >= 0 and d-1 <= s < n, got n={n}, d={d}, s={s}")
    if not 0 <= b_size <= theta(d, q):
        raise HypothesisViolated(f"need 0 <= |B| <= theta_{d} = {theta(d, q)}, got {b_size}")
    return (q ** ((n - s) * (d + 1)) * gaussian(n - d, n - s, q)
            + (theta(d, q) - b_size) * q ** ((n - s - 1) * d) * gaussian(n - d, n - s - 1, q))


def _exp_bracket(x: Fraction, terms: int = 30) -> tuple[Fraction, Fraction]:
    """Certified (lower, upper) rational bounds on e**x for 0 <= x < terms + 1.

    Lower bound: the truncated Taylor series (all terms positive).
    Upper bound: series plus a geometric majorant of the tail.
    """
    if x < 0 or x >= terms + 1:
        raise ValueError(f"x = {x} out of supported range")
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, terms + 1):
        term *= x / i
        total += term
    r = x / (terms + 1)
    tail = term * r / (1 - r)
    return total, total + tail


def heger_nagy_bracket(a: int, b: int, q: int) -> tuple[Fraction, Fraction]:
    """Certified rational bracket of the upper-bound formula for [a choose b]_q:
    q^((a-b)b) * e^(1/(q-2)) for q > 2, and 2^((a-b)b + 1) * e^(2/3) for q = 2."""
    _check_q(q)
    if not 0 <= b <= a:
        raise HypothesisViolated(f"need 0 <= b <= a, got a={a}, b={b}")
    if q == 2:
        lead = 2 ** ((a - b) * b + 1)
        lo, hi = _exp_bracket(Fraction(2, 3))
    else:
        lead = q ** ((a - b) * b)
        lo, hi = _exp_bracket(Fraction(1, q - 2))
    return lead * lo, lead * hi


def heger_nagy_upper_bound(a: int, b: int, q: int) -> Fraction:
    """Certified upper (directed-rounded) value of the bound on [a choose b]_q."""
    return heger_nagy_bracket(a, b, q)[1]


def minimum_size_bound(n: int, k: int, q: int):
    """Smallest possible size of a mixed point/hyperplane blocking set with
    respect to k-spaces in PG(n, q), or OPEN for the excluded q = 2 cases.

    theta_{k+1} below the middle, theta_{n-k} above it, (q+1) q^k at
    k = (n-1)/2.
    """
    _check_q(q)
    if not 0 <= k < n:
        raise InputError(f"need 0 <= k < n, got k={k}, n={n}")
    if q == 2 and n % 2 == 0 and (2 * k == n - 2 or 2 * k == n):
        return OPEN
    if 2 * k < n - 1:
        return theta(k + 1, q)
    if 2 * k > n - 1:
        return theta(n - k, q)
    return (q + 1) * q ** k


def fraction_decimal_upper(x: Fraction, places: int = 6) -> str:
    """Decimal string rounded up, so the printed value is still an upper bound."""
    scale = 10 ** places
    units = -((-x.numerator * scale) // x.denominator)  # ceil
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // scale}.{units % scale:0{places}d}"


@dataclass
class BoundReport:
    """One evaluated bound formula, for the CLI's JSON output."""

    name: str
    params: dict = field(default_factory=dict)
    value: object = None
    comparison: tuple | None = None  # (actual value, satisfied flag)

    def to_dict(self) -> dict:
        if isinstance(self.value, Fraction):
            rendered = fraction_decimal_upper(self.value)
        else:
            rendered = str(self.value)
        out = {
            "name": self.name,
            "params": {key: str(val) for key, val in self.params.items()},
            self.name: rendered,
        }
        if self.comparison is not None:
            actual, ok = self.comparison
            out["comparison"] = {"actual": str(actual), "satisfied": bool(ok)}
        return out
