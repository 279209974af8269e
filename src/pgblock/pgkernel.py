"""Canonical points and subspaces of PG(n, q).

A subspace is identified with the reduced row echelon form of a basis
matrix; that form is unique, so subspace equality and hashing are plain
tuple comparisons.  Points carry a canonical ordinal compatible with the
lexicographic order of their normalized coordinates, and hyperplanes are
ordinal-indexed by the point ordinal of their dual coordinate vector.
All incidence machinery downstream runs on those ordinals as bitset
positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .counting import gaussian, theta
from .gf import Field, InputError, plain_int

ENUMERATION_BUDGET = 10 ** 8


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Point:
    """A projective point: normalized coordinates plus canonical ordinal."""

    coords: tuple[int, ...]
    index: int

    def __repr__(self):
        return f"Point({self.index}:{','.join(map(str, self.coords))})"


@dataclass(frozen=True)
class Subspace:
    """A projective subspace as its unique reduced-echelon basis.

    dim is the projective dimension; dim = -1 encodes the empty subspace
    with an empty basis.
    """

    dim: int
    basis: tuple[tuple[int, ...], ...]

    def __repr__(self):
        rows = ";".join(",".join(map(str, r)) for r in self.basis)
        return f"Subspace(dim={self.dim}:{rows})"

    def to_dict(self) -> dict:
        return {"dim": self.dim, "basis": [list(r) for r in self.basis]}


EMPTY_SUBSPACE = Subspace(-1, ())


def rref(field: Field, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over the field; zero rows are dropped."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inv(work[r][c])
        if inv != 1:
            work[r] = [field.mul(inv, x) for x in work[r]]
        lead = work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row = work[i]
                work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(row, lead)]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r] if any(row))


def kernel_basis(field: Field, rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Basis (in reduced form) of {x : row . x = 0 for every basis row}."""
    reduced = rref(field, rows)
    pivots = []
    for row in reduced:
        pivots.append(next(j for j, x in enumerate(row) if x))
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = field.neg(reduced[i][f])
        out.append(tuple(vec))
    return rref(field, out)


class GeometryContext:
    """PG(n, q): a field plus the projective dimension, with caches.

    Instances compare and hash by (field, n).  Every cache holds only
    values determined by (field, n), so contexts are safe to share between
    worker processes and threads.  The public one, `incidence_systems`,
    holds the s-space incidence systems that `blocking.incidence` builds,
    keyed by s; the private ones are never mutated from outside.
    """

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise InputError(f"projective dimension n = {n} must be >= 1")
        self.field = field
        self.n = n
        self._points: tuple[Point, ...] | None = None
        self._subspaces: dict[int, tuple[Subspace, ...]] = {}
        self._subspace_points: dict[Subspace, tuple[Point, ...]] = {}
        self._duals: dict[Subspace, Subspace] = {}
        self.incidence_systems: dict[int, object] = {}

    # -- identity ---------------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def num_points(self) -> int:
        return theta(self.n, self.q)

    def __eq__(self, other):
        return (isinstance(other, GeometryContext)
                and self.field == other.field and self.n == other.n)

    def __hash__(self):
        return hash((self.field, self.n))

    def __repr__(self):
        return f"PG({self.n},{self.q})"

    # -- points -------------------------------------------------------------

    def normalize(self, coords) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.n + 1:
            raise InputError(
                f"expected {self.n + 1} coordinates, got {len(coords)}")
        if any(not 0 <= c < self.q for c in coords):
            raise InputError(f"coordinates out of range for {self.field!r}")
        lead = next((i for i, c in enumerate(coords) if c), None)
        if lead is None:
            raise InputError("the zero vector is not a projective point")
        if coords[lead] == 1:
            return coords
        inv = self.field.inv(coords[lead])
        return tuple(self.field.mul(inv, c) for c in coords)

    def point_index(self, coords) -> int:
        """Ordinal of normalized coords under lexicographic tuple order."""
        lead = next(i for i, c in enumerate(coords) if c)
        offset = 0
        for c in coords[lead + 1:]:
            offset = offset * self.q + c
        return theta(self.n - lead - 1, self.q) + offset

    def point(self, arg) -> Point:
        """Point from an ordinal or from (possibly unnormalized) coordinates."""
        if isinstance(arg, Point):
            return arg
        if isinstance(arg, int):
            return self.points()[arg]
        coords = self.normalize(arg)
        return Point(coords, self.point_index(coords))

    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            if self.num_points > ENUMERATION_BUDGET:
                raise BudgetExceeded(
                    f"{self.num_points} points exceed the enumeration budget "
                    f"{ENUMERATION_BUDGET}")
            q, n = self.q, self.n
            pts = []
            for lead in range(n, -1, -1):
                prefix = (0,) * lead + (1,)
                for tail in product(range(q), repeat=n - lead):
                    coords = prefix + tail
                    pts.append(Point(coords, len(pts)))
            if len(pts) != self.num_points:
                raise RuntimeError(
                    f"point enumeration produced {len(pts)} != theta = {self.num_points}")
            self._points = tuple(pts)
        return self._points

    # -- basic subspace algebra ----------------------------------------------

    def _rows_of(self, part) -> tuple[tuple[int, ...], ...]:
        if isinstance(part, Point):
            return (part.coords,)
        if isinstance(part, Subspace):
            return part.basis
        raise InputError(f"expected Point or Subspace, got {type(part).__name__}")

    def span(self, *parts) -> Subspace:
        rows = []
        for part in parts:
            for row in self._rows_of(part):
                if len(row) != self.n + 1:
                    raise InputError("part does not live in this geometry")
                rows.append(row)
        basis = rref(self.field, rows)
        return Subspace(len(basis) - 1, basis)

    def subspace(self, rows) -> Subspace:
        """The subspace spanned by coordinate rows (none: the empty subspace)."""
        raw = tuple(tuple(plain_int(c, "coordinate") for c in row) for row in rows)
        if any(not 0 <= c < self.q for row in raw for c in row):
            raise InputError(f"coordinates out of range for {self.field!r}")
        return self.span(Subspace(len(raw) - 1, raw))

    def extensions(self, space: Subspace, ambient: Subspace):
        """Each distinct span of space with one point of ambient off it, in
        the order of the smallest such point."""
        inside = {p.index for p in self.subspace_points(space)}
        seen = set()
        for pt in self.subspace_points(ambient):
            if pt.index not in inside:
                ext = self.span(space, pt)
                if ext not in seen:
                    seen.add(ext)
                    yield ext

    def whole_space(self) -> Subspace:
        rows = tuple(tuple(1 if i == j else 0 for j in range(self.n + 1))
                     for i in range(self.n + 1))
        return Subspace(self.n, rows)

    def dual(self, space: Subspace) -> Subspace:
        """Orthogonal complement under the standard dot product.

        Memoized in both directions, since duality is an involution; this
        relies on every Subspace carrying its canonical reduced basis.
        """
        cached = self._duals.get(space)
        if cached is None:
            if space.dim == -1:
                cached = self.whole_space()
            elif space.dim == self.n:
                cached = EMPTY_SUBSPACE
            else:
                basis = kernel_basis(self.field, space.basis, self.n + 1)
                cached = Subspace(len(basis) - 1, basis)
            self._duals[space] = cached
            self._duals[cached] = space
        return cached

    def meet(self, a: Subspace, b: Subspace) -> Subspace:
        return self.dual(self.span(self.dual(a), self.dual(b)))

    def contains(self, outer: Subspace, inner) -> bool:
        """True iff every basis row of inner reduces to zero against outer."""
        rows = self._rows_of(inner)
        pivots = [next(j for j, x in enumerate(row) if x) for row in outer.basis]
        for row in rows:
            if len(row) != self.n + 1:
                raise InputError("operand does not live in this geometry")
            vec = list(row)
            for i, p in enumerate(pivots):
                if vec[p]:
                    f = vec[p]
                    lead = outer.basis[i]
                    vec = [self.field.sub(x, self.field.mul(f, y))
                           for x, y in zip(vec, lead)]
            if any(vec):
                return False
        return True

    # -- enumeration -----------------------------------------------------------

    def iter_subspaces(self, m: int, inside: Subspace | None = None):
        """All m-spaces of the geometry, or of the space inside, exactly once.

        The reduced-echelon (m+1)-row coefficient matrices over the d+1
        coordinates (d = n, or inside.dim) come in canonical order: pivot-column
        patterns lexicographically, then free entries in code order.  Inside a
        space each row is lifted through its basis, and the lift is already
        reduced: the basis carries the identity in its pivot columns, and each
        lifted row is zero before the image of its pivot.
        """
        d = self.n if inside is None else inside.dim
        if not 0 <= m <= d:
            raise InputError(f"need 0 <= m <= {d}, got m = {m}")
        count = gaussian(d + 1, m + 1, self.q)
        if count > ENUMERATION_BUDGET:
            raise BudgetExceeded(
                f"{count} {m}-spaces exceed the enumeration budget {ENUMERATION_BUDGET}")
        cols = d + 1
        codes = range(self.q)
        for pivots in combinations(range(cols), m + 1):
            pivset = set(pivots)
            free = [(i, j) for i, p in enumerate(pivots)
                    for j in range(p + 1, cols) if j not in pivset]
            template = [[0] * cols for _ in range(m + 1)]
            for i, p in enumerate(pivots):
                template[i][p] = 1
            for vals in product(codes, repeat=len(free)):
                rows = [row[:] for row in template]
                for (i, j), v in zip(free, vals):
                    rows[i][j] = v
                if inside is not None:
                    rows = [self._combine(row, inside.basis) for row in rows]
                yield Subspace(m, tuple(tuple(r) for r in rows))

    def _combine(self, coeffs, rows) -> list[int]:
        """The sum of c * row over a coefficient vector and basis rows."""
        add, mul = self.field.add, self.field.mul
        vec = [0] * (self.n + 1)
        for c, row in zip(coeffs, rows):
            if c:
                vec = [add(x, mul(c, y)) for x, y in zip(vec, row)]
        return vec

    def subspaces(self, m: int) -> tuple[Subspace, ...]:
        if m not in self._subspaces:
            self._subspaces[m] = tuple(self.iter_subspaces(m))
        return self._subspaces[m]

    def subspace_points(self, space: Subspace) -> tuple[Point, ...]:
        """Points on a subspace, via normalized coefficient vectors."""
        if space.dim == -1:
            return ()
        cached = self._subspace_points.get(space)
        if cached is not None:
            return cached
        rows = space.basis
        pts = []
        for lead in range(space.dim, -1, -1):
            coeff_tails = product(range(self.q), repeat=space.dim - lead)
            for tail in coeff_tails:
                vec = list(rows[lead])
                for offset, c in enumerate(tail):
                    if c:
                        row = rows[lead + 1 + offset]
                        vec = [self.field.add(x, self.field.mul(c, y))
                               for x, y in zip(vec, row)]
                coords = self.normalize(vec)
                pts.append(Point(coords, self.point_index(coords)))
        result = tuple(sorted(pts, key=lambda p: p.index))
        self._subspace_points[space] = result
        return result

    # -- hyperplanes ---------------------------------------------------------

    def hyperplane(self, dual_coords) -> Subspace:
        """Hyperplane {x : a . x = 0} from its dual coordinate vector a."""
        return self.dual(Subspace(0, (self.point(dual_coords).coords,)))

    def hyperplane_dual_point(self, space: Subspace) -> Point:
        if space.dim != self.n - 1:
            raise InputError(f"dim {space.dim} is not a hyperplane in {self!r}")
        dual = self.dual(space)
        return self.point(dual.basis[0])

    def hyperplanes(self) -> tuple[Subspace, ...]:
        """All hyperplanes, ordered by the ordinal of their dual point."""
        return tuple(self.hyperplane(p.coords) for p in self.points())

    def hyperplanes_through(self, space: Subspace) -> tuple[Subspace, ...]:
        """Hyperplanes containing the subspace (duals of the dual's points)."""
        return tuple(self.hyperplane(p.coords)
                     for p in self.subspace_points(self.dual(space)))
