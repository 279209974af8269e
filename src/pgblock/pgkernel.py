"""Canonical points and subspaces of PG(n, q).

A subspace is identified with the reduced row echelon form of a basis
matrix; that form is unique, so subspace equality and hashing are plain
tuple comparisons.  Hyperplanes are ordinal-indexed by the point ordinal
of their dual coordinate vector.

Point ordinals follow the lexicographic order of normalized coordinates:
block i holds the points e_{n-i} + t, t in GF(q)^i, at theta_{i-1} + (t
read in base q), so the span of e_n, ..., e_{n-i} is the points below
theta_i.  Every reader takes the block starts from `thetas` = (0,
theta_0, ..., theta_n), one tuple per context.  All incidence machinery
downstream runs on those ordinals as bitset positions, starting from one
table per context: for each ordinal x, the bitmask of the points
orthogonal to x (`hyperplane_table`), from which `subspace_masks` reads
the points of a subspace and the hyperplanes through it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, product

from .counting import gaussian, theta
from .gf import Field, InputError, plain_int

ENUMERATION_BUDGET = 10 ** 8
TABLE_BUDGET_BITS = 8 * 10 ** 8  # 100 MB of point-hyperplane table


class BudgetExceeded(RuntimeError):
    pass


def _check_budget(count: int, what: str):
    if count > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"{count} {what} exceed the enumeration budget {ENUMERATION_BUDGET}")


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
    keyed by s; the private ones (the m-space tuples of `subspaces`, their
    points, the dual memo, the point-hyperplane table of `hyperplane_table`
    and the masks `subspace_masks` reads off it per Subspace) are never
    mutated from outside.  Each is filled on first use: `iter_masks`, which
    the incidence build reads, fills none but the table.
    """

    def __init__(self, field: Field, n: int):
        if plain_int(n, "projective dimension n") < 1:
            raise InputError(f"projective dimension n = {n} must be >= 1")
        self.field = field
        self.n = n
        # thetas[i] = theta_{i-1}: the block starts of the ordinal layout
        self.thetas = tuple(theta(d, field.q) for d in range(-1, n + 1))
        self.num_points = self.thetas[-1]
        self._subspaces: dict[int, tuple[Subspace, ...]] = {}
        self._subspace_points: dict[Subspace, tuple[Point, ...]] = {}
        self._duals: dict[Subspace, Subspace] = {}
        self._table: tuple[int, ...] | None = None
        # theta_{n-1-d} hyperplanes pass through a d-space of theta_d points
        self._span_sizes = dict(zip(reversed(self.thetas), self.thetas))
        self._space_masks: dict[Subspace, tuple[int, int]] = {}
        self.incidence_systems: dict[int, object] = {}

    # -- identity ---------------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.q

    def __eq__(self, other):
        return (isinstance(other, GeometryContext)
                and self.field == other.field and self.n == other.n)

    def __hash__(self):
        return hash((self.field, self.n))

    def __repr__(self):
        return f"PG({self.n},{self.q})"

    # -- points -------------------------------------------------------------

    def normalize(self, coords) -> tuple[int, ...]:
        coords = tuple(plain_int(c, "coordinate") for c in coords)
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
        for lead, c in enumerate(coords):
            if c:
                break
        else:
            raise InputError("the zero vector is not a projective point")
        q = self.field.q
        offset = 0
        for c in coords[lead + 1:]:
            offset = offset * q + c
        return self.thetas[self.n - lead] + offset

    def point(self, arg) -> Point:
        """Point from an ordinal, from (possibly unnormalized) coordinates
        as a tuple or list, or from a Point, whose coordinates must belong
        to this geometry."""
        if isinstance(arg, Point):
            arg = arg.coords
        if not isinstance(arg, (tuple, list)):
            # an ordinal: invert point_index; its offset in block i of the
            # layout is the i base-q digits of the tail
            if not 0 <= plain_int(arg, "point ordinal") < self.num_points:
                raise InputError(f"point ordinal {arg} is outside [0, {self.num_points})")
            i = bisect_right(self.thetas, arg) - 1
            offset, tail = arg - self.thetas[i], [0] * i
            for j in range(i - 1, -1, -1):
                offset, tail[j] = divmod(offset, self.q)
            return Point((0,) * (self.n - i) + (1,) + tuple(tail), arg)
        coords = self.normalize(arg)
        return Point(coords, self.point_index(coords))

    def points(self) -> tuple[Point, ...]:
        _check_budget(self.num_points, "points")
        return tuple(map(self.point, range(self.num_points)))

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
        the order of the smallest such point.  Two of them meet in space, so
        the points of each one yielded are skipped: one span per extension."""
        skip = {p.index for p in self.subspace_points(space)}
        for pt in self.subspace_points(ambient):
            if pt.index not in skip:
                ext = self.span(space, pt)
                skip.update(p.index for p in self.subspace_points(ext))
                yield ext

    def hull(self, parts, dim: int) -> Subspace:
        """The span of parts, raised to dimension dim (if it is lower) by
        taking the first space over it in `extensions` order, step by step:
        its span with the lowest ordinal off it, the first gap in its
        `subspace_points`, which come in ordinal order."""
        if not -1 <= plain_int(dim, "dim") <= self.n:
            raise InputError(f"no subspace of dimension {dim} in {self!r}")
        space = self.span(*parts)
        while space.dim < dim:
            pts = self.subspace_points(space)
            low = next((u for u, pt in enumerate(pts) if pt.index != u), len(pts))
            space = self.span(space, self.point(low))
        return space

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

    def _echelon_rows(self, m: int):
        """For each pivot-column pattern of the reduced-echelon (m+1)-row
        matrices, lexicographically: the choices of each row as coordinate
        tuples.  Row i is e_{p_i} plus free entries at the non-pivot columns
        after p_i, later columns varying fastest."""
        if not 0 <= m <= self.n:
            raise InputError(f"need 0 <= m <= {self.n}, got m = {m}")
        _check_budget(gaussian(self.n + 1, m + 1, self.q), f"{m}-spaces")
        cols, codes = self.n + 1, range(self.q)
        for pivots in combinations(range(cols), m + 1):
            coords = []
            for p in pivots:
                rows = [(0,) * p + (1,)]
                for j in range(p + 1, cols):
                    rows = [r + (v,) for r in rows for v in ((0,) if j in pivots else codes)]
                coords.append(rows)
            yield coords

    def iter_subspaces(self, m: int):
        """All m-spaces of the geometry, exactly once.

        The reduced-echelon (m+1)-row matrices come in canonical order:
        pivot-column patterns lexicographically, then free entries in code
        order, later rows varying fastest.
        """
        for coords in self._echelon_rows(m):
            for basis in product(*coords):
                yield Subspace(m, basis)

    def subspaces(self, m: int) -> tuple[Subspace, ...]:
        if m not in self._subspaces:
            self._subspaces[m] = tuple(self.iter_subspaces(m))
        return self._subspaces[m]

    def subspace_points(self, space: Subspace) -> tuple[Point, ...]:
        """Points on a subspace in ordinal order, via normalized coefficient
        vectors; its theta_dim points are checked against the enumeration
        budget."""
        if space.dim == -1:
            return ()
        cached = self._subspace_points.get(space)
        if cached is not None:
            return cached
        _check_budget(self.thetas[space.dim + 1], f"points of a {space.dim}-space")
        rows = space.basis
        pts = []
        for lead in range(space.dim, -1, -1):
            for tail in product(range(self.q), repeat=space.dim - lead):
                vec = list(rows[lead])
                for offset, c in enumerate(tail):
                    if c:
                        row = rows[lead + 1 + offset]
                        vec = [self.field.add(x, self.field.mul(c, y))
                               for x, y in zip(vec, row)]
                coords = self.normalize(vec)
                pts.append(Point(coords, self.point_index(coords)))
        result = self._subspace_points[space] = tuple(sorted(pts, key=lambda p: p.index))
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

    # -- the point-hyperplane table --------------------------------------------

    def hyperplane_table(self) -> tuple[int, ...]:
        """Entry x is the bitmask of the point ordinals y with x . y = 0.

        Read with x as the dual point of a hyperplane, the entry is the
        hyperplane's points; read with x as a point, it is the dual ordinals
        of the hyperplanes through x.  Built on first use, after a check of
        its theta_n^2 bits against TABLE_BUDGET_BITS; callers that enumerate
        subspaces as well enumerate them first, so that their budget is the
        one that answers.
        """
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> tuple[int, ...]:
        if self.num_points ** 2 > TABLE_BUDGET_BITS:
            raise BudgetExceeded(
                f"the {self.num_points}^2-bit point-hyperplane table exceeds the "
                f"budget of {TABLE_BUDGET_BITS} bits")
        q, n, fld, offsets = self.q, self.n, self.field, self.thetas
        codes = range(q)
        times = [[fld.mul(a, v) for v in codes] for a in codes]
        minus = [[fld.sub(c, w) for w in codes] for c in codes]
        negate = minus[0]

        def solutions(lower, a1, c, step):
            # the tails (v, t') with a1 v + a'.t' = c, where lower[c'] holds
            # the tails t' with a'.t' = c'; v is the leading base-q digit
            mask = 0
            for v in codes:
                mask |= lower[minus[c][times[a1][v]]] << (v * step)
            return mask

        # tails[m][a][c]: the tails t in GF(q)^m with a . t = c, as a bitmask
        # in base-q order (t_1 most significant), a read as a base-q code.
        # Block m of the layout is the points e_{n-m} + t, so each block of
        # a table entry is one tails mask, shifted to thetas[m].  Level n is
        # needed for one c per entry only, so it is not tabulated.
        tails = [[[int(c == 0) for c in codes]]]
        for m in range(1, n):
            lower, step = tails[-1], q ** (m - 1)
            tails.append([[solutions(rest, a1, c, step) for c in codes]
                          for a1 in codes for rest in lower])
        top, top_step = tails[n - 1], q ** (n - 1)
        table = []
        for lead in range(n, -1, -1):
            for tail in product(codes, repeat=n - lead):
                coords = (0,) * lead + (1,) + tail
                # block m of the entry: the points e_{n-m} + t with
                # x_{n-m} + (x_{n-m+1}, ..., x_n) . t = 0, where code is the
                # base-q code of that coefficient tail
                mask = code = 0
                weight = 1
                for m in range(n):
                    c = coords[n - m]
                    mask |= tails[m][code][negate[c]] << offsets[m]
                    code += c * weight
                    weight *= q
                a1 = coords[1]
                mask |= solutions(top[code - a1 * top_step], a1,
                                  negate[coords[0]], top_step) << offsets[n]
                table.append(mask)
        return tuple(table)

    def subspace_masks(self, part) -> tuple[int, int]:
        """(its points, the hyperplanes through it) of a Point or Subspace,
        as bitmasks of point ordinals and of dual ordinals.  Every basis row
        must be a point of this geometry; a subspace's masks are memoized."""
        masks = self._space_masks.get(part) if isinstance(part, Subspace) else None
        if masks is None:
            masks = self._masks([self.point(row).index for row in self._rows_of(part)])
            if isinstance(part, Subspace):
                self._space_masks[part] = masks
        return masks

    def space_of_mask(self, points: int) -> Subspace:
        """The subspace with this point mask, spanned by its lowest point of
        each leading coordinate: a subspace's points lead exactly at its
        pivot columns, so those are dim+1 independent points."""
        picked = []
        for top in self.thetas[1:]:
            # the points left below theta_i all lead at coordinate n - i
            low = points & ((1 << top) - 1)
            if low:
                picked.append((low & -low).bit_length() - 1)
                points ^= low
        return self.span(*map(self.point, picked))

    def _bases(self, m: int):
        """The point ordinals of each m-space's echelon rows, in canonical
        order; each row choice of a pivot pattern goes through `point_index`
        once."""
        index = self.point_index
        for coords in self._echelon_rows(m):
            yield from product(*(list(map(index, rows)) for rows in coords))

    def iter_masks(self, m: int):
        """(points, hyperplanes) of each m-space in canonical order, the
        masks as in `subspace_masks`, read off `_bases`; it builds no
        Subspace and memoizes nothing, and the enumeration budget is checked
        before the table is built."""
        return map(self._masks, self._bases(m))

    def iter_subspace_masks(self, m: int):
        """(space, points, hyperplanes) of each m-space in canonical order:
        `iter_masks` next to `subspaces(m)`, through the memo of
        `subspace_masks`."""
        memo = self._space_masks
        for space, basis in zip(self.subspaces(m), self._bases(m)):
            masks = memo.get(space)
            if masks is None:
                masks = memo[space] = self._masks(basis)
            yield space, *masks

    def _masks(self, rows) -> tuple[int, int]:
        # the hyperplanes through the span of the rows are those through
        # every row; its points lie on all of them, and once the AND has as
        # many points as the span it is the span
        table = self.hyperplane_table()
        hyps = full = (1 << self.num_points) - 1
        for u in rows:
            hyps &= table[u]
        size = self._span_sizes[hyps.bit_count()]
        points, left = full, hyps
        while points.bit_count() != size:
            low = left & -left
            points &= table[low.bit_length() - 1]
            left ^= low
        return points, hyps
