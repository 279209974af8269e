import random
from itertools import combinations, product

import pytest

from pgblock.counting import gaussian, theta
from pgblock.gf import Field, InputError, field_for_order
from pgblock.pgkernel import (EMPTY_SUBSPACE, BudgetExceeded,
                              GeometryContext, Subspace, kernel_basis)


def _product_formula(n, m, q):
    # the m-space count of PG(n,q), evaluated independently of counting.gaussian
    num = 1
    den = 1
    for i in range(1, m + 2):
        num *= q ** (n - m + i) - 1
        den *= q ** i - 1
    return num // den


def test_point_counts(pg22, pg32, pg33):
    assert len(pg22.points()) == 7
    assert len(pg32.points()) == 15
    assert len(pg33.points()) == 40


def test_point_index_matches_enumeration(pg33):
    for pt in pg33.points():
        assert pg33.point_index(pt.coords) == pt.index
        assert pg33.point(pt.index) == pt


def test_normalization_idempotent_and_unique(pg33):
    rng = random.Random(7)
    field = pg33.field
    for _ in range(200):
        vec = [rng.randrange(3) for _ in range(4)]
        if not any(vec):
            continue
        scale = rng.randrange(1, 3)
        scaled = tuple(field.mul(scale, c) for c in vec)
        assert pg33.normalize(vec) == pg33.normalize(scaled)
        assert pg33.normalize(pg33.normalize(vec)) == pg33.normalize(vec)


def test_zero_vector_rejected(pg32):
    with pytest.raises(InputError, match="the zero vector is not a projective point"):
        pg32.point((0, 0, 0, 0))


def test_span_examples(pg32):
    p = pg32.point((1, 0, 0, 0))
    assert pg32.span(p).dim == 0
    q = pg32.point((0, 1, 0, 0))
    line = pg32.span(p, q)
    assert line.dim == 1
    plane = pg32.subspaces(2)[0]
    external = next(pt for pt in pg32.points() if not pg32.contains(plane, pt))
    assert pg32.span(plane, external).dim == 3
    assert pg32.span().dim == -1


def test_meet_examples(pg32):
    line = pg32.subspaces(1)[0]
    assert pg32.meet(line, line) == line
    h1, h2 = pg32.subspaces(2)[0], pg32.subspaces(2)[1]
    assert pg32.meet(h1, h2).dim == pg32.n - 2
    skew_pairs = [(a, b) for a in pg32.subspaces(1) for b in pg32.subspaces(1)
                  if pg32.meet(a, b).dim == -1]
    assert skew_pairs, "PG(3,2) has skew line pairs"


def test_contains_examples(pg32):
    plane = pg32.subspaces(2)[0]
    on_it = pg32.subspace_points(plane)[0]
    assert pg32.contains(plane, on_it)
    line = pg32.subspaces(1)[0]
    assert pg32.contains(line, line)
    assert not pg32.contains(line, plane)


@pytest.mark.parametrize("fixture,counts", [
    ("pg22", {0: 7, 1: 7, 2: 1}),
    ("pg32", {0: 15, 1: 35, 2: 15, 3: 1}),
])
def test_enumeration_counts_small(request, fixture, counts):
    ctx = request.getfixturevalue(fixture)
    for m, expected in counts.items():
        assert len(ctx.subspaces(m)) == expected


def test_planes_of_pg42_against_product_formula(pg42):
    assert _product_formula(4, 2, 2) == 155
    assert len(pg42.subspaces(2)) == 155


@pytest.mark.parametrize("fixture", ["pg22", "pg23", "pg32", "pg33", "pg42"])
def test_enumeration_counts_match_gaussian(request, fixture):
    ctx = request.getfixturevalue(fixture)
    for m in range(ctx.n + 1):
        assert len(ctx.subspaces(m)) == gaussian(ctx.n + 1, m + 1, ctx.q)


def test_enumeration_is_duplicate_free_and_canonical(pg32):
    for m in (1, 2):
        spaces = pg32.subspaces(m)
        assert len(set(spaces)) == len(spaces)
        for s in spaces:
            assert pg32.span(s) == s  # already in reduced echelon form


def template_subspaces(ctx, m):
    """The m-spaces by filling a reduced-echelon template, one free entry at
    a time: pivot patterns lexicographically, then the free entries in
    product order over (row, column)."""
    cols = ctx.n + 1
    spaces = []
    for pivots in combinations(range(cols), m + 1):
        free = [(i, j) for i, p in enumerate(pivots)
                for j in range(p + 1, cols) if j not in pivots]
        for vals in product(range(ctx.q), repeat=len(free)):
            rows = [[int(j == p) for j in range(cols)] for p in pivots]
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            spaces.append(Subspace(m, tuple(map(tuple, rows))))
    return tuple(spaces)


@pytest.mark.parametrize("q,n", [(4, 2), (8, 2), (9, 2), (4, 3), (3, 4), (2, 5)])
def test_subspaces_match_template_oracle(q, n):
    ctx = GeometryContext(field_for_order(q), n)
    for m in range(n + 1):
        assert ctx.subspaces(m) == template_subspaces(ctx, m), (q, n, m)


def test_canonical_uniqueness_exhaustive(pg32):
    for m in range(4):
        seen = {}
        for s in pg32.subspaces(m):
            key = frozenset(p.index for p in pg32.subspace_points(s))
            assert key not in seen, "two canonical matrices share a point set"
            seen[key] = s


def test_subspace_point_counts(pg33):
    line = pg33.subspaces(1)[0]
    assert len(pg33.subspace_points(line)) == 4
    plane = pg33.subspaces(2)[0]
    assert len(pg33.subspace_points(plane)) == 13


def test_duality_involution_and_reversal(pg32):
    for m in range(-1, 4):
        spaces = [EMPTY_SUBSPACE] if m == -1 else pg32.subspaces(m)
        for s in spaces:
            d = pg32.dual(s)
            assert d.dim == pg32.n - 1 - s.dim
            assert pg32.dual(d) == s
    lines = pg32.subspaces(1)
    planes = pg32.subspaces(2)
    for line in lines:
        for plane in planes:
            assert pg32.contains(plane, line) == \
                pg32.contains(pg32.dual(line), pg32.dual(plane))


def test_dual_of_standard_point(pg32):
    hp = pg32.dual(Subspace(0, ((1, 0, 0, 0),)))
    assert hp.dim == 2
    assert all(row[0] == 0 for row in hp.basis)  # x0 = 0


def test_dual_involution_pg33_lines(pg33):
    for line in pg33.subspaces(1):
        assert pg33.dual(pg33.dual(line)) == line


def test_dual_whole_and_empty(pg32):
    assert pg32.dual(pg32.whole_space()) == EMPTY_SUBSPACE
    assert pg32.dual(EMPTY_SUBSPACE) == pg32.whole_space()


@pytest.mark.parametrize("field,n", [(Field(2), 3), (Field(2, 2), 2)])
def test_dual_memo_matches_kernel_basis(field, n):
    # the memo's first and repeat answers against kernel_basis, the reverse
    # direction computed afresh in a second context, and warmed contexts that
    # still compare and hash like a cold one
    ctx = GeometryContext(field, n)
    other = GeometryContext(field, n)
    spaces = [EMPTY_SUBSPACE] + [s for m in range(n + 1) for s in ctx.subspaces(m)]
    for s in spaces:
        basis = kernel_basis(ctx.field, s.basis, n + 1)
        expected = Subspace(len(basis) - 1, basis)
        assert ctx.dual(s) == expected
        assert ctx.dual(s) == expected
        assert ctx.dual(ctx.dual(s)) == s
        assert other.dual(expected) == s
    for pt in ctx.points():
        scaled = tuple(field.mul(field.q - 1, c) for c in pt.coords)
        assert ctx.hyperplane(scaled) == ctx.dual(Subspace(0, (pt.coords,)))
    cold = GeometryContext(field, n)
    assert ctx == other == cold and hash(ctx) == hash(other) == hash(cold)


def test_grassmann_identity_exhaustive(pg32):
    spaces = [EMPTY_SUBSPACE]
    for m in range(4):
        spaces.extend(pg32.subspaces(m))
    for a in spaces:
        for b in spaces:
            assert pg32.span(a, b).dim + pg32.meet(a, b).dim == a.dim + b.dim


@pytest.mark.parametrize("fixture,k", [("pg32", 1), ("pg42", 2)])
def test_kspaces_per_point(request, fixture, k):
    ctx = request.getfixturevalue(fixture)
    expected = gaussian(ctx.n, k, ctx.q)
    through = {pt.index: 0 for pt in ctx.points()}
    for space in ctx.subspaces(k):
        for pt in ctx.subspace_points(space):
            through[pt.index] += 1
    assert set(through.values()) == {expected}


def test_hyperplanes_ordered_by_dual_point(pg32):
    hyps = [pg32.hyperplane(p.coords) for p in pg32.points()]
    assert len(hyps) == 15
    for i, hp in enumerate(hyps):
        assert pg32.hyperplane_dual_point(hp).index == i


def test_enumeration_budget():
    ctx = GeometryContext(Field(3), 12)
    with pytest.raises(BudgetExceeded):
        next(ctx.iter_subspaces(5))


def test_hyperplane_table_is_the_dot_product():
    """Entry x has bit y exactly when x . y = 0 over the field, so the table
    is symmetric; extension fields included."""
    for q, n in ((2, 1), (5, 1), (3, 2), (4, 2), (8, 2), (9, 2), (2, 3), (4, 3), (2, 5)):
        ctx = GeometryContext(field_for_order(q), n)
        table = ctx.hyperplane_table()
        pts = [ctx.point(u).coords for u in range(ctx.num_points)]
        for x, row in zip(pts, table):
            expected = 0
            for y, coords in enumerate(pts):
                dot = 0
                for a, b in zip(x, coords):
                    dot = ctx.field.add(dot, ctx.field.mul(a, b))
                expected |= (dot == 0) << y
            assert row == expected, (q, n, x)


@pytest.mark.parametrize("field,n", [(Field(2), 3), (Field(3), 3), (Field(2, 2), 2),
                                     (Field(2, 3), 2), (Field(3, 2), 2)],
                         ids=["pg32", "pg33", "pg24", "pg28", "pg29"])
def test_subspace_masks_match_subspace_points(field, n):
    ctx = GeometryContext(field, n)
    spaces = [EMPTY_SUBSPACE, ctx.whole_space()]
    spaces += [space for m in range(n) for space in ctx.subspaces(m)]
    for space in spaces:
        points, hyperplanes = ctx.subspace_masks(space)
        assert points == sum(1 << p.index for p in ctx.subspace_points(space))
        assert hyperplanes == sum(1 << p.index for p in ctx.subspace_points(ctx.dual(space)))
    pt = ctx.point(5)
    assert ctx.subspace_masks(pt) == ctx.subspace_masks(Subspace(0, (pt.coords,)))


@pytest.mark.parametrize("q,n", [(4, 2), (8, 2), (9, 2), (2, 3), (3, 3), (2, 5)])
def test_iter_subspace_masks_match_subspace_masks_unmemoized(q, n):
    # iter_subspace_masks on a fresh context, so that every mask is read off
    # the echelon-row ordinals rather than the memo that subspace_masks fills
    fresh = GeometryContext(field_for_order(q), n)
    ctx = GeometryContext(field_for_order(q), n)
    for m in range(n + 1):
        assert list(fresh.iter_subspace_masks(m)) == \
            [(s, *ctx.subspace_masks(s)) for s in ctx.subspaces(m)], (q, n, m)


def test_table_budget():
    # the table of PG(5,16) would hold 1,118,481^2 bits
    ctx = GeometryContext(field_for_order(16), 5)
    with pytest.raises(BudgetExceeded, match="point-hyperplane table"):
        ctx.hyperplane_table()


def test_subspace_out_of_range(pg32):
    with pytest.raises(InputError, match="need 0 <= m <= 3, got m = 4"):
        pg32.subspaces(4)
    with pytest.raises(InputError, match="need 0 <= m <= 3, got m = -1"):
        pg32.subspaces(-1)


@pytest.mark.parametrize("field,n", [(Field(2), 3), (Field(2, 2), 2)],
                         ids=["pg32", "pg24"])
def test_extensions(field, n):
    ctx = GeometryContext(field, n)
    for d in range(-1, n):
        for base in ([EMPTY_SUBSPACE] if d == -1 else ctx.subspaces(d)):
            # the whole geometry, then every ambient space two steps up
            every = list(ctx.extensions(base, ctx.whole_space()))
            ambients = {ctx.whole_space()}
            for mid in every:
                ambients.update(ctx.extensions(mid, ctx.whole_space()))
            for ambient in ambients:
                exts = list(ctx.extensions(base, ambient))
                count = theta(ambient.dim - d - 1, ctx.q)
                assert len(exts) == len(set(exts)) == count
                assert all(e.dim == d + 1 and ctx.contains(e, base)
                           and ctx.contains(ambient, e) for e in exts)
                firsts = [min(p.index for p in ctx.subspace_points(e)
                              if not ctx.contains(base, p)) for e in exts]
                assert firsts == sorted(firsts)
                assert exts == [e for e in every if ctx.contains(ambient, e)]


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 5)])
def test_hull(q, n):
    # the span of the parts, then the first space over it in extensions
    # order, step by step up to the target dimension
    ctx = GeometryContext(Field(q), n)
    rng = random.Random(q * 10 + n)
    points = ctx.points()
    for _ in range(12):
        parts = rng.sample(points, rng.randint(0, n + 1))
        if parts and rng.random() < 0.5:
            parts[0] = ctx.span(parts[0], rng.choice(points))
        for dim in range(-1, n + 1):
            expected = ctx.span(*parts)
            while expected.dim < dim:
                expected = next(ctx.extensions(expected, ctx.whole_space()))
            hull = ctx.hull(iter(parts), dim)
            assert hull == expected
            assert hull.dim == max(dim, ctx.span(*parts).dim)
            assert all(ctx.contains(hull, part) for part in parts)
