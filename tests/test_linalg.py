"""Exact linear algebra: hand-worked values plus sympy as a second route."""

import functools
import math
from fractions import Fraction

import sympy
from hypothesis import Phase, given, settings, strategies as st

import pytest

from ncwb.linalg import (
    Echelon, Matrix, Subspace, _dense_rows, affine_solutions,
    block_combination,
    blockwise_product, column_blocks, frac, hstack, intertwiner_rows,
    kernel, kron, linear_combination, null_rules, rank, solve, span_closure,
    closure_under_maps, restrict_to_kernel, vector,
)

from helpers import (
    DenseMatrix, affine_solutions_by_reelimination, apply_dense,
    closure_by_vectors, cols, coords_dense, dense_linear_combination, inverse,
    intertwiner_rows_by_kron, kernel_by_reelimination,
    linear_combination_dense, matmul_dense, rref, unimodular_matrices,
)

F = Fraction


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.nrows, m.ncols,
                        lambda i, j: sympy.Rational(m.rows[i][j]))


def test_frac_rejects_float():
    try:
        frac(0.5)
    except TypeError:
        pass
    else:
        raise AssertionError("float must not coerce")


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)).is_zero()


def test_solve_diagonal():
    a = Matrix([[2, 0], [0, 3]])
    assert solve(a, (1, 1)) == (F(1, 2), F(1, 3))


def test_kernel_sum_row():
    k = kernel(Matrix([[1, 1]]))
    assert k.basis == ((F(1), F(-1)),)


def test_solve_inconsistent():
    a = Matrix([[1, 1], [2, 2]])
    assert solve(a, (1, 3)) is None


def test_solve_underdetermined_picks_particular():
    a = Matrix([[1, 1]])
    x = solve(a, (5,))
    assert x is not None and a.apply(x) == (F(5),)


def test_rref_is_idempotent():
    m = Matrix([[2, 4, 6], [1, 2, 4], [0, 0, 1]])
    r1, piv = rref(m)
    r2, piv2 = rref(r1)
    assert r1 == r2 and piv == piv2


def test_subspace_canonical_under_reordering():
    vs = [(1, 2, 3), (0, 1, 1), (1, 3, 4)]
    a = Subspace.from_vectors(3, vs)
    b = Subspace.from_vectors(3, list(reversed(vs)))
    assert a == b
    c = Subspace.from_vectors(3, [vector(v) for v in [(2, 4, 6), (0, 3, 3)]])
    assert a == c


def test_span_closure_matrix_units():
    # E12, E21 generate all of M2 under multiplication
    e12 = Matrix([[0, 1], [0, 0]]).flatten()
    e21 = Matrix([[0, 0], [1, 0]]).flatten()

    def step(u, v):
        return (Matrix.from_flat(u, 2, 2) @ Matrix.from_flat(v, 2, 2)).flatten()

    s = span_closure([e12, e21], step, 4)
    assert s.dim == 4


def test_span_closure_empty_seed():
    s = span_closure([], lambda u, v: u, 7)
    assert s.is_zero()


def test_span_closure_idempotent():
    e12 = Matrix([[0, 1], [0, 0]]).flatten()
    e21 = Matrix([[0, 0], [1, 0]]).flatten()

    def step(u, v):
        return (Matrix.from_flat(u, 2, 2) @ Matrix.from_flat(v, 2, 2)).flatten()

    s = span_closure([e12, e21], step, 4)
    again = span_closure(list(s.basis), step, 4)
    assert s == again


def test_closure_under_maps():
    # the maps act on row vectors: e0 shift^T = e1, e1 shift^T = e2
    shift = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    s = closure_under_maps(Matrix([[1, 0, 0]]), [shift.transpose()],
                           shape=(1, 3))
    assert s.dim == 3
    assert closure_under_maps(Matrix([[0, 0, 1]]), [shift.transpose()],
                              shape=(1, 3)) \
        == Subspace.from_vectors(3, [(0, 0, 1)])
    assert closure_under_maps(Matrix.zeros(0, 3), [shift],
                              shape=(1, 3)).is_zero()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3), st.data())
def test_closure_under_maps_matches_the_vector_worklist(w, nseed, nmaps,
                                                       data):
    seed = draw_matrix(data, nseed, w)
    maps = [draw_matrix(data, w, w) for _ in range(nmaps)]
    # v m for a row vector v is m^T applied to v
    assert closure_under_maps(seed, maps, shape=(1, w)) \
        == closure_by_vectors(seed.rows, [m.transpose().apply for m in maps],
                              w)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 3), st.data())
def test_closure_under_matrix_factors_matches_the_vector_worklist(
        r, c, nseed, nright, data):
    # each row is an r x c matrix E, mapped to E m
    seed = draw_matrix(data, nseed, r * c)
    right = [draw_matrix(data, c, c) for _ in range(nright)]

    def times(m):
        def image(v):
            return (Matrix.from_flat(v, r, c) @ m).flatten()
        return image

    dims = []
    closure = closure_under_maps(seed, right, shape=(r, c), dims=dims)
    assert closure == closure_by_vectors(
        seed.rows, [times(m) for m in right], r * c)
    # the dimension after each level that grew the span
    assert dims == sorted(set(dims))
    assert dims[-1:] == ([closure.dim] if closure.dim else [])


def test_closure_under_maps_refuses_a_shape_of_another_size():
    with pytest.raises(ValueError, match="^rows of 4 entries are not 3x1 "
                       "matrices$"):
        closure_under_maps(Matrix.zeros(1, 4), [], shape=(3, 1))


def test_closure_under_maps_records_the_dimension_of_each_level():
    # e0 -> e1 -> e2 one level at a time; the zero seed grows nothing
    shift = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    dims = []
    closure_under_maps(Matrix([[1, 0, 0]]), [shift], shape=(1, 3),
                       dims=dims)
    assert dims == [1, 2, 3]
    dims = []
    closure_under_maps(Matrix.zeros(1, 3), [shift], shape=(1, 3), dims=dims)
    assert dims == []


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.data())
def test_block_combination_is_the_product_with_the_kron_factor(nr, k, j, w,
                                                              data):
    # zero-width blocks included, as for blockwise_product
    m, c = draw_matrix(data, nr, k * w), draw_matrix(data, k, j)
    got = block_combination(m, c, w)
    assert (got.nrows, got.ncols) == (nr, j * w)
    assert got == m @ kron(c, Matrix.identity(w))
    if w:
        assert hstack(column_blocks(got, w), nr) == got
        blocks = column_blocks(m, w)
        assert len(blocks) == k and hstack(blocks, nr) == m
        for b, cj in zip(column_blocks(got, w), cols(c)):
            assert b == linear_combination(cj, blocks, nr, w)


def test_block_combination_checks_its_shape():
    with pytest.raises(ValueError):
        block_combination(Matrix.zeros(2, 5), Matrix.identity(2), 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.data())
def test_blockwise_product_is_the_product_with_the_kron_factor(nr, k, q, w,
                                                              data):
    # zero-width blocks included: a bimodule of dimension 0 gives them
    m, b = draw_matrix(data, nr, k * q), draw_matrix(data, q, w)
    got = blockwise_product(m, b, k)
    assert (got.nrows, got.ncols) == (nr, k * w)
    assert got == m @ kron(Matrix.identity(k), b)
    if q and w:
        for mb, gb in zip(column_blocks(m, q), column_blocks(got, w)):
            assert gb == mb @ b


def test_blockwise_product_checks_its_shape():
    with pytest.raises(ValueError, match="^shape mismatch: Matrix\\(2x5\\) is "
                       "not a row of 2 blocks of width 2$"):
        blockwise_product(Matrix.zeros(2, 5), Matrix.identity(2), 2)


# ---- the two work-row accumulators of the product kernels -------------

# the drawn output width and inner dimension per accumulator: at most two
# non-zeros a row on both sides and an output width of 9 or more keep a
# product on the dict path; a left factor with no zero and a right one at
# least half non-zero put it on the dense path, at any width
REGIMES = {"dict": dict(sparse=True, width=(9, 40), inner=(1, 40)),
           "dense": dict(sparse=False, width=(1, 40), inner=(1, 6))}


def draw_operand(data, nr, nc, regime, left):
    """nr x nc, each row non-zero integers over its own drawn denominator
    up to 6, entries at most 4 in size, so denominators mix within and
    across rows: for "dict" at most two non-zeros a row; for "dense" no
    zero on the left, at most nc // 2 on the right."""
    cols = st.integers(0, max(nc - 1, 0))
    rows = []
    for _ in range(nr):
        den = data.draw(st.integers(1, 6))
        # the non-zero numerators in [-4 den, 4 den], mapped, not filtered:
        # a filter that misses three times drops the whole example, the
        # widest most often
        nums = st.integers(-4 * den, 4 * den - 1).map(lambda x: x + (x >= 0))
        if REGIMES[regime]["sparse"]:
            hits = data.draw(st.dictionaries(cols, nums,
                                             max_size=min(nc, 2)))
            rows.append([F(hits.get(j, 0), den) for j in range(nc)])
            continue
        row = data.draw(st.lists(nums, min_size=nc, max_size=nc))
        zeros = set() if left else data.draw(st.sets(cols,
                                                     max_size=nc // 2))
        rows.append([0 if j in zeros else F(x, den)
                     for j, x in enumerate(row)])
    return Matrix(rows, ncols=nc)


# hypothesis's explain phase re-runs a failing example many times to
# point at the lines involved: on a planted fault in a kernel's dense path
# it took over a minute before the failure was reported
NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


def assert_on_the_path(regime, a, b, width):
    assert _dense_rows(a.int_rows()[1], b.int_rows()[1], width) \
        is (regime == "dense")


@pytest.mark.parametrize("regime", sorted(REGIMES))
@settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
@given(st.integers(1, 6), st.data())
def test_product_matches_the_fraction_reference_on_both_paths(regime, nr,
                                                              data):
    inner = data.draw(st.integers(*REGIMES[regime]["inner"]))
    w = data.draw(st.integers(*REGIMES[regime]["width"]))
    a = draw_operand(data, nr, inner, regime, left=True)
    b = draw_operand(data, inner, w, regime, left=False)
    assert_on_the_path(regime, a, b, w)
    assert a @ b == matmul_dense(a, b)


@pytest.mark.parametrize("regime", sorted(REGIMES))
@settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.data())
def test_block_kernels_match_the_kron_factor_on_both_paths(regime, nr, k,
                                                           width, data):
    # block_combination: k blocks of width columns times c (x) I_width;
    # blockwise_product: j blocks of k columns times I_j (x) b.  Either
    # output is j blocks of width columns
    lo, hi = REGIMES[regime]["width"]
    j = data.draw(st.integers(-(-lo // width), hi // width))
    m = draw_operand(data, nr, k * width, regime, left=True)
    c = draw_operand(data, k, j, regime, left=False)
    assert_on_the_path(regime, m, c, j * width)
    factor = kron(c, Matrix.identity(width))
    assert block_combination(m, c, width) == m @ factor \
        == matmul_dense(m, factor)
    m = draw_operand(data, nr, j * k, regime, left=True)
    b = draw_operand(data, k, width, regime, left=False)
    assert_on_the_path(regime, m, b, j * width)
    factor = kron(Matrix.identity(j), b)
    assert blockwise_product(m, b, j) == m @ factor \
        == matmul_dense(m, factor)


def test_a_dense_work_row_keeps_its_non_zero_entries_in_order():
    # the row cancels at columns 0 and 2
    a, b = Matrix([[1, 1]]), Matrix([[1, 2, F(1, 2)], [-1, 0, F(-1, 2)]])
    assert _dense_rows(a.int_rows()[1], b.int_rows()[1], 3)
    assert (a @ b).int_rows() == (1, (((1, 2),),))


def test_a_dict_work_row_drops_its_cancelled_entries():
    # the factors above, b's last column moved to 11 of 12: the row
    # cancels at columns 0 and 11
    a = Matrix([[1, 1]])
    b = Matrix.from_int_rows([(2, {0: 2, 1: 4, 11: 1}), (2, {0: -2, 11: -1})],
                             12)
    assert not _dense_rows(a.int_rows()[1], b.int_rows()[1], 12)
    assert (a @ b).int_rows() == (1, (((1, 2),),))


def test_restrict_to_kernel():
    space = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    m = Matrix([[1, 1, 0]])
    r = restrict_to_kernel(space, m)
    assert r.dim == 1 and coords_dense(r, (1, -1, 0)) is not None


def test_echelon_span_coords():
    span = Echelon(3, [(1, 1, 0), (0, 0, 2)]).subspace()
    c, bad = span.coords_int(Matrix([(3, 3, 4), (1, 0, 0)]))
    assert c is None and bad == 1
    c, bad = span.coords_int(Matrix([(3, 3, 4)]))
    got = [F(0)] * 3
    for ci, b in zip(c.rows[0], span.basis):
        got = [g + ci * x for g, x in zip(got, b)]
    assert bad is None and tuple(got) == (F(3), F(3), F(4))


def test_kron_shapes_and_values():
    a = Matrix([[1, 2]])
    b = Matrix([[1], [3]])
    k = kron(a, b)
    assert (k.nrows, k.ncols) == (2, 2)
    assert k.rows == ((F(1), F(2)), (F(3), F(6)))


small_rationals = st.fractions(min_value=-4, max_value=4,
                               max_denominator=3).map(F)


# half the drawn entries are zero, so the zero-skipping paths get exercised
sparse_entries = st.one_of(st.just(F(0)), small_rationals)


def draw_matrix(data, nr, nc):
    return Matrix([[data.draw(sparse_entries) for _ in range(nc)]
                   for _ in range(nr)], ncols=nc)


@st.composite
def small_matrix(draw):
    nr = draw(st.integers(min_value=1, max_value=4))
    nc = draw(st.integers(min_value=1, max_value=4))
    rows = [[draw(small_rationals) for _ in range(nc)] for _ in range(nr)]
    return Matrix(rows)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_nullity_and_sympy_agreement(m):
    k = kernel(m)
    assert rank(m) + k.dim == m.ncols
    sm = to_sympy(m)
    assert len(sm.nullspace()) == k.dim
    for b in k.basis:
        assert all(x == 0 for x in m.apply(b))
    ours, piv = rref(m)
    srref, spiv = sm.rref()
    assert tuple(spiv) == piv
    trimmed = [r for r in srref.tolist() if any(x != 0 for x in r)]
    assert [[F(int(x.p), int(x.q)) for x in r] for r in trimmed] \
        == [list(r) for r in ours.rows]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_product_matches_sympy_on_sparse_and_empty_shapes(nr, inner, nc,
                                                         data):
    # @ skips zero entries; every dimension may be empty
    a, b = draw_matrix(data, nr, inner), draw_matrix(data, inner, nc)
    p = a @ b
    assert (p.nrows, p.ncols) == (nr, nc)
    assert to_sympy(p) == to_sympy(a) * to_sympy(b)


@settings(max_examples=40, deadline=None)
@given(small_matrix(), st.data())
def test_solve_matches_matrix_action(m, data):
    x = [data.draw(small_rationals) for _ in range(m.ncols)]
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == tuple(b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_intertwiner_rows_match_the_kron_form(p, q, data):
    a, b = draw_matrix(data, q, q), draw_matrix(data, p, p)
    rows = intertwiner_rows(a, b)
    assert Matrix.from_int_rows(rows, p * q).rows \
        == tuple(intertwiner_rows_by_kron(a, b))
    # and they cut out exactly the p x q matrices with X a = b X
    x = draw_matrix(data, p, q)
    flat = x.flatten()
    holds = all(sum(c * flat[j] for j, c in r.items()) == 0 for _, r in rows)
    assert holds == (x @ a == b @ x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.data())
def test_linear_combination_is_a_sum_of_scaled_matrices(nr, nc, k, data):
    terms = [draw_matrix(data, nr, nc) for _ in range(k)]
    coeffs = [data.draw(sparse_entries) for _ in range(k)]
    expected = Matrix.zeros(nr, nc)
    for c, t in zip(coeffs, terms):
        expected = expected + t.scale(c)
    assert linear_combination(coeffs, terms, nr, nc) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_echelon_matches_sympy_rref(nr, width, data):
    m = draw_matrix(data, nr, width)
    ech = Echelon(width)
    for r in m.rows:
        ech.insert(r)
        if data.draw(st.booleans()):
            ech.subspace()      # reading between inserts changes nothing
    srref, spiv = to_sympy(m).rref()
    trimmed = [r for r in srref.tolist() if any(x != 0 for x in r)]
    assert tuple(ech.pivots) == tuple(spiv)
    assert [list(r) for r in ech.subspace().basis] \
        == [[F(int(x.p), int(x.q)) for x in r] for r in trimmed]


# numerators up to 2^80 and half the entries zero
big_rationals = st.builds(F, st.integers(-2 ** 80, 2 ** 80),
                          st.integers(1, 2 ** 16))
big_entries = st.one_of(st.just(F(0)), big_rationals)


def assert_reduced_primitive(ech):
    """Every stored row is primitive, starts at its pivot with a positive
    entry and is zero at every other pivot."""
    pivots = ech.pivots
    for row, pc in zip(ech.rows, pivots):
        assert all(row.values()) and min(row) == pc and row[pc] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(q in row for q in pivots if q != pc)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 20), st.data())
def test_echelon_on_large_redundant_draws(width, nr, data):
    rows = []
    for _ in range(nr):
        if rows and data.draw(st.booleans()):
            # a random combination of earlier rows
            v = [F(0)] * width
            for k in data.draw(st.lists(st.integers(0, len(rows) - 1),
                                        min_size=1, max_size=4)):
                c = data.draw(big_rationals)
                v = [x + c * y for x, y in zip(v, rows[k])]
            rows.append(v)
        else:
            rows.append([data.draw(big_entries) for _ in range(width)])
    ech = Echelon(width)
    for r in rows:
        ech.insert(r)
        assert_reduced_primitive(ech)
    srref, spiv = to_sympy(Matrix(rows, ncols=width)).rref()
    trimmed = [r for r in srref.tolist() if any(x != 0 for x in r)]
    assert tuple(ech.pivots) == tuple(spiv)
    assert [list(r) for r in ech.subspace().basis] \
        == [[F(int(x.p), int(x.q)) for x in r] for r in trimmed]
    order = data.draw(st.permutations(range(nr)))
    assert Echelon(width, [rows[k] for k in order]).subspace() \
        == ech.subspace()


# vectors mix Fractions, plain ints and zeros; apply takes all of them
vector_entries = st.one_of(sparse_entries, st.integers(-3, 3))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_apply_matches_the_dense_route(nr, nc, data):
    m = draw_matrix(data, nr, nc)
    v = [data.draw(vector_entries) for _ in range(nc)]
    got = m.apply(v)
    assert got == apply_dense(m, v)
    assert all(type(x) is Fraction for x in got)


def read_coords(space, v):
    """The coordinates of v over the basis of space, read by coords_int,
    or None outside the span."""
    c, _ = space.coords_int(Matrix([v], ncols=space.ambient_dim))
    return None if c is None else list(c.rows[0])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.booleans(), st.data())
def test_coords_match_the_dense_route(k, width, inside, data):
    space = Subspace.from_vectors(width, draw_matrix(data, k, width).rows)
    if inside:
        coeffs = [data.draw(vector_entries) for _ in range(space.dim)]
        v = space.element(coeffs)
    else:
        v = [data.draw(vector_entries) for _ in range(width)]
    got = read_coords(space, v)
    assert got == coords_dense(space, v)
    if inside:
        assert got == [frac(c) for c in coeffs]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_batch_coords_match_the_per_row_read(k, width, nr, data):
    # the rows: combinations of the basis, rows drawn freely (usually
    # outside), all-zero rows; nr = 0 is a matrix with no rows
    space = Subspace.from_vectors(width, draw_mixed(data, k, width).rows)
    rows = []
    for _ in range(nr):
        kind = data.draw(st.sampled_from(["inside", "free", "zero"]))
        if kind == "inside":
            rows.append(space.element(
                [data.draw(mixed_entries) for _ in range(space.dim)]))
        elif kind == "free":
            rows.append([data.draw(mixed_entries) for _ in range(width)])
        else:
            rows.append([0] * width)
    m = Matrix(rows, ncols=width)
    per_row = [read_coords(space, r) for r in m.rows]
    assert per_row == [coords_dense(space, r) for r in m.rows]
    c, bad = space.coords_int(m)
    if None in per_row:
        assert c is None and bad == per_row.index(None)
    else:
        assert bad is None
        assert (c.nrows, c.ncols) == (nr, space.dim)
        assert [list(r) for r in c.rows] == per_row
        assert c @ space.matrix == m
    with pytest.raises(ValueError):
        space.coords_int(Matrix.zeros(nr, width + 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.booleans(), st.data())
def test_affine_solutions_match_sympy(nr, nc, consistent, data):
    m = draw_matrix(data, nr, nc)
    if consistent:
        b = m.apply([data.draw(vector_entries) for _ in range(nc)])
    else:
        b = [data.draw(vector_entries) for _ in range(nr)]
    x, null = affine_solutions(m, b)
    sm, sb = to_sympy(m), sympy.Matrix(nr, 1, [sympy.Rational(v) for v in b])
    solvable = sm.rank() == sm.row_join(sb).rank()
    assert (x is not None) == solvable
    if x is not None:
        assert m.apply(x) == vector(b)
    expected = Subspace.from_vectors(
        nc, [[F(int(y.p), int(y.q)) for y in v] for v in sm.nullspace()])
    assert null == expected == kernel(m)
    assert solve(m, b) == x


def draw_shaped_matrix(data) -> Matrix:
    """A half-zero matrix that is wide (up to 4 x 12), tall (up to 10 x 4)
    or rank-deficient: rows and columns of a smaller one repeated, some
    scaled."""
    shape = data.draw(st.sampled_from(("wide", "tall", "deficient")))
    if shape == "wide":
        return draw_matrix(data, data.draw(st.integers(0, 4)),
                           data.draw(st.integers(0, 12)))
    if shape == "tall":
        return draw_matrix(data, data.draw(st.integers(5, 10)),
                           data.draw(st.integers(0, 4)))
    base = draw_matrix(data, data.draw(st.integers(1, 3)),
                       data.draw(st.integers(1, 4)))
    rows = [list(r) for r in base.rows]
    for _ in range(data.draw(st.integers(0, 3))):
        c = data.draw(small_rationals)
        rows.append([c * x for x in data.draw(st.sampled_from(rows))])
    for _ in range(data.draw(st.integers(0, 4))):
        j = data.draw(st.integers(0, len(rows[0]) - 1))
        c = data.draw(small_rationals)
        at = data.draw(st.integers(0, len(rows[0])))
        for r in rows:
            r.insert(at, c * r[j])
    return Matrix(rows)


def sympy_null_space(m: Matrix) -> Subspace:
    return Subspace.from_vectors(
        m.ncols, [[F(int(y.p), int(y.q)) for y in v]
                  for v in to_sympy(m).nullspace()])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_matches_the_reelimination_oracle_and_sympy(data):
    m = draw_shaped_matrix(data)
    got, oracle = kernel(m), kernel_by_reelimination(m)
    assert got.basis == oracle.basis
    assert got.pivots == oracle.pivots
    assert got == sympy_null_space(m)
    assert rank(m) + got.dim == m.ncols


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.data())
def test_null_rules_read_raw_rows_as_their_reduced_echelon(n, data):
    """kernel and find_relations hand null_rules their rows unreduced:
    duplicate, zero, scaled and dependent rows, in any order, give the
    rules of the reduced echelon rows of their span."""
    entry = st.integers(-3, 3)
    rows = [{j: data.draw(entry) for j in range(n)
             if data.draw(st.booleans())}
            for _ in range(data.draw(st.integers(0, 4)))]
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["duplicate", "zero", "sum"]))
        if kind == "zero" or not rows:
            rows.append({j: 0 for j in range(n) if data.draw(st.booleans())})
        elif kind == "duplicate":
            rows.append(dict(data.draw(st.sampled_from(rows))))
        else:
            u, v = data.draw(st.sampled_from(rows)), \
                data.draw(st.sampled_from(rows))
            a, b = data.draw(entry), data.draw(entry)
            rows.append({j: a * u.get(j, 0) + b * v.get(j, 0)
                         for j in set(u) | set(v)})
    rows = data.draw(st.permutations(rows))
    ech = Echelon(n)
    for row in rows:
        ech.insert_int(row)
    assert null_rules(n, rows) == null_rules(n, ech.rows)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_affine_solutions_match_the_reelimination_oracle(consistent, data):
    m = draw_shaped_matrix(data)
    if consistent:
        b = m.apply([data.draw(vector_entries) for _ in range(m.ncols)])
    else:
        b = [data.draw(vector_entries) for _ in range(m.nrows)]
    x, null = affine_solutions(m, b)
    ox, onull = affine_solutions_by_reelimination(m, b)
    assert x == ox
    assert solve(m, b) == ox
    assert (null.basis, null.pivots) == (onull.basis, onull.pivots)


def test_shape_mismatches_raise_value_error():
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).apply((1,))
    with pytest.raises(ValueError):
        affine_solutions(Matrix([[1, 2]]), (1, 2))


# ---- integer kernels against the Fraction loops they replaced ----------

# denominators up to 12 in one matrix, so no common denominator is 1
mixed_entries = st.one_of(
    st.just(F(0)), st.integers(-5, 5),
    st.fractions(min_value=-9, max_value=9, max_denominator=12).map(F))


def draw_mixed(data, nr, nc):
    return Matrix([[data.draw(mixed_entries) for _ in range(nc)]
                   for _ in range(nr)], ncols=nc)


def all_fractions(m: Matrix) -> bool:
    return all(type(x) is Fraction for r in m.rows for x in r)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_kernels_match_the_fraction_loops_on_unimodular_draws(n, data):
    p, q = data.draw(unimodular_matrices(n)), data.draw(unimodular_matrices(n))
    pinv = inverse(p)
    c = data.draw(mixed_entries)
    for a, b in ((p, q), (pinv, q.scale(c)), (q, pinv)):
        prod = a @ b
        assert prod == matmul_dense(a, b)
        assert all_fractions(prod)
    assert pinv @ p == Matrix.identity(n)
    v = [data.draw(mixed_entries) for _ in range(n)]
    assert p.apply(v) == apply_dense(p, v)
    coeffs = [data.draw(mixed_entries) for _ in range(3)]
    terms = [p, pinv, q]
    got = linear_combination(coeffs, terms, n, n)
    assert got == linear_combination_dense(coeffs, terms, n, n)
    assert all_fractions(got)
    space = Subspace.from_vectors(n, p.rows[:data.draw(st.integers(0, n))])
    assert read_coords(space, v) == coords_dense(space, v)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_kernels_match_the_fraction_loops_on_mixed_denominators(nr, inner,
                                                               nc, data):
    a, b = draw_mixed(data, nr, inner), draw_mixed(data, inner, nc)
    prod = a @ b
    assert prod == matmul_dense(a, b)
    assert all_fractions(prod)
    v = [data.draw(mixed_entries) for _ in range(inner)]
    got = a.apply(v)
    assert got == apply_dense(a, v)
    assert all(type(x) is Fraction for x in got)
    k = data.draw(st.integers(0, 3))
    terms = [draw_mixed(data, nr, nc) for _ in range(k)]
    coeffs = [data.draw(mixed_entries) for _ in range(k)]
    lc = linear_combination(coeffs, terms, nr, nc)
    assert lc == linear_combination_dense(coeffs, terms, nr, nc)
    assert all_fractions(lc)
    space = Subspace.from_vectors(inner, draw_mixed(data, k, inner).rows)
    w = space.element([data.draw(mixed_entries) for _ in range(space.dim)])
    for x in (v, w):
        assert read_coords(space, x) == coords_dense(space, x)
    assert read_coords(space, w) is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_a_reused_operand_keeps_its_integer_rows(n, data):
    m = draw_mixed(data, n, n)
    cached = m.int_rows()
    den, rows = cached
    assert [[F(num, den) for _, num in r] for r in rows] \
        == [[x for x in r if x] for r in m.rows]
    assert [[j for j, _ in r] for r in rows] \
        == [[j for j, x in enumerate(r) if x] for r in m.rows]
    for _ in range(6):
        other = draw_mixed(data, n, n)
        assert m @ other == matmul_dense(m, other)
        assert other @ m == matmul_dense(other, m)
        assert m @ m == matmul_dense(m, m)
        v = [data.draw(mixed_entries) for _ in range(n)]
        assert m.apply(v) == apply_dense(m, v)
        coeffs = [data.draw(mixed_entries) for _ in range(3)]
        assert linear_combination(coeffs, [m, other, m], n, n) \
            == linear_combination_dense(coeffs, [m, other, m], n, n)
    assert m.int_rows() is cached


def test_floats_raise_type_error_in_every_kernel():
    m = Matrix([[1, F(1, 2)], [0, 3]])
    with pytest.raises(TypeError):
        m @ 0.5
    with pytest.raises(TypeError):
        m.apply((0.5, 1))
    with pytest.raises(TypeError):
        m.apply((0.0, 1))
    with pytest.raises(TypeError):
        linear_combination((0.5,), (m,), 2, 2)
    with pytest.raises(TypeError):
        solve(m, (0.5, 1))
    with pytest.raises(TypeError):
        Echelon(2).insert((0.5, 1))
    with pytest.raises(TypeError):
        Matrix([[1, 0.5]])


def test_echelon_insert_takes_ints_fractions_and_strings():
    ech = Echelon(3)
    assert ech.insert(("1/2", 1, F(3, 4)))
    assert not ech.insert((2, 4, 3))
    assert ech.insert(iter((0, "0", F(-2, 3))))
    assert ech.subspace().basis == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))


# ---- the sparse Matrix against the dense Fraction oracle ---------------

@functools.lru_cache(maxsize=None)
def mixed_row(nc, den):
    """nc integers in [-9 den, 9 den] over den, plain ints when den is 1."""
    return st.lists(st.integers(-9 * den, 9 * den), min_size=nc,
                    max_size=nc).map(
        lambda nums: [x if den == 1 else F(x, den) for x in nums])


@functools.lru_cache(maxsize=None)
def mixed_rows(nr, nc):
    """nr rows in one draw, each over its own denominator, one of a few up
    to 12, so denominators mix within and across rows.  The strategies
    are built once per shape: building one costs more than a draw."""
    return st.lists(st.sampled_from((12, 1, 10, 7, 6, 4)).flatmap(
        functools.partial(mixed_row, nc)), min_size=nr, max_size=nr)


def draw_both(data, nr, nc):
    """The same drawn entries as a Matrix and as a DenseMatrix, sometimes
    with a zero row and a zero column."""
    rows = data.draw(mixed_rows(nr, nc))
    if nr and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, nr - 1))] = [0] * nc
    if nc and data.draw(st.booleans()):
        j = data.draw(st.integers(0, nc - 1))
        for r in rows:
            r[j] = 0
    return Matrix(rows, ncols=nc), DenseMatrix(rows, ncols=nc)


def assert_same(m, d):
    """Every view of m agrees with the oracle d."""
    assert (m.nrows, m.ncols) == (d.nrows, d.ncols)
    assert m.rows == d.rows
    assert all(type(x) is Fraction for r in m.rows for x in r)
    assert [m.col(j) for j in range(m.ncols)] == cols(m) == d.cols()
    assert m.flatten() == d.flatten()
    assert m.int_rows() == d.int_rows()
    assert m.flat_int() == d.flat_int()
    assert m.is_zero() == d.is_zero()


def same_through_other_denominators(m, data):
    """m rebuilt through denominators it does not need."""
    den, rows = m.int_rows()
    k = data.draw(st.integers(2, 6))
    third = F(1, data.draw(st.integers(2, 5)))
    return (Matrix.from_int_rows([(den * k, [(j, x * k) for j, x in r])
                                  for r in rows], m.ncols),
            m.scale(third) + m.scale(1 - third),
            m.scale(third).scale(1 / third))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_sparse_matrix_matches_the_dense_oracle(nr, inner, nc, data):
    a, da = draw_both(data, nr, inner)
    b, db = draw_both(data, inner, nc)
    c, dc = draw_both(data, nr, inner)
    for m, d in ((a, da), (b, db), (c, dc)):
        assert_same(m, d)
    assert_same(a @ b, da @ db)
    v = [data.draw(vector_entries) for _ in range(inner)]
    assert a.apply(v) == da.apply(v)
    assert all(type(x) is Fraction for x in a.apply(v))
    assert_same(a + c, da + dc)
    assert_same(a - c, da - dc)
    assert_same(-a, -da)
    s = data.draw(mixed_entries)
    assert_same(a.scale(s), da.scale(s))
    assert_same(a.transpose(), da.transpose())
    # flat(L X R) = flat(X) (L^T (x) R), Van Loan's identity, with L = a,
    # X = b and a drawn R
    r, dr = draw_both(data, nc, nr)
    assert_same(Matrix([b.flatten()], ncols=inner * nc)
                @ kron(a.transpose(), r),
                DenseMatrix([(da @ db @ dr).flatten()], ncols=nr * nr))
    ab, dab = a @ b, da @ db
    assert_same(hstack([a, c, ab], nr), DenseMatrix(
        [x + y + z for x, y, z in zip(da.rows, dc.rows, dab.rows)],
        ncols=2 * inner + nc))
    assert_same(hstack([], nr), DenseMatrix([()] * nr, ncols=0))
    with pytest.raises(ValueError):
        hstack([a, Matrix.zeros(nr + 1, 1)], nr)
    k = data.draw(st.integers(0, 3))
    terms = [draw_both(data, nr, inner) for _ in range(k)]
    coeffs = [data.draw(mixed_entries) for _ in range(k)]
    assert_same(linear_combination(coeffs, [t for t, _ in terms], nr, inner),
                dense_linear_combination(coeffs, [t for _, t in terms], nr,
                                         inner))
    with pytest.raises(ValueError):
        linear_combination(coeffs + [1], [t for t, _ in terms], nr, inner)
    assert (a == c) == (da == dc)
    assert (a == c) <= (hash(a) == hash(c))
    for same in same_through_other_denominators(a, data):
        assert_same(same, da)
        assert same == a and hash(same) == hash(a)
