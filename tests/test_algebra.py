"""Algebras, bimodules, duals, map spaces, balanced tensor products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncwb.algebra import (
    Algebra, Bimodule, BimoduleMap, LeftModule, bimodule_map_space,
    check_algebra, check_bimodule, check_bimodule_map, check_left_module,
    direct_sum, left_dual, right_dual, tensor_over_A, transpose,
)
from ncwb.linalg import Matrix, rank

from helpers import (
    check_algebra_by_sc, dual_numbers, matrix_2, multiply_by_sc,
    quantum_plane, truncated_polynomials, upper_triangular_2,
    z2_group_algebra,
)

F = Fraction

ALL_ALGEBRAS = [dual_numbers, z2_group_algebra,
                lambda: truncated_polynomials(4), upper_triangular_2,
                matrix_2, quantum_plane]


@pytest.mark.parametrize("make", ALL_ALGEBRAS)
def test_algebra_laws(make):
    assert check_algebra(make()).ok


def broken_unit_algebra():
    # claims e1 as unit although e1*e2 = 0
    sc = [
        [(1, 0), (0, 0)],
        [(0, 0), (0, 1)],
    ]
    return Algebra(("u", "v"), sc, (1, 0))


def broken_associativity_algebra():
    # t*1 = 1 makes (t*1)*t and t*(1*t) disagree
    sc = [
        [(1, 0), (0, 1)],
        [(1, 0), (0, 0)],
    ]
    return Algebra(("1", "t"), sc, (1, 0))


def test_broken_unit_is_reported():
    rep = check_algebra(broken_unit_algebra())
    assert not rep.ok
    assert any(f.law in ("left-unit", "right-unit") for f in rep.findings)


def test_broken_associativity_is_reported():
    rep = check_algebra(broken_associativity_algebra())
    assert any(f.law == "associativity" for f in rep.findings)


# ---- check_algebra against products formed one scalar at a time -------

def findings(rep):
    return [(f.law, f.witness, f.detail) for f in rep.findings]


@pytest.mark.parametrize("make", [broken_unit_algebra,
                                  broken_associativity_algebra]
                         + ALL_ALGEBRAS)
def test_check_algebra_matches_scalar_oracle(make):
    a = make()
    assert findings(check_algebra(a)) == findings(check_algebra_by_sc(a))


@st.composite
def integer_tables(draw):
    n = draw(st.integers(1, 3))
    entry = st.integers(-1, 1)
    vec = st.lists(entry, min_size=n, max_size=n)
    sc = [[draw(vec) for _ in range(n)] for _ in range(n)]
    return Algebra(tuple("e%d" % i for i in range(n)), sc, draw(vec))


@settings(max_examples=100, deadline=None)
@given(integer_tables(), st.data())
def test_check_algebra_matches_scalar_oracle_on_random_tables(a, data):
    assert findings(check_algebra(a)) == findings(check_algebra_by_sc(a))
    vec = st.lists(st.fractions(-3, 3, max_denominator=3),
                   min_size=a.dim, max_size=a.dim)
    f, g = data.draw(vec), data.draw(vec)
    assert a.multiply(f, g) == multiply_by_sc(a, f, g)


def test_structure_constant_shape_rejected():
    with pytest.raises(ValueError):
        Algebra(("1", "x"), [[(1, 0)]], (1, 0))


def test_element_arithmetic():
    a = dual_numbers()
    one, x = a.basis_element(0), a.basis_element(1)
    assert (x * x).is_zero()
    assert (one + x) * (one - x) == one
    assert 2 * x == x + x
    assert repr(one + 2 * x) == "1 + 2*x"


@pytest.mark.parametrize("make", ALL_ALGEBRAS)
def test_regular_bimodule_laws(make):
    assert check_bimodule(Bimodule.regular(make())).ok


def test_noncommuting_actions_reported():
    a = dual_numbers()
    ident = Matrix.identity(2)
    lx = Matrix([[0, 0], [1, 0]])
    rx = Matrix([[0, 1], [0, 0]])
    m = Bimodule(a, 2, (ident, lx), (ident, rx))
    rep = check_bimodule(m)
    assert [f.law for f in rep.findings] == ["action-commutation"]
    assert rep.findings[0].witness == (1, 1)


def test_zero_bimodule():
    a = dual_numbers()
    z = Bimodule.zero(a)
    assert check_bimodule(z).ok
    assert right_dual(z).dim == 0 and left_dual(z).dim == 0


@pytest.mark.parametrize("make", ALL_ALGEBRAS)
def test_right_dual_of_regular_is_the_algebra(make):
    a = make()
    reg = Bimodule.regular(a)
    d = right_dual(reg)
    assert d.dim == a.dim
    assert check_bimodule(d.bimodule).ok
    # evaluation at 1 identifies the dual with A itself
    iso = BimoduleMap(d.bimodule, reg,
                      Matrix.from_cols([e.apply(a.unit) for e in d.eval_mats],
                                       nrows=a.dim))
    assert check_bimodule_map(iso).ok
    assert rank(iso.matrix) == a.dim
    # under that identification the pairing is plain multiplication
    for k in range(d.dim):
        xk = tuple(1 if t == k else 0 for t in range(d.dim))
        fk = iso.matrix.col(k)
        for j in range(a.dim):
            ej = tuple(1 if t == j else 0 for t in range(a.dim))
            assert d.pairing(xk, ej).coords == multiply_by_sc(a, fk, ej)


def test_left_dual_of_regular_is_the_algebra():
    a = matrix_2()
    d = left_dual(Bimodule.regular(a))
    assert d.dim == a.dim
    assert check_bimodule(d.bimodule).ok


def test_dual_actions_match_twisting_formulas():
    # right dual: <f.X.g, m> = f <X, g.m>; checked through the pairing
    a = upper_triangular_2()
    reg = Bimodule.regular(a)
    d = right_dual(reg)
    for i in range(a.dim):
        ei = tuple(1 if t == i else 0 for t in range(a.dim))
        for k in range(d.dim):
            xk = tuple(1 if t == k else 0 for t in range(d.dim))
            fx = d.bimodule.act_left(ei, xk)
            xg = d.bimodule.act_right(xk, ei)
            for j in range(a.dim):
                ej = tuple(1 if t == j else 0 for t in range(a.dim))
                lhs = d.pairing(fx, ej).coords
                rhs = multiply_by_sc(a, ei, d.pairing(xk, ej).coords)
                assert lhs == rhs
                gm = reg.act_left(ei, ej)
                assert d.pairing(xg, ej).coords == d.eval_of(xk).apply(gm)


def test_bimodule_map_space_dual_numbers():
    a = dual_numbers()
    reg = Bimodule.regular(a)
    s = bimodule_map_space(reg, reg)
    assert s.dim == 2
    for b in s.basis:
        assert check_bimodule_map(
            BimoduleMap(reg, reg, Matrix.from_flat(b, 2, 2))).ok


def test_bimodule_map_space_matrix_algebra_is_scalars():
    a = matrix_2()
    reg = Bimodule.regular(a)
    s = bimodule_map_space(reg, reg)
    assert s.dim == 1
    assert Matrix.from_flat(s.basis[0], 4, 4) == Matrix.identity(4)


def test_sampled_maps_intertwine(n_samples=10):
    rng = random.Random(7)
    a = truncated_polynomials(3)
    reg = Bimodule.regular(a)
    s = bimodule_map_space(reg, reg)
    for _ in range(n_samples):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(s.dim)]
        phi = Matrix.from_flat(s.element(coeffs), a.dim, a.dim)
        assert check_bimodule_map(BimoduleMap(reg, reg, phi)).ok


def test_transpose_on_dual_numbers_regular():
    a = dual_numbers()
    reg = Bimodule.regular(a)
    d = right_dual(reg)
    alpha = BimoduleMap(reg, reg, a.lmul[1])  # multiplication by x
    assert check_bimodule_map(alpha).ok
    at = transpose(alpha, d, d)
    assert check_bimodule_map(at).ok
    # defining property of the dual map, on all basis pairs
    for k in range(d.dim):
        yk = tuple(1 if t == k else 0 for t in range(d.dim))
        for j in range(a.dim):
            ej = tuple(1 if t == j else 0 for t in range(a.dim))
            lhs = d.pairing(at.apply(yk), ej).coords
            rhs = d.pairing(yk, alpha.apply(ej)).coords
            assert lhs == rhs


def test_transpose_of_identity():
    a = upper_triangular_2()
    reg = Bimodule.regular(a)
    d = right_dual(reg)
    ident = BimoduleMap(reg, reg, Matrix.identity(a.dim))
    at = transpose(ident, d, d)
    assert at.matrix == Matrix.identity(d.dim)


def test_transpose_rejects_non_map():
    a = dual_numbers()
    reg = Bimodule.regular(a)
    d = right_dual(reg)
    bad = BimoduleMap(reg, reg, Matrix([[0, 1], [0, 0]]))  # f -> df/dx
    assert not check_bimodule_map(bad).ok
    with pytest.raises(ValueError):
        transpose(bad, d, d)


def test_direct_sum_bimodule():
    a = dual_numbers()
    reg = Bimodule.regular(a)
    s = direct_sum(reg, Bimodule.zero(a))
    assert s.dim == 2 and check_bimodule(s).ok
    s2 = direct_sum(reg, reg)
    assert s2.dim == 4 and check_bimodule(s2).ok
    assert right_dual(s2).dim == 2 * a.dim


@pytest.mark.parametrize("make", [dual_numbers, matrix_2])
def test_tensor_with_free_rank_one_is_the_algebra(make):
    a = make()
    t = tensor_over_A(Bimodule.regular(a), LeftModule.free(a, 1))
    assert t.module.dim == a.dim
    assert check_left_module(t.module).ok
    assert t.module.dim <= a.dim * a.dim


def test_tensor_dimension_bound_and_projection_section():
    a = upper_triangular_2()
    t = tensor_over_A(Bimodule.regular(a), LeftModule.free(a, 2))
    assert t.module.dim <= a.dim * 2 * a.dim
    assert t.projection @ t.lift == Matrix.identity(t.module.dim)


def test_free_left_module_laws():
    a = quantum_plane()
    e = LeftModule.free(a, 2)
    assert check_left_module(e).ok


def _details(rep):
    return {(f.law, f.witness): f.detail for f in rep.findings}


def test_bimodule_findings_name_the_first_differing_entry():
    a = dual_numbers()
    ident, two = Matrix.identity(2), Matrix([[2, 0], [0, 2]])
    lx, rx = Matrix([[0, 0], [1, 0]]), Matrix([[-1, -1], [-1, -1]])
    # the unit acts as 2 on the left, and x acts on the right by a matrix
    # whose square is not zero and which does not commute with x on the left
    got = _details(check_bimodule(Bimodule(a, 2, (two, lx), (ident, rx))))
    assert got[("left-action-product", (0, 1))] \
        == "(1*x).m != 1.(x.m) on m0, coordinate m1: 1 != 2"
    assert got[("right-action-product", (1, 1))] \
        == "m.(x*x) != (m.x).x on m0, coordinate m0: 0 != 2"
    assert got[("action-commutation", (1, 1))] \
        == "x.(m.x) != (x.m).x on m0, coordinate m0: 0 != -1"
    assert got[("left-unital", ())] \
        == "1.m != m on m0, coordinate m0: 2 != 1"
    got = _details(check_bimodule(Bimodule(a, 2, (ident, lx), (two, lx))))
    assert got[("right-unital", ())] \
        == "m.1 != m on m0, coordinate m0: 2 != 1"


def test_left_module_findings_name_the_first_differing_entry():
    a = dual_numbers()
    e = LeftModule(a, 2, (Matrix([[1, 0], [0, 2]]),
                          Matrix([[0, 0], [1, 0]])))
    got = _details(check_left_module(e))
    assert got[("left-action-product", (0, 0))] \
        == "(1*1).m != 1.(1.m) on m1, coordinate m1: 2 != 4"
    assert got[("left-unital", ())] \
        == "1.m != m on m1, coordinate m1: 2 != 1"


def test_bimodule_map_findings_name_the_first_differing_entry():
    a = dual_numbers()
    reg = Bimodule.regular(a)
    swap = BimoduleMap(reg, reg, Matrix([[0, 1], [1, 0]]))
    got = _details(check_bimodule_map(swap))
    assert got[("left-intertwine", (1,))] \
        == "alpha(x.m) != x.alpha(m) on m0, coordinate m0: 1 != 0"
    assert got[("right-intertwine", (1,))] \
        == "alpha(m.x) != alpha(m).x on m0, coordinate m0: 1 != 0"
