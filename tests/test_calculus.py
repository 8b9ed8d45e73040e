"""Leibniz checks, universal one-forms, factorization, generation."""

import pytest
from hypothesis import given, settings, strategies as st

from ncwb.algebra import Algebra, Bimodule, check_bimodule
from ncwb.calculus import (
    DifferentialCalculus, check_leibniz, factor_through_universal,
    is_spanned_by_differential, universal_calculus,
)
from ncwb.catalog import BUILTIN_NAMES, builtin
from ncwb.linalg import Matrix, is_zero_vector
from ncwb.reporting import InvariantError

from helpers import (
    BasisChange, direct_sum, dual_numbers, inner_calculus, kahler_dual_numbers,
    kahler_truncated, leibniz_calculi, matrix_2, quantum_plane,
    spanned_by_differential_on_both_sides, theta_z2, truncated_polynomials,
    unimodular_matrices, universal_calculus_by_kron,
    universal_uniqueness_by_solve, upper_triangular_2, z2_group_algebra,
    zero_calculus,
)


def all_calculi():
    return [
        kahler_dual_numbers(),
        kahler_truncated(4),
        theta_z2(),
        inner_calculus(upper_triangular_2(), (1, 0, 0)),
        inner_calculus(matrix_2(), (1, 0, 0, 0)),
        zero_calculus(z2_group_algebra()),
    ]


@pytest.mark.parametrize("c", all_calculi(), ids=lambda c: repr(c.algebra))
def test_leibniz_holds(c):
    assert check_bimodule(c.bimodule).ok
    assert check_leibniz(c).ok


@pytest.mark.parametrize("c", all_calculi(), ids=lambda c: repr(c.algebra))
def test_differential_kills_unit(c):
    assert is_zero_vector(c.d.apply(c.algebra.unit))


def test_planted_d_of_unit_nonzero_is_reported():
    good = kahler_dual_numbers()
    bad = DifferentialCalculus(good.algebra, good.bimodule, Matrix([[1, 0]]))
    rep = check_leibniz(bad)
    assert not rep.ok
    assert (0, 0) in [f.witness for f in rep.findings]


@pytest.mark.parametrize("make,expect", [
    (dual_numbers, 2),
    (z2_group_algebra, 2),
    (lambda: truncated_polynomials(4), 12),
    (upper_triangular_2, 6),
    (matrix_2, 12),
    (quantum_plane, 30),
])
def test_universal_one_form_dimension(make, expect):
    a = make()
    u = universal_calculus(a)
    assert u.bimodule.dim == expect == a.dim * a.dim - a.dim


def test_universal_dual_numbers_basis():
    # kernel of multiplication: span of 1(x)x - x(x)1 and x(x)x
    u = universal_calculus(dual_numbers())
    assert u.one_forms.basis == ((0, 1, -1, 0), (0, 0, 0, 1))
    assert u.d.col(1) == (1, 0)
    assert u.d.col(0) == (0, 0)


@pytest.mark.parametrize("make", [dual_numbers, z2_group_algebra,
                                  upper_triangular_2, matrix_2])
def test_universal_is_a_leibniz_calculus(make):
    u = universal_calculus(make())
    assert check_bimodule(u.bimodule).ok
    assert check_leibniz(u).ok
    assert is_spanned_by_differential(u)


def test_factor_through_universal_dual_numbers():
    c = kahler_dual_numbers()
    phi, rep = factor_through_universal(c)
    assert rep.ok
    assert phi.matrix == Matrix([[1, 0]])


@pytest.mark.parametrize("c", all_calculi(), ids=lambda c: repr(c.algebra))
def test_factorization_certificate(c):
    u = universal_calculus(c.algebra)
    phi, rep = factor_through_universal(c, universal=u)
    assert rep.ok
    assert phi.matrix @ u.d == c.d


@pytest.mark.parametrize("c", [kahler_dual_numbers(), theta_z2(),
                               inner_calculus(matrix_2(), (1, 0, 0, 0))],
                         ids=["dual-numbers", "z2-theta", "matrix2-inner"])
def test_spanned_by_differential(c):
    assert is_spanned_by_differential(c)


def test_unreached_summand_detected():
    # add a trivial summand the differential never reaches
    c = kahler_dual_numbers()
    a = c.algebra
    one, zero = Matrix([[1]]), Matrix([[0]])
    trivial = Bimodule(a, 1, (one, zero), (one, zero))
    bigger = direct_sum(c.bimodule, trivial)
    d2 = Matrix([[0, 1], [0, 0]])
    c2 = DifferentialCalculus(a, bigger, d2)
    assert check_leibniz(c2).ok
    assert not is_spanned_by_differential(c2)


def test_zero_calculus_spans_trivially():
    c = zero_calculus(z2_group_algebra())
    assert is_spanned_by_differential(c)
    phi, rep = factor_through_universal(c)
    assert rep.ok and phi.matrix.nrows == 0


def assert_spanned_verdict_matches_both_sides(c):
    # A.dA is the generated bimodule only under the laws
    assert check_bimodule(c.bimodule).ok and check_leibniz(c).ok
    spanned = is_spanned_by_differential(c)
    assert spanned == spanned_by_differential_on_both_sides(c)
    return spanned


@pytest.mark.parametrize("name", [name for name in BUILTIN_NAMES
                                  if builtin(name).calculus is not None])
def test_spanned_verdict_matches_both_sides_on_builtin_calculi(name):
    assert_spanned_verdict_matches_both_sides(builtin(name).calculus)


@pytest.mark.parametrize("make", [
    dual_numbers, z2_group_algebra, upper_triangular_2, matrix_2,
    lambda: truncated_polynomials(3), lambda: truncated_polynomials(5)],
    ids=["dual_numbers", "z2", "ut2", "m2", "trunc3", "trunc5"])
def test_spanned_verdict_matches_both_sides_on_universal_calculi(make):
    # Omega_u = A.du(A), so every universal calculus is spanned
    assert assert_spanned_verdict_matches_both_sides(
        universal_calculus(make()))


@settings(max_examples=30, deadline=None)
@given(leibniz_calculi([kahler_dual_numbers(), kahler_truncated(4),
                        theta_z2(),
                        inner_calculus(upper_triangular_2(), (1, 0, 0)),
                        inner_calculus(matrix_2(), (1, 0, 0, 0)),
                        universal_calculus(dual_numbers())]))
def test_spanned_verdict_matches_both_sides_on_drawn_calculi(c):
    assert_spanned_verdict_matches_both_sides(c)


def test_spanned_verdict_needs_the_leibniz_law():
    # d(e12) = e11 and d = 0 elsewhere on the regular bimodule of matrix_2:
    # e11 generates M_2 as a bimodule, but its left multiples are the
    # first column only
    a = matrix_2()
    c = DifferentialCalculus(a, Bimodule.regular(a),
                             Matrix([[0, 1, 0, 0]] + [[0] * 4] * 3))
    assert not check_leibniz(c).ok
    assert spanned_by_differential_on_both_sides(c)
    assert not is_spanned_by_differential(c)


# ---- closed forms against the generic routes ---------------------------

def assert_universal_matches_oracle(a, calculi):
    u = universal_calculus(a)
    ref = universal_calculus_by_kron(a)
    assert u.one_forms == ref.one_forms
    assert u.bimodule.left == ref.bimodule.left
    assert u.bimodule.right == ref.bimodule.right
    assert u.d == ref.d
    for c in calculi:
        phi, rep = factor_through_universal(c, universal=u)
        assert phi.matrix @ u.d == c.d
        unique = "factorization-uniqueness" not in [f.law
                                                    for f in rep.findings]
        assert unique == (universal_uniqueness_by_solve(c, u) == 0)
        assert rep.ok


@pytest.mark.parametrize("name,params",
                         [(name, ()) for name in BUILTIN_NAMES]
                         + [("truncated_poly", (5,))],
                         ids=lambda v: str(v))
def test_universal_closed_form_matches_kron_route(name, params):
    b = builtin(name, params)
    assert_universal_matches_oracle(
        b.algebra, [b.calculus] if b.calculus is not None else [])


@st.composite
def transported_bundles(draw):
    """A builtin algebra of dimension <= 4 and its calculus, if any, after
    unimodular basis changes of the algebra and of the one-forms."""
    b = builtin(draw(st.sampled_from([name for name in BUILTIN_NAMES
                                      if builtin(name).algebra.dim <= 4])))
    module_dim = b.calculus.bimodule.dim if b.calculus is not None else 0
    change = BasisChange(draw(unimodular_matrices(b.algebra.dim)),
                         draw(unimodular_matrices(module_dim)))
    a = change.algebra(b.algebra)
    if b.calculus is None:
        return a, []
    return a, [change.calculus(b.calculus, a)]


@settings(max_examples=15, deadline=None)
@given(transported_bundles())
def test_universal_matches_oracle_after_basis_change(bundle):
    a, calculi = bundle
    for c in calculi:
        assert check_leibniz(c).ok
    assert_universal_matches_oracle(a, calculi)


def test_du_outside_the_kernel_names_the_basis_element():
    # e is a left unit only: f e = 0, so du(f) = e (x) f - f (x) e
    # multiplies to f, outside the kernel of multiplication
    a = Algebra(("e", "f"), [[(1, 0), (0, 1)], [(0, 0), (0, 0)]], (1, 0))
    with pytest.raises(InvariantError, match=r"^du\(f\) is not in the "
                       r"kernel of multiplication$"):
        universal_calculus(a)
