"""Cartan pairs: duality with calculi, co-universal pair, roundtrips."""

import pytest
from hypothesis import given, settings, strategies as st

from ncwb.algebra import (
    Algebra, Bimodule, DualBimodule, check_bimodule, left_dual, right_dual,
    transpose,
)
from ncwb.calculus import check_leibniz, factor_through_universal, \
    universal_calculus
from ncwb.cartan import (
    CartanPair, SpanKernelDiagnostic, calculus_from_pair, check_cartan,
    co_universal_factorization, co_universal_pair, pair_from_calculus,
    spanning_kernel_diagnostic,
)
from ncwb.catalog import (
    BUILTIN_NAMES, builtin, naive_derivative_fixture,
    vacuum_violation_fixture,
)
from ncwb.linalg import Matrix
from ncwb.reporting import InvariantError

from helpers import (
    BasisChange, action_kernel, left_linear_pairs, naive_derivative_pair,
    padded_pair, random_action_pairs,
    reflexive_roundtrip, spanning_by_full_rank,
    spanning_kernel_diagnostic_by_left_dual,
    spanning_kernel_diagnostic_on_both_sides,
    co_universal_factorization_by_solve, co_universal_pair_by_right_dual,
    dual_span_by_reelimination, dual_numbers, inner_calculus,
    kahler_dual_numbers, kahler_truncated, matrix_2, theta_z2,
    transported_pairs, unimodular_matrices, upper_triangular_2,
    z2_group_algebra, zero_calculus,
)

# builtin pairs over algebras of dimension <= 4, for basis-change draws
SMALL_PAIRS = [builtin(name).pair for name in BUILTIN_NAMES
               if builtin(name).algebra.dim <= 4]


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
def test_derived_pair_satisfies_cartan_laws(c):
    p = pair_from_calculus(c)
    assert check_bimodule(p.bimodule).ok
    assert check_cartan(p).ok


def test_dual_numbers_pair_is_x_ddx():
    p = pair_from_calculus(kahler_dual_numbers())
    assert p.bimodule.dim == 1
    # X(w) = x, so X acts as x d/dx: kills 1, fixes x
    assert p.action[0] == Matrix([[0, 0], [0, 1]])
    assert p.bimodule.eval_mats[0] == Matrix([[0], [1]])


def test_z2_theta_pair_action():
    p = pair_from_calculus(theta_z2())
    assert p.bimodule.dim == 1
    assert p.action[0] == Matrix([[0, 2], [0, -2]])
    # the dual module is mirrored: g.X = -X, X.g = X
    assert p.bimodule.left[1] == Matrix([[-1]])
    assert p.bimodule.right[1] == Matrix([[1]])


def test_planted_wrong_sign_fails_twisted_leibniz():
    good = pair_from_calculus(theta_z2())
    bad = CartanPair(good.algebra, good.bimodule,
                     (Matrix([[0, 2], [0, 2]]),))
    rep = check_cartan(bad)
    assert any(f.law == "twisted-leibniz" for f in rep.findings)


def test_planted_unit_hit_fails():
    a = dual_numbers()
    n = Bimodule.regular(a)
    bad = CartanPair(a, n, (Matrix.identity(2), Matrix([[0, 0], [1, 0]])))
    rep = check_cartan(bad)
    assert any(f.law == "unit-annihilation" for f in rep.findings)


@pytest.mark.parametrize("c", all_calculi(), ids=lambda c: repr(c.algebra))
def test_pair_induces_leibniz_calculus(c):
    p = pair_from_calculus(c)
    calc, _ = calculus_from_pair(p)
    assert check_leibniz(calc).ok


def test_roundtrip_recovers_dual_numbers_differential():
    c = kahler_dual_numbers()
    rt = reflexive_roundtrip(c)
    assert rt.injective and rt.surjective
    assert rt.intertwines
    assert rt.map_report.ok
    assert rt.derived.d == Matrix([[0, 1]])


@pytest.mark.parametrize("c", [inner_calculus(upper_triangular_2(), (1, 0, 0)),
                               inner_calculus(matrix_2(), (1, 0, 0, 0)),
                               theta_z2()],
                         ids=["ut2", "m2", "z2"])
def test_roundtrip_on_regular_style_modules(c):
    rt = reflexive_roundtrip(c)
    assert rt.injective and rt.surjective and rt.intertwines
    assert rt.map_report.ok


def test_action_kernel_trivial_for_dual_numbers():
    p = pair_from_calculus(kahler_dual_numbers())
    assert action_kernel(p).dim == 0
    diag = spanning_kernel_diagnostic(p)
    assert diag.spanned and diag.kernel_trivial


def test_padding_with_zero_generator_flips_both_diagnostics():
    padded = padded_pair()
    assert check_cartan(padded).ok
    assert action_kernel(padded).dim == 1
    diag = spanning_kernel_diagnostic(padded)
    assert not diag.spanned and not diag.kernel_trivial


def assert_diagnostic_matches_the_left_dual_route(p):
    # the one-sided closure holds on a pair that passes check_cartan; the
    # oracle closes under both actions of the dual
    assert check_cartan(p).ok
    new = spanning_kernel_diagnostic(p)
    assert new == spanning_kernel_diagnostic_by_left_dual(p)
    return new


def two_sided_verdict(p):
    """The verdict, or the refusal, of the two-sided closures, which need
    no pair law: in all n x p matrices and in the left dual's
    coordinates."""
    verdict = diagnostic_or_refusal(spanning_kernel_diagnostic_on_both_sides,
                                    p)
    assert verdict == diagnostic_or_refusal(
        spanning_kernel_diagnostic_by_left_dual, p)
    return verdict


@pytest.mark.parametrize("case", list(BUILTIN_NAMES)
                         + ["truncated_poly 6", "quantum_plane_trunc 2 3"])
def test_spanning_diagnostic_matches_the_left_dual_route_on_builtins(case):
    name, *params = case.split()
    assert_diagnostic_matches_the_left_dual_route(
        builtin(name, tuple(int(x) for x in params)).pair)


@pytest.mark.parametrize("c", all_calculi(), ids=lambda c: repr(c.algebra))
def test_spanning_diagnostic_matches_the_left_dual_route_on_derived_pairs(c):
    assert_diagnostic_matches_the_left_dual_route(pair_from_calculus(c))


@settings(max_examples=15, deadline=None)
@given(transported_pairs([builtin(name).pair for name in BUILTIN_NAMES
                          if builtin(name).algebra.dim <= 4]))
def test_spanning_diagnostic_matches_the_left_dual_route_after_basis_change(
        p):
    assert_diagnostic_matches_the_left_dual_route(p)


def diagnostic_or_refusal(route, p):
    try:
        return route(p)
    except InvariantError as e:
        return str(e)


@pytest.mark.parametrize("p", [
    naive_derivative_fixture(), naive_derivative_pair(3),
    naive_derivative_pair(5)], ids=["naive-4", "naive-3", "naive-5"])
def test_spanning_diagnostic_matches_the_left_dual_route_without_leibniz(p):
    # left linear fields that break twisted Leibniz: the induced map is no
    # derivation, so its images need both actions to span, and only the
    # two-sided routes apply
    assert not check_cartan(p).ok
    assert isinstance(two_sided_verdict(p), SpanKernelDiagnostic)


# (D, whether the dual's left action alone spans) for the fields
# X_t = l(e_t) D on the regular bimodule of matrix_2
NEEDS_BOTH_ACTIONS = pytest.mark.parametrize("d, one_sided", [
    # the images of d span under the left factors E -> r_g E alone, the
    # right action of the dual
    ([[0, 0, 0, 0], [0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 1, 0]], False),
    # under the right factors E -> E R_f alone, the dual's left action
    ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 0]], True),
    # under both together only
    ([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]], False),
], ids=["left", "right", "both"])


def left_linear_matrix_2_pair(d) -> CartanPair:
    a = matrix_2()
    return CartanPair(a, Bimodule.regular(a),
                      [lm @ Matrix(d) for lm in a.lmul])


@NEEDS_BOTH_ACTIONS
def test_spanning_diagnostic_needs_both_actions_without_leibniz(d,
                                                                one_sided):
    # Without twisted Leibniz the induced map is no derivation, and the
    # package's closure under the dual's left action alone misses the
    # span in two cases
    p = left_linear_matrix_2_pair(d)
    assert not check_cartan(p).ok
    assert two_sided_verdict(p).spanned
    assert spanning_kernel_diagnostic(p).spanned is one_sided


def assert_lawless_diagnostic(p):
    """The two-sided routes agree; the package gives their refusal, and
    their verdict too when the pair passes check_cartan."""
    verdict = two_sided_verdict(p)
    if isinstance(verdict, str) or check_cartan(p).ok:
        assert diagnostic_or_refusal(spanning_kernel_diagnostic, p) \
            == verdict


@settings(max_examples=40, deadline=None)
@given(left_linear_pairs([builtin(name).algebra for name in BUILTIN_NAMES
                          if builtin(name).algebra.dim <= 4]))
def test_spanning_diagnostic_on_left_linear_fields(p):
    assert_lawless_diagnostic(p)


@settings(max_examples=25, deadline=None)
@given(random_action_pairs([builtin(name).pair for name in BUILTIN_NAMES
                            if builtin(name).algebra.dim <= 4]))
def test_spanning_diagnostic_matches_the_left_dual_route_on_drawn_fields(p):
    # lawless fields over a lawful algebra and bimodule: the same verdicts
    # or the same refusal
    assert_lawless_diagnostic(p)


def test_spanning_diagnostic_matches_the_left_dual_route_on_the_padded_pair():
    diag = assert_diagnostic_matches_the_left_dual_route(padded_pair())
    assert (diag.spanned, diag.kernel_trivial) == (False, False)


def test_spanning_diagnostic_names_an_evaluation_that_is_not_left_linear():
    # the pair of
    # test_evaluation_outside_the_left_dual_names_the_basis_element: both
    # routes refuse it with one message
    a = dual_numbers()
    p = CartanPair(a, Bimodule.regular(a),
                   [Matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2)])
    message = "^the evaluation of the action at x is not left linear$"
    with pytest.raises(InvariantError, match=message):
        spanning_kernel_diagnostic(p)
    with pytest.raises(InvariantError, match=message):
        spanning_kernel_diagnostic_by_left_dual(p)
    with pytest.raises(InvariantError, match=message):
        spanning_kernel_diagnostic_on_both_sides(p)


def assert_early_stop_matches_the_full_rank(p):
    """The rank of the constraints, stopped at n p - dim(closure), gives
    the verdict of the full rank, and the full rank never exceeds that
    bound; an evaluation outside the left dual is refused by both."""
    try:
        closure_dim, full_rank = spanning_by_full_rank(p)
    except InvariantError as e:
        with pytest.raises(InvariantError) as refused:
            spanning_kernel_diagnostic(p)
        assert str(refused.value) == str(e)
        return
    bound = p.algebra.dim * p.bimodule.dim - closure_dim
    assert full_rank <= bound
    assert spanning_kernel_diagnostic(p).spanned is (full_rank == bound)


@pytest.mark.parametrize("case", list(BUILTIN_NAMES)
                         + ["truncated_poly 6", "quantum_plane_trunc 2 3"])
def test_spanning_early_stop_matches_the_full_rank_on_builtins(case):
    name, *params = case.split()
    assert_early_stop_matches_the_full_rank(
        builtin(name, tuple(int(x) for x in params)).pair)


@NEEDS_BOTH_ACTIONS
def test_spanning_early_stop_matches_the_full_rank_without_leibniz(
        d, one_sided):
    assert_early_stop_matches_the_full_rank(left_linear_matrix_2_pair(d))


@settings(max_examples=40, deadline=None)
@given(left_linear_pairs([builtin(name).algebra for name in BUILTIN_NAMES
                          if builtin(name).algebra.dim <= 4]))
def test_spanning_early_stop_matches_the_full_rank_on_left_linear_fields(p):
    assert_early_stop_matches_the_full_rank(p)


@settings(max_examples=25, deadline=None)
@given(random_action_pairs(SMALL_PAIRS))
def test_spanning_early_stop_matches_the_full_rank_on_drawn_fields(p):
    assert_early_stop_matches_the_full_rank(p)


def test_co_universal_pair_dual_numbers():
    a = dual_numbers()
    cu = co_universal_pair(a)
    assert cu.bimodule.dim == 2
    assert check_cartan(cu).ok
    # fields Y_(a,b) with Y(x) = a + b x; canonical basis picks (1,0), (0,1)
    assert cu.action[0].col(1) == (1, 0)
    assert cu.action[1].col(1) == (0, 1)


@pytest.mark.parametrize("make", [dual_numbers, z2_group_algebra,
                                  upper_triangular_2, matrix_2])
def test_co_universal_pair_laws(make):
    a = make()
    cu = co_universal_pair(a)
    assert cu.bimodule.dim == a.dim * a.dim - a.dim
    assert check_cartan(cu).ok


@pytest.mark.parametrize("c", all_calculi(), ids=lambda c: repr(c.algebra))
def test_derived_pairs_factor_through_co_universal(c):
    a = c.algebra
    u = universal_calculus(a)
    cu = co_universal_pair(a, universal=u)
    p = pair_from_calculus(c)
    fact = co_universal_factorization(p, couniv=cu)
    assert fact.exists and fact.unique
    assert fact.report.ok
    # the factor is the transpose of the universal factorization map
    phi, frep = factor_through_universal(c, universal=u)
    assert frep.ok
    phi_t = transpose(phi, cu.bimodule, p.bimodule)
    assert fact.phi.matrix == phi_t.matrix


def test_factorization_composite_action_matches():
    c = theta_z2()
    p = pair_from_calculus(c)
    cu = co_universal_pair(c.algebra)
    fact = co_universal_factorization(p, couniv=cu)
    for t in range(p.bimodule.dim):
        xt = tuple(1 if s == t else 0 for s in range(p.bimodule.dim))
        assert cu.action_of(fact.phi.matrix.apply(xt)) == p.action[t]


# ---- closed forms against the generic routes ---------------------------

def factorization_facts(f):
    return (f.phi.matrix if f.phi is not None else None, f.exists,
            f.unique, f.homogeneous_dim, [str(x) for x in f.report.findings])


def assert_closed_forms_match_oracle(a, pairs):
    u = universal_calculus(a)
    cu = co_universal_pair(a, u)
    ref = co_universal_pair_by_right_dual(a, u)
    assert cu.bimodule.eval_mats == ref.bimodule.eval_mats
    assert cu.bimodule.left == ref.bimodule.left
    assert cu.bimodule.right == ref.bimodule.right
    assert cu.action == ref.action
    for p in pairs:
        assert factorization_facts(co_universal_factorization(p, cu)) \
            == factorization_facts(co_universal_factorization_by_solve(p, ref))


@pytest.mark.parametrize("name,params",
                         [(name, ()) for name in BUILTIN_NAMES]
                         + [("truncated_poly", (5,))],
                         ids=lambda v: str(v))
def test_co_universal_closed_form_matches_right_dual(name, params):
    b = builtin(name, params)
    assert_closed_forms_match_oracle(b.algebra, [b.pair])


@pytest.mark.parametrize("make", [naive_derivative_fixture,
                                  lambda: naive_derivative_fixture(3),
                                  vacuum_violation_fixture],
                         ids=["naive-4", "naive-3", "vacuum"])
def test_missing_factorization_matches_oracle(make):
    p = make()
    assert_closed_forms_match_oracle(p.algebra, [p])
    fact = co_universal_factorization(p)
    assert factorization_facts(fact) == (
        None, False, False, 0,
        ["factorization-exists at (): no bimodule map matches the action"])


@settings(max_examples=15, deadline=None)
@given(transported_pairs(SMALL_PAIRS))
def test_closed_forms_match_oracle_after_basis_change(p):
    assert check_cartan(p).ok
    assert_closed_forms_match_oracle(p.algebra, [p])


@pytest.mark.parametrize("name,params", [("truncated_poly", (5,)),
                                         ("matrix_2", ())],
                         ids=["truncated_poly-5", "matrix_2"])
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_closed_forms_match_oracle_on_dense_copies(name, params, data):
    # unimodular basis changes of the algebras the benchmark transports,
    # at its sizes: the actions read at the pivots of dense evaluation
    # matrices are the right dual's
    p = builtin(name, params).pair
    change = BasisChange(data.draw(unimodular_matrices(p.algebra.dim)),
                         data.draw(unimodular_matrices(p.bimodule.dim)))
    p = change.pair(p, change.algebra(p.algebra))
    assert check_cartan(p).ok
    assert_closed_forms_match_oracle(p.algebra, [p])


# ---- the unit check that co_universal_pair leaves out ------------------

def assert_co_universal_products_kill_unit(a):
    """Every L_f o D and D o L_g - L_{D(g)} over basis vectors f, g and the
    co-universal basis D (which acts as -D) kills 1."""
    cu = co_universal_pair(a)
    for x in cu.action:
        dm = x.scale(-1)
        assert not any(dm.apply(a.unit))
        for li in a.lmul:
            assert not any((li @ dm).apply(a.unit))
        for g in range(a.dim):
            shifted = dm @ a.lmul[g] - a.left_mult_matrix(dm.col(g))
            assert not any(shifted.apply(a.unit))


@pytest.mark.parametrize("name,params",
                         [(name, ()) for name in BUILTIN_NAMES]
                         + [("truncated_poly", (5,)),
                            ("quantum_plane_trunc", (2, 3))],
                         ids=lambda v: str(v))
def test_co_universal_products_kill_the_unit(name, params):
    assert_co_universal_products_kill_unit(builtin(name, params).algebra)


@settings(max_examples=15, deadline=None)
@given(transported_pairs(SMALL_PAIRS))
def test_co_universal_products_kill_the_unit_after_basis_change(p):
    assert_co_universal_products_kill_unit(p.algebra)


# ---- the coordinate read kills left multiplications --------------------

def assert_read_kills_left_multiplications(a):
    """X_{L_h}(w) = h m(w) = 0 on the one-forms, so the read that gives
    co-universal coordinates is zero on flat(L_h) for every basis h; this
    is why D.g is read as D o L_g without the L_{D(g)} term."""
    cu = co_universal_pair(a)
    assert (cu.read.nrows, cu.read.ncols) == (cu.bimodule.dim, a.dim ** 2)
    for li in a.lmul:
        assert not any(cu.read.apply(li.flatten()))
    # and it reads every co-universal basis field D (acting as -D) as e_t
    for t, x in enumerate(cu.action):
        assert cu.read.apply(x.scale(-1).flatten()) \
            == tuple(int(s == t) for s in range(cu.bimodule.dim))


@pytest.mark.parametrize("name,params",
                         [(name, ()) for name in BUILTIN_NAMES]
                         + [("truncated_poly", (5,)),
                            ("quantum_plane_trunc", (2, 3))],
                         ids=lambda v: str(v))
def test_co_universal_read_kills_left_multiplications(name, params):
    assert_read_kills_left_multiplications(builtin(name, params).algebra)


@settings(max_examples=15, deadline=None)
@given(transported_pairs(SMALL_PAIRS))
def test_co_universal_read_kills_left_multiplications_after_basis_change(p):
    assert_read_kills_left_multiplications(p.algebra)


def test_co_universal_pair_needs_a_right_unit():
    # e e = e, e y = y, y e = y y = 0: e is a left unit only
    a = Algebra(("e", "y"), [[(1, 0), (0, 1)], [(0, 0), (0, 0)]], (1, 0))
    with pytest.raises(InvariantError, match="the unit is not a right unit"):
        co_universal_pair(a, universal_calculus(dual_numbers()))


# ---- duals hold the canonical span of their evaluation matrices --------

def builtin_bimodules(name):
    b = builtin(name)
    mods = list(b.bimodules.values())
    if b.calculus is not None:
        mods.append(b.calculus.bimodule)
    if b.pair is not None:
        mods.append(b.pair.bimodule)
    return mods


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_dual_span_is_the_reduced_span_of_its_evaluations(name):
    duals = [co_universal_pair(builtin(name).algebra).bimodule]
    for m in builtin_bimodules(name):
        duals += [right_dual(m), left_dual(m)]
    for d in duals:
        assert d.span == dual_span_by_reelimination(d)
        assert d.span.dim == d.dim == len(d.eval_mats)
        assert tuple(e.flatten() for e in d.eval_mats) == d.span.basis


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_derived_pairs_and_calculi_hold_their_duals_as_bimodules(name):
    # a derived pair's bimodule is the right dual of its calculus, and a
    # derived calculus' bimodule the left dual of its pair: one object each
    b = builtin(name)
    if b.calculus is not None:
        d = pair_from_calculus(b.calculus).bimodule
        assert isinstance(d, DualBimodule) and d.side == "right"
        assert d.base is b.calculus.bimodule
        assert check_bimodule(d).ok
    calc, ld = calculus_from_pair(b.pair)
    assert calc.bimodule is ld
    assert isinstance(ld, DualBimodule) and ld.side == "left"
    assert ld.base is b.pair.bimodule
    cu = co_universal_pair(b.algebra)
    assert isinstance(cu.bimodule, DualBimodule)
    assert cu.bimodule.side == "right"
    assert cu.bimodule.base is cu.source_calculus.bimodule


def test_evaluation_outside_the_left_dual_names_the_basis_element():
    # x.X_0 is the field X_1 = 0, but x X_0(x) = x: the evaluation at x is
    # not a left module map
    a = dual_numbers()
    p = CartanPair(a, Bimodule.regular(a),
                   [Matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2)])
    with pytest.raises(InvariantError, match="^the evaluation of the action "
                       "at x is not left linear$"):
        calculus_from_pair(p)
