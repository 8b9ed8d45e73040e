"""Each law checker, one identity of stacked matrices per basis vector,
against the per-pair loops kept in helpers: the whole report must agree,
laws, witnesses, details and order, on lawful, planted and perturbed
inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from ncwb.algebra import Algebra, Bimodule, check_algebra, check_bimodule
from ncwb.calculus import DifferentialCalculus, check_leibniz
from ncwb.cartan import CartanPair, check_cartan, pair_from_calculus
from ncwb.catalog import (
    BUILTIN_NAMES, broken_connection_fixture, builtin,
    naive_derivative_fixture, noncommuting_bimodule_fixture,
    unit_differential_fixture, vacuum_violation_fixture,
)
from ncwb.connections import check_covariant_axioms, trivial_connection
from ncwb.diffops import check_ccr
from ncwb.linalg import Matrix
from ncwb.reporting import CheckReport, Finding

from helpers import (
    BasisChange, check_algebra_by_pairs, check_bimodule_by_pairs,
    check_cartan_by_pairs, check_ccr_by_pairs,
    check_covariant_axioms_by_pairs, check_leibniz_by_pairs,
    transported_pairs, unimodular_matrices,
)
from test_algebra import broken_associativity_algebra, broken_unit_algebra
from test_connections import perturbed, transported_connections

CHECKERS = {
    "algebra": (check_algebra, check_algebra_by_pairs),
    "bimodule": (check_bimodule, check_bimodule_by_pairs),
    "leibniz": (check_leibniz, check_leibniz_by_pairs),
    "cartan": (check_cartan, check_cartan_by_pairs),
    "ccr": (check_ccr, check_ccr_by_pairs),
    "covariant": (check_covariant_axioms, check_covariant_axioms_by_pairs),
}


def same_report(kind, *args):
    """The checker's report, asserted equal to the oracle's as a whole."""
    check, oracle = CHECKERS[kind]
    rep = check(*args)
    assert rep == oracle(*args)
    return rep


def test_check_reports_keep_their_own_findings():
    first, second = CheckReport("x"), CheckReport("x")
    assert first == second and first.findings is not second.findings
    first.add("law", [0, 1], "detail")
    assert second.findings == [] and first != second
    second.add("law", (0, 1), "detail")
    assert first == second and first != CheckReport("y")


def test_equal_findings_are_equal_and_hash_alike():
    f, g = Finding("law", (0, 1), "detail"), Finding("law", (0, 1), "detail")
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != Finding("law", (0, 1)) and f != Finding("law", (1, 0),
                                                        "detail")


def algebra_checks(a):
    return [same_report("algebra", a),
            same_report("bimodule", Bimodule.regular(a))]


def calculus_checks(c):
    return [same_report("bimodule", c.bimodule), same_report("leibniz", c)]


def pair_checks(p):
    return [same_report("bimodule", p.bimodule), same_report("cartan", p),
            same_report("ccr", p)]


def connection_checks(conn):
    return [same_report("covariant", conn,
                        pair_from_calculus(conn.calculus))]


def laws(reports):
    return {f.law for rep in reports for f in rep.findings}


# ---- planted failures --------------------------------------------------

PLANTED = {
    "broken-unit": (algebra_checks, broken_unit_algebra,
                    {"left-unit", "right-unit", "right-unital"}),
    "broken-associativity": (algebra_checks, broken_associativity_algebra,
                             {"associativity", "left-action-product",
                              "right-action-product"}),
    "noncommuting-bimodule": (
        lambda m: [same_report("bimodule", m)],
        noncommuting_bimodule_fixture, {"left-action-product"}),
    "unit-differential": (calculus_checks, unit_differential_fixture,
                          {"leibniz"}),
    "naive-derivative-4": (pair_checks, naive_derivative_fixture,
                           {"twisted-leibniz", "commutator"}),
    "naive-derivative-3": (pair_checks, lambda: naive_derivative_fixture(3),
                           {"twisted-leibniz", "commutator"}),
    "vacuum-violation": (pair_checks, vacuum_violation_fixture,
                         {"twisted-leibniz", "unit-annihilation",
                          "commutator"}),
    "broken-connection": (connection_checks, broken_connection_fixture,
                          {"twisted-leibniz"}),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_failures_match_the_per_pair_oracles(name):
    run, make, expected = PLANTED[name]
    # the planted laws fail, so the comparison covers their details
    assert expected <= laws(run(make()))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_pass_both_routes(name):
    b = builtin(name)
    reports = algebra_checks(b.algebra)
    if b.calculus is not None:
        reports += calculus_checks(b.calculus)
        reports += connection_checks(trivial_connection(b.calculus, 2))
    reports += pair_checks(b.pair)
    # only the commutative algebras have canonical commutation relations
    assert all(rep.ok for rep in reports
               if rep.subject != "canonical commutation")


# ---- degenerate shapes -------------------------------------------------

def test_zero_bimodule_no_fields_and_a_line():
    line = Algebra(("1",), [[(1,)]], (1,))
    doubled = Algebra(("1",), [[(2,)]], (1,))
    for a in (line, doubled, builtin("dual_numbers").algebra):
        zero = Bimodule.zero(a)
        assert same_report("bimodule", zero).ok
        algebra_checks(a)
        assert same_report("leibniz", DifferentialCalculus(
            a, zero, Matrix.zeros(0, a.dim))).ok
        for rep in pair_checks(CartanPair(a, zero, ())):
            assert rep.ok
    # 1 * 1 = 2: associative, but no unit
    assert laws(algebra_checks(doubled)) == {
        "left-unit", "right-unit", "left-unital", "right-unital"}
    # a field on the line: X(1) = 1 breaks all but centrality
    one = Matrix([[1]])
    reg = Bimodule.regular(line)
    assert laws(pair_checks(CartanPair(line, reg, (one,)))) == {
        "twisted-leibniz", "unit-annihilation", "commutator"}


# ---- one or two entries of a builtin's tables changed ------------------

SMALL = [name for name in BUILTIN_NAMES if builtin(name).algebra.dim <= 4]
TABLES = ("products", "left", "right", "d", "action")


def changed(mat: Matrix, edits) -> Matrix:
    rows = [list(r) for r in mat.rows]
    for r, c, value in edits:
        rows[r % mat.nrows][c % mat.ncols] = value
    return Matrix(rows, ncols=mat.ncols)


@st.composite
def perturbed_bundles(draw):
    """A builtin's algebra, pair module, calculus and pair, with one or two
    entries of one of their tables set to a small value: the module's
    left or right actions, the differential, the action, or the
    structure constants (then every other object is taken over the
    changed algebra)."""
    b = builtin(draw(st.sampled_from(SMALL)))
    table = draw(st.sampled_from(TABLES))
    edits = draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                                    st.integers(-2, 2)),
                          min_size=1, max_size=2))
    which = draw(st.integers(0, 15))
    a, c, p = b.algebra, b.calculus, b.pair
    n = a.dim
    if table == "products":
        sc = [[list(v) for v in row] for row in a.sc]
        for i, j, value in edits:
            sc[i % n][j % n][which % n] = value
        a = Algebra(a.basis_names, sc, a.unit)
    pm = p.bimodule
    left, right, action = list(pm.left), list(pm.right), list(p.action)
    if table == "left":
        left[which % n] = changed(left[which % n], edits)
    if table == "right":
        right[which % n] = changed(right[which % n], edits)
    if table == "action" and action:
        action[which % len(action)] = changed(action[which % len(action)],
                                              edits)
    pm = Bimodule(a, pm.dim, left, right)
    p = CartanPair(a, pm, action)
    if c is not None:
        d = changed(c.d, edits) if table == "d" and c.d.nrows else c.d
        cm = c.bimodule
        c = DifferentialCalculus(a, Bimodule(a, cm.dim, cm.left, cm.right),
                                 d)
    return a, pm, c, p


@settings(max_examples=120, deadline=None)
@given(perturbed_bundles())
def test_perturbed_tables_match_the_per_pair_oracles(drawn):
    a, pm, c, p = drawn
    reports = [same_report("algebra", a), same_report("bimodule", pm)]
    reports += pair_checks(p)
    if c is not None:
        reports += calculus_checks(c)


def test_perturbed_tables_break_several_laws_at_once():
    # the strategy above reaches reports with several laws failing, so the
    # comparison covers their order; this fixed draw is one of them
    b = builtin("matrix_2")
    pm = b.pair.bimodule
    left = list(pm.left)
    left[1] = changed(left[1], [(0, 0, 2), (1, 2, -1)])
    p = CartanPair(b.algebra, Bimodule(b.algebra, pm.dim, left, pm.right),
                   b.pair.action)
    bimodule, cartan, ccr = pair_checks(p)
    assert laws([bimodule, cartan, ccr]) == {
        "left-action-product", "action-commutation", "action-linearity",
        "centrality", "commutator"}
    # the bimodule laws interleave by basis pair
    assert [(f.law, f.witness) for f in bimodule.findings[:3]] == [
        ("left-action-product", (1, 0)), ("action-commutation", (1, 0)),
        ("left-action-product", (1, 1))]


# ---- changes of basis --------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(transported_pairs([builtin(name).pair for name in SMALL]))
def test_transported_pairs_match_the_per_pair_oracles(p):
    algebra_checks(p.algebra)
    assert all(rep.ok for rep in pair_checks(p)
               if rep.subject != "canonical commutation")


@st.composite
def transported_calculi(draw):
    b = builtin(draw(st.sampled_from(
        [name for name in SMALL if builtin(name).calculus is not None])))
    c = b.calculus
    change = BasisChange(draw(unimodular_matrices(c.algebra.dim)),
                         draw(unimodular_matrices(c.bimodule.dim)))
    return change.calculus(c, change.algebra(c.algebra))


@settings(max_examples=15, deadline=None)
@given(transported_calculi())
def test_transported_calculi_match_the_per_pair_oracles(c):
    assert all(rep.ok for rep in calculus_checks(c))


@settings(max_examples=10, deadline=None)
@given(transported_connections())
def test_transported_connections_match_the_per_pair_oracles(drawn):
    conn, (row, col, by) = drawn
    assert all(rep.ok for rep in connection_checks(conn))
    if conn.matrix.nrows:
        connection_checks(perturbed(conn, row, col, by))
