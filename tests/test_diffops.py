"""Word algebra over a pair: mu, normal forms, relations, commutation."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ncwb.algebra import Bimodule
from ncwb.cartan import CartanPair, check_cartan, pair_from_calculus
from ncwb.catalog import (
    BUILTIN_NAMES, MAX_PARAM, builtin, naive_derivative_fixture,
    vacuum_violation_fixture,
)
from ncwb.diffops import (
    FreeWord, ccr_from_laws, check_ccr, evaluate_mu, find_relations,
    fock_check, format_word_sum, generate_diffop_algebra, normal_form,
)
from ncwb.linalg import Matrix, kernel

from helpers import (
    coords_dense, diffop_algebra_by_pairs, is_normal_form_word, kahler_dual_numbers,
    kahler_truncated, kernel_by_reelimination, naive_derivative_pair,
    padded_pair, quantum_plane_pair, theta_z2, transported_pairs,
    word_columns, word_index, zero_action_pair_z2,
)
from test_cartan import SMALL_PAIRS, all_calculi


def dn_pair():
    return pair_from_calculus(kahler_dual_numbers())


def random_freeword(pair, rng, max_terms=2, max_len=3):
    w = FreeWord(pair)
    n, p = pair.algebra.dim, pair.bimodule.dim
    for _ in range(rng.randint(1, max_terms)):
        term = FreeWord(pair, {(): 1})
        for _ in range(rng.randint(0, max_len)):
            if p and rng.random() < 0.5:
                coords = [rng.randint(-2, 2) for _ in range(p)]
                term = term * FreeWord.module_letter(pair, coords)
            else:
                coords = [rng.randint(-2, 2) for _ in range(n)]
                term = term * FreeWord.algebra_letter(pair, coords)
        w = w + rng.choice([1, -1]) * term
    return w


def test_mu_takes_one_to_identity():
    p = dn_pair()
    assert evaluate_mu(p, FreeWord(p, {(): 1})) == Matrix.identity(2)


def test_mu_is_a_homomorphism():
    rng = random.Random(11)
    for pair in (dn_pair(), quantum_plane_pair(), pair_from_calculus(theta_z2())):
        for _ in range(25):
            w1 = random_freeword(pair, rng)
            w2 = random_freeword(pair, rng)
            assert evaluate_mu(pair, w1 * w2) == \
                evaluate_mu(pair, w1) @ evaluate_mu(pair, w2)


def test_algebra_letters_merge():
    p = dn_pair()
    x = FreeWord.algebra_letter(p, (0, 1))
    assert (x * x).is_zero()
    one = FreeWord.algebra_letter(p, (1, 0))
    assert one == FreeWord(p, {(): 1})
    assert one * x == x


def all_basis_words(pair, up_to):
    n, p = pair.algebra.dim, pair.bimodule.dim
    letters = [("a", i) for i in range(n)] + [("m", t) for t in range(p)]
    for k in range(up_to + 1):
        for combo in itertools.product(letters, repeat=k):
            yield combo


def test_normal_form_shape_soundness_idempotence():
    for pair in (dn_pair(), pair_from_calculus(theta_z2())):
        for word in all_basis_words(pair, 3):
            fw = FreeWord(pair, {word: 1})
            nf = normal_form(fw)
            for w in nf.terms:
                assert is_normal_form_word(w)
            assert evaluate_mu(pair, nf) == evaluate_mu(pair, fw)
            assert normal_form(nf) == nf


def test_normal_form_dual_numbers_example():
    # X * x rewrites to the multiplication operator by X(x) = x, since X.x = 0
    p = dn_pair()
    w = FreeWord.module_letter(p, (1,)) * FreeWord.algebra_letter(p, (0, 1))
    nf = normal_form(w)
    assert nf == FreeWord.algebra_letter(p, (0, 1))


def test_forged_rewrite_is_caught_by_mu():
    # dropping the (X(f))^l term of the move changes the operator
    p = dn_pair()
    w = FreeWord.module_letter(p, (1,)) * FreeWord.algebra_letter(p, (0, 1))
    forged = FreeWord(p)          # X.x = 0, so the forged rewrite is zero
    assert evaluate_mu(p, forged) != evaluate_mu(p, w)
    assert evaluate_mu(p, normal_form(w)) == evaluate_mu(p, w)


def test_operator_helpers():
    p = quantum_plane_pair()
    assert p.algebra.left_mult_matrix(p.algebra.unit) == Matrix.identity(6)
    assert p.action_of((1, 0)) == p.action[0]


def oracle_closure_dim(mats, n):
    """Independent fixed-point closure using sympy only."""
    flats = [[sympy.Rational(x) for x in m.flatten()] for m in mats]
    while True:
        m = sympy.Matrix(flats)
        red, piv = m.rref()
        basis = [list(red.row(i)) for i in range(len(piv))]
        bmats = [sympy.Matrix(n, n, row) for row in basis]
        prods = [a * b for a, b in itertools.product(bmats, repeat=2)]
        flats = basis + [list(p.reshape(1, n * n)) for p in prods]
        if sympy.Matrix(flats).rank() == len(piv):
            return len(piv)


def test_diffop_algebra_dual_numbers_dimension():
    p = dn_pair()
    alg = generate_diffop_algebra(p)
    assert alg.dim == 3
    seed = [Matrix.identity(2), p.algebra.lmul[0], p.algebra.lmul[1],
            p.action[0]]
    assert oracle_closure_dim(seed, 2) == 3


def test_diffop_algebra_matches_oracle_truncated():
    p = pair_from_calculus(kahler_truncated(3))
    alg = generate_diffop_algebra(p)
    n = p.algebra.dim
    seed = [Matrix.identity(n)] + list(p.algebra.lmul) + list(p.action)
    assert alg.dim == oracle_closure_dim(seed, n)
    gens = Matrix.from_int_rows([op.flat_int() for op in seed], n * n)
    assert alg.coords_int(gens)[1] is None


def test_diffop_algebra_closed_under_composition():
    p = quantum_plane_pair()
    alg = generate_diffop_algebra(p)
    n = 6
    ops = alg.matrix.row_matrices(n, n)[:4]
    prods = Matrix.from_int_rows([(a @ b).flat_int() for a in ops
                                  for b in ops], n * n)
    assert alg.coords_int(prods)[1] is None


LAWLESS_PAIRS = {"naive-derivative": naive_derivative_fixture,
                 "vacuum-violation": vacuum_violation_fixture}


@pytest.mark.parametrize("case", list(BUILTIN_NAMES)
                         + ["truncated_poly 6", "quantum_plane_trunc 2 3"]
                         + list(LAWLESS_PAIRS))
def test_diffop_algebra_is_the_pair_composition_closure(case):
    # right composition with the generators spans what composing every
    # pair of spanning operators spans, lawless pairs included
    if case in LAWLESS_PAIRS:
        p = LAWLESS_PAIRS[case]()
    else:
        name, *params = case.split()
        p = builtin(name, tuple(int(x) for x in params)).pair
    assert generate_diffop_algebra(p) == diffop_algebra_by_pairs(p)


@settings(max_examples=15, deadline=None)
@given(transported_pairs([builtin(name).pair for name in BUILTIN_NAMES
                          if builtin(name).algebra.dim <= 4]))
def test_diffop_algebra_is_the_pair_composition_closure_after_basis_change(p):
    assert generate_diffop_algebra(p) == diffop_algebra_by_pairs(p)


def test_relations_dual_numbers_idempotent_field():
    p = dn_pair()
    rs = find_relations(p, max_len=3)
    # X*X - X vanishes under mu; both words carry the leading unit letter
    vec = [0] * len(rs.words)
    vec[word_index(rs, (("a", 0), ("m", 0), ("m", 0)))] = 1
    vec[word_index(rs, (("a", 0), ("m", 0)))] = -1
    assert coords_dense(rs.space(), vec) is not None
    # and x^l o X = 0: the word x*X alone is a relation
    vec2 = [0] * len(rs.words)
    vec2[word_index(rs, (("a", 1), ("m", 0)))] = 1
    assert coords_dense(rs.space(), vec2) is not None


def test_relations_zero_action_pair():
    p = zero_action_pair_z2()
    rs = find_relations(p, max_len=2)
    assert len(rs.words) == 6
    assert len(rs.rules) == 4    # every word with a module letter dies
    for w, c in rs.freeword(p, rs.space().basis[0]).sorted_terms():
        assert any(kind == "m" for kind, _ in w)


@pytest.mark.parametrize("name", ["dual_numbers", "truncated_poly"])
def test_relation_words_are_canonical(name):
    # the words f * X... of the search start with the unit letter too;
    # as word combinations it drops out, as in every FreeWord
    pair = builtin(name).pair
    unit = ("a", pair.algebra.unit_index)
    rs = find_relations(pair, max_len=3)
    for b in rs.space().basis:
        fw = rs.freeword(pair, b)
        assert fw == FreeWord(pair, fw.terms)
        assert not any(unit in w for w in fw.terms)


def test_relation_vectors_actually_vanish():
    for pair in (dn_pair(), quantum_plane_pair()):
        rs = find_relations(pair, max_len=3)
        n = pair.algebra.dim
        for b in rs.space().basis[:10]:
            fw = rs.freeword(pair, b)
            assert evaluate_mu(pair, fw) == Matrix.zeros(n, n)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_word_columns_are_the_word_operators(name):
    # n + p products per word length, against one product per letter
    pair = builtin(name).pair
    n, p = pair.algebra.dim, pair.bimodule.dim
    words, ops = map(list, zip(*word_columns(pair, 3)))
    assert words == [(("a", i),) + tuple(("m", t) for t in mw)
                     for k in range(3) for i in range(n)
                     for mw in itertools.product(range(p), repeat=k)]
    rs = find_relations(pair, max_len=3)
    assert rs.words == tuple(words)
    oracle = kernel_by_reelimination(Matrix.from_cols(
        [op.flatten() for op in ops], nrows=n * n))
    space = rs.space()
    assert (space.basis, space.pivots) \
        == (oracle.basis, oracle.pivots)


def assert_rules_are_the_generic_kernel(pair, max_len):
    n = pair.algebra.dim
    words, ops = zip(*word_columns(pair, max_len))
    rs = find_relations(pair, max_len)
    assert rs.words == words
    generic = kernel(Matrix.from_cols([op.flatten() for op in ops],
                                      nrows=n * n))
    space = rs.space()
    assert (space.basis, space.pivots) == (generic.basis, generic.pivots)
    assert len(rs.rules) == generic.dim
    for f, terms in rs.rules:
        qs = [q for q, _ in terms]
        assert qs == sorted(qs) and all(q > f for q in qs)
        assert all(c for _, c in terms)


@pytest.mark.parametrize("max_len", [1, 2, 3, 4])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_relation_rules_are_the_generic_kernel(name, max_len):
    assert_rules_are_the_generic_kernel(builtin(name).pair, max_len)


@settings(max_examples=15, deadline=None)
@given(transported_pairs([builtin(name).pair for name in BUILTIN_NAMES
                          if builtin(name).algebra.dim <= 4]),
       st.integers(1, 3))
def test_relation_rules_are_the_generic_kernel_after_basis_change(p,
                                                                 max_len):
    assert_rules_are_the_generic_kernel(p, max_len)


def test_relation_rules_over_fractional_actions_are_the_generic_kernel():
    # each action has its own denominator, so the operators of a longer
    # word length have a larger common denominator, and the word-column
    # matrix is rescaled to the lcm as each length comes in
    for pair, scales in (
            (quantum_plane_pair(), (Fraction(1, 2), Fraction(2, 3))),
            (builtin("matrix_2").pair,
             (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), 1))):
        scaled = CartanPair(pair.algebra, pair.bimodule, tuple(
            x.scale(c) for x, c in zip(pair.action, scales)))
        for max_len in (1, 2, 3):
            assert_rules_are_the_generic_kernel(scaled, max_len)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_relation_rules_over_the_zero_bimodule_are_the_generic_kernel(name):
    # p = 0: only the n one-letter words, at every length
    a = builtin(name).algebra
    pair = CartanPair(a, Bimodule.zero(a), ())
    for max_len in (1, 2, 3):
        assert_rules_are_the_generic_kernel(pair, max_len)
        assert len(find_relations(pair, max_len).words) == a.dim


def test_ccr_commutative_symmetric_pairs_are_clean():
    for pair in (dn_pair(), pair_from_calculus(kahler_truncated(4)),
                 zero_action_pair_z2()):
        assert check_ccr(pair).ok


def test_ccr_theta_pair_fails_centrality():
    rep = check_ccr(pair_from_calculus(theta_z2()))
    assert any(f.law == "centrality" for f in rep.findings)


def test_ccr_quantum_plane_witness():
    rep = check_ccr(quantum_plane_pair())
    assert any(f.law == "centrality" and f.witness == (1, 1)
               for f in rep.findings)
    comm = [f for f in rep.findings
            if f.law == "commutator" and f.witness == (1, 1)]
    assert comm, "commutator defect for (x, Y) expected"
    # the defect of [Y, x^l] - (Y(x))^l on x is y^2
    p = quantum_plane_pair()
    a = p.algebra
    lhs = (p.action[1] @ a.lmul[1] - a.lmul[1] @ p.action[1]).col(1)
    rhs = a.left_mult_matrix(p.action[1].col(1)).col(1)
    assert tuple(x - y for x, y in zip(lhs, rhs)) == (0, 0, 0, 0, 0, 1)


# every builtin over its documented parameters, quantum_plane_trunc at
# three values of q
CCR_BUILTINS = [
    (name, ()) for name in BUILTIN_NAMES
    if name not in ("truncated_poly", "quantum_plane_trunc")] + [
    ("truncated_poly", (k,)) for k in range(2, MAX_PARAM + 1)] + [
    ("quantum_plane_trunc", (q, deg)) for q in (2, -1, Fraction(1, 2))
    for deg in range(2, MAX_PARAM + 1)]

# the pairs the calculi induce and the padded pair, which has a field
# acting by zero
DERIVED_PAIRS = [pair_from_calculus(c) for c in all_calculi()] \
    + [padded_pair()]

LAWFUL_PAIRS = pytest.mark.parametrize(
    "pair", [builtin(name, params).pair for name, params in CCR_BUILTINS]
    + DERIVED_PAIRS,
    ids=["-".join([name] + [str(v) for v in params])
         for name, params in CCR_BUILTINS]
    + ["derived-%d" % k for k in range(len(DERIVED_PAIRS) - 1)]
    + ["padded"])


def findings(rep):
    return [(f.law, f.witness, f.detail) for f in rep.findings]


def assert_ccr_from_laws_is_check_ccr(pair):
    assert check_cartan(pair).ok
    assert findings(ccr_from_laws(pair)) == findings(check_ccr(pair))


def assert_ccr_defect_is_the_commutator_action(pair):
    # [X_t, l_i] - l(X_t(e_i)) = X_{X_t.e_i - e_i.X_t}, one (i, t) at a
    # time, with the generic products
    assert check_cartan(pair).ok
    a, nb = pair.algebra, pair.bimodule
    for i, li in enumerate(a.lmul):
        for t, x in enumerate(pair.action):
            defect = x @ li - li @ x - a.left_mult_matrix(x.col(i))
            commutator = [r - l for r, l in zip(nb.right[i].col(t),
                                                nb.left[i].col(t))]
            assert defect == pair.action_of(commutator), (i, t)


@LAWFUL_PAIRS
def test_ccr_from_laws_gives_the_report_of_check_ccr(pair):
    assert_ccr_from_laws_is_check_ccr(pair)


@LAWFUL_PAIRS
def test_ccr_defect_is_the_action_of_the_bimodule_commutator(pair):
    assert_ccr_defect_is_the_commutator_action(pair)


@settings(max_examples=15, deadline=None)
@given(transported_pairs(SMALL_PAIRS))
def test_ccr_from_laws_gives_the_report_of_check_ccr_after_basis_change(
        pair):
    assert_ccr_from_laws_is_check_ccr(pair)


@settings(max_examples=15, deadline=None)
@given(transported_pairs(SMALL_PAIRS))
def test_ccr_defect_is_the_commutator_action_after_basis_change(pair):
    assert_ccr_defect_is_the_commutator_action(pair)


def test_fock_conditions():
    for pair in (dn_pair(), quantum_plane_pair(),
                 pair_from_calculus(theta_z2())):
        assert fock_check(pair).ok


def test_planted_vacuum_violation():
    base = dn_pair()
    bad = CartanPair(base.algebra, base.bimodule,
                     (Matrix([[0, 0], [1, 0]]),))
    assert any(f.law == "vacuum-annihilation"
               for f in fock_check(bad).findings)
    assert not check_cartan(bad).ok


def test_naive_derivative_pair_keeps_vacuum_but_breaks_leibniz():
    p = naive_derivative_pair(4)
    assert fock_check(p).ok
    assert not check_cartan(p).ok


def test_word_formatting():
    p = dn_pair()
    w = FreeWord.algebra_letter(p, (0, 2)) * FreeWord.module_letter(p, (1,))
    assert format_word_sum(p, w) == "2*x*X0"
    assert format_word_sum(p, FreeWord(p)) == "0"
