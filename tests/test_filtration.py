"""The order filtration D_0 = l(A), D_{k+1} = D_0 + D_k X against the
relation search, which eliminates the word columns, and the operator
algebra, which closes the identity under every generator."""

import pytest
from hypothesis import given, settings, strategies as st

from ncwb.algebra import Algebra, Bimodule, check_algebra, check_bimodule
from ncwb.cartan import CartanPair, check_cartan
from ncwb.catalog import (
    BUILTIN_NAMES, builtin, naive_derivative_fixture,
    vacuum_violation_fixture,
)
from ncwb.diffops import (
    find_relations, generate_diffop_algebra, order_filtration, word_count,
)
from ncwb.linalg import Matrix

from helpers import (
    left_linear_pairs, naive_derivative_pair, random_action_pairs,
    transported_pairs,
)

LENGTHS = range(1, 6)


def lawful(pair) -> bool:
    return check_algebra(pair.algebra).ok \
        and check_bimodule(pair.bimodule).ok and check_cartan(pair).ok


def assert_filtration_counts_the_relations(pair):
    """W_L words and W_L - dim D_{L-1} relations at every length, and a
    stable dimension no larger than the operator algebra's, equal to it on
    a lawful pair."""
    dims = order_filtration(pair)
    assert list(dims) == sorted(set(dims))
    for length in LENGTHS:
        rs = find_relations(pair, length)
        assert word_count(pair, length) == len(rs.words)
        assert word_count(pair, length) - dims[min(length, len(dims)) - 1] \
            == len(rs.rules)
    ops = generate_diffop_algebra(pair).dim
    assert dims[-1] <= ops
    if lawful(pair):
        assert dims[-1] == ops
    return dims


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_filtration_counts_the_relations_of_every_builtin(name):
    pair = builtin(name).pair
    assert lawful(pair)
    assert_filtration_counts_the_relations(pair)


@pytest.mark.parametrize("case,dims", [
    ("dual_numbers", (2, 3)),
    ("truncated_poly 6", (6, 11, 15, 18, 20, 21)),
    ("matrix_2", (4, 8)),
    ("quantum_plane_trunc 2 6", (28, 30)),
])
def test_stable_dimension_is_the_operator_algebra(case, dims):
    name, *params = case.split()
    pair = builtin(name, tuple(int(x) for x in params)).pair
    assert order_filtration(pair) == dims
    assert generate_diffop_algebra(pair).dim == dims[-1]


@pytest.mark.parametrize("make", [
    naive_derivative_fixture, vacuum_violation_fixture,
    lambda: naive_derivative_pair(3), lambda: naive_derivative_pair(5),
], ids=["naive-derivative", "vacuum-violation", "naive-3", "naive-5"])
def test_filtration_counts_the_relations_of_lawless_fixtures(make):
    pair = make()
    assert not lawful(pair)
    assert_filtration_counts_the_relations(pair)


def test_the_stable_dimension_can_fall_short_on_a_lawless_pair():
    # fields that break twisted Leibniz on upper_triangular_2: X_t l_g
    # leaves span{l(f) X_w}, so the closure under every generator is larger
    b = builtin("upper_triangular_2").pair
    acts = (Matrix([[0, 0, 0], [-1, 0, 0], [0, 0, 0]]),
            Matrix([[0, 0, 0], [0, -1, 0], [0, 0, 0]]),
            Matrix([[0, 1, 0], [0, 0, 0], [0, 0, -1]]))
    pair = CartanPair(b.algebra, b.bimodule, acts)
    assert not check_cartan(pair).ok
    assert assert_filtration_counts_the_relations(pair) == (3, 6)
    assert generate_diffop_algebra(pair).dim == 7


SMALL_PAIRS = [builtin(name).pair for name in BUILTIN_NAMES
               if builtin(name).algebra.dim <= 4]


@settings(max_examples=25, deadline=None)
@given(st.one_of(transported_pairs(SMALL_PAIRS),
                 random_action_pairs(SMALL_PAIRS),
                 left_linear_pairs([p.algebra for p in SMALL_PAIRS]),
                 st.integers(2, 5).map(naive_derivative_pair)))
def test_filtration_counts_the_relations_of_drawn_pairs(pair):
    assert_filtration_counts_the_relations(pair)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_filtration_without_fields(name):
    # p = 0: D_0 = l(A) is all there is, and no word has a relation
    a = builtin(name).algebra
    pair = CartanPair(a, Bimodule.zero(a), ())
    assert assert_filtration_counts_the_relations(pair) == (a.dim,)
    assert [word_count(pair, length) for length in LENGTHS] == [a.dim] * 5


def one_dimensional(product) -> Algebra:
    return Algebra(("e",), [[[product]]], (1,))


@pytest.mark.parametrize("field", [0, 1, 3])
def test_filtration_over_a_one_dimensional_algebra(field):
    # n = 1: D_0 is the scalars and every field is a scalar too, so each
    # word of length L > 1 adds one relation
    a = one_dimensional(1)
    pair = CartanPair(a, Bimodule.regular(a), (Matrix([[field]]),))
    assert assert_filtration_counts_the_relations(pair) == (1,)
    assert [word_count(pair, length) for length in LENGTHS] \
        == [1, 2, 3, 4, 5]


def test_filtration_when_every_left_multiplication_vanishes():
    # e e = 0 breaks the unit law; D_0 = 0, and every word is a relation
    a = one_dimensional(0)
    assert not check_algebra(a).ok
    m = Bimodule(a, 1, (Matrix([[1]]),), (Matrix([[1]]),))
    pair = CartanPair(a, m, (Matrix([[1]]),))
    assert assert_filtration_counts_the_relations(pair) == (0,)
