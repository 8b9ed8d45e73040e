"""Builtin bundles: validity, cross-checks against independently typed
tables, parameter handling, planted fixtures."""

import subprocess
import sys

import pytest

from ncwb.algebra import check_algebra, check_bimodule
from ncwb.calculus import check_leibniz
from ncwb.cartan import (
    calculus_from_pair, check_cartan, co_universal_factorization,
    co_universal_pair, pair_from_calculus,
)
from ncwb.catalog import (
    BUILTIN_NAMES, MAX_PARAM, broken_connection_fixture, builtin,
    naive_derivative_fixture, noncommuting_bimodule_fixture,
    unit_differential_fixture, vacuum_violation_fixture,
)
from ncwb.cli import main
from ncwb.connections import check_connection
from ncwb.diffops import fock_check
from fractions import Fraction

from ncwb.linalg import frac

import helpers
from helpers import act_left, all_builtins


def assert_lawful(b):
    """Every piece of the bundle passes its checker, run here again."""
    assert check_algebra(b.algebra).ok
    for m in b.bimodules.values():
        assert check_bimodule(m).ok
    if b.calculus is not None:
        assert check_bimodule(b.calculus.bimodule).ok
        assert check_leibniz(b.calculus).ok
    if b.pair is not None:
        assert check_bimodule(b.pair.bimodule).ok
        assert check_cartan(b.pair).ok


def test_all_builtins_are_valid():
    bundles = all_builtins()
    assert [b.name for b in bundles] == list(BUILTIN_NAMES)
    for b in bundles:
        assert_lawful(b)


def same_algebra(a, b):
    return a.dim == b.dim and a.sc == b.sc and a.unit == b.unit


def test_dual_numbers_is_its_own_bundle():
    dual, line = builtin("dual_numbers"), builtin("truncated_poly", (2,))
    assert dual.name == "dual_numbers" and line.name == "truncated_poly"
    assert dual.notes.startswith("numbers 1 + eps")
    assert dual.verdicts is not line.verdicts
    assert set(dual.verdicts) == {id(obj) for _, _, obj in dual.members()}


def test_tables_match_independent_transcriptions():
    cases = [
        ("dual_numbers", (), helpers.dual_numbers()),
        ("truncated_poly", (4,), helpers.truncated_polynomials(4)),
        ("group_algebra_z2", (), helpers.z2_group_algebra()),
        ("upper_triangular_2", (), helpers.upper_triangular_2()),
        ("matrix_2", (), helpers.matrix_2()),
        ("quantum_plane_trunc", (2, 2), helpers.quantum_plane(2, 2)),
    ]
    for name, params, reference in cases:
        assert same_algebra(builtin(name, params).algebra, reference), name


def test_calculi_match_independent_transcriptions():
    b = builtin("dual_numbers")
    ref = helpers.kahler_dual_numbers()
    assert b.calculus.d == ref.d
    assert b.calculus.bimodule.left == ref.bimodule.left
    assert b.calculus.bimodule.right == ref.bimodule.right
    b4 = builtin("truncated_poly", (4,))
    ref4 = helpers.kahler_truncated(4)
    assert b4.calculus.d == ref4.d
    assert b4.calculus.bimodule.left == ref4.bimodule.left


def test_quantum_plane_pair_matches_transcription():
    b = builtin("quantum_plane_trunc")
    ref = helpers.quantum_plane_pair()
    assert b.pair.action == ref.action
    assert b.pair.bimodule.left == ref.bimodule.left
    assert b.pair.bimodule.right == ref.bimodule.right


def test_quantum_plane_relation():
    for q in (frac(2), Fraction(5, 3)):
        a = builtin("quantum_plane_trunc", (q, 2)).algebra
        x, y = (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
        yx = a.left_mult_matrix(y).apply(x)
        assert yx == tuple(q * c for c in a.left_mult_matrix(x).apply(y))


def test_quantum_plane_degree_truncation():
    a = builtin("quantum_plane_trunc", (2, 2)).algebra
    x = (0, 1, 0, 0, 0, 0)
    xx = a.left_mult_matrix(x).apply(x)
    assert a.left_mult_matrix(xx).apply(x) == (0,) * 6


def test_truncated_poly_calculus_shape():
    for n in (2, 3, 5):
        b = builtin("truncated_poly", (n,))
        c = b.calculus
        assert c.bimodule.dim == n - 1
        # the class of x^{n-1} dx is zero: x^{n-1} . w_0 vanishes
        top = tuple(1 if j == n - 1 else 0 for j in range(n))
        assert all(v == 0 for v in
                   act_left(c.bimodule, top, (1,) + (0,) * (n - 2)))
        # d x^j = j x^{j-1} dx
        for j in range(1, n):
            col = c.d.col(j)
            assert col[j - 1] == j
            assert sum(1 for v in col if v != 0) == 1


def test_derived_pairs_carry_their_calculus():
    for b in all_builtins():
        if b.name in ("group_algebra_z2", "quantum_plane_trunc"):
            continue
        assert b.pair.source_calculus is b.calculus
        assert b.pair.bimodule.base is b.calculus.bimodule


def test_full_pipeline_on_every_calculus_bundle():
    for b in all_builtins():
        if b.calculus is None:
            continue
        pair = pair_from_calculus(b.calculus)
        assert check_cartan(pair).ok
        back, _dual = calculus_from_pair(pair)
        assert check_leibniz(back).ok
        fact = co_universal_factorization(pair)
        assert fact.exists and fact.unique
        assert fact.report.ok


def test_z2_co_universal_dimension():
    # the universal one-forms are 2 dimensional and free over one
    # generator, so the dual is a copy of the algebra
    cu = co_universal_pair(builtin("group_algebra_z2").algebra)
    assert cu.source_calculus.bimodule.dim == 2
    assert cu.bimodule.dim == 2


def test_parameter_validation():
    with pytest.raises(ValueError):
        builtin("no_such_bundle")
    with pytest.raises(ValueError):
        builtin("truncated_poly", (7,))
    with pytest.raises(ValueError):
        builtin("truncated_poly", (Fraction(3, 2),))
    with pytest.raises(ValueError):
        builtin("quantum_plane_trunc", (0,))
    with pytest.raises(ValueError):
        builtin("quantum_plane_trunc", (2, 7))
    with pytest.raises(ValueError):
        builtin("dual_numbers", (1,))
    # the degree bound starts at 2: at degree 1 the field Y would send x
    # to x, and the pair would break the twisted Leibniz rule
    for params in [(2, 1), (2, 0), (2, Fraction(5, 2))]:
        with pytest.raises(ValueError, match="degree bound must be an "
                                             "integer in 2..6"):
            builtin("quantum_plane_trunc", params)
    with pytest.raises(ValueError, match="truncation order must be an "
                                         "integer in 2..6"):
        builtin("truncated_poly", (1,))


def test_degree_one_is_a_usage_error(capsys):
    assert main(["builtin", "quantum_plane_trunc", "2", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: degree bound must be an integer in 2..6\n"


@pytest.mark.parametrize("n", range(2, MAX_PARAM + 1))
def test_every_truncation_order_builds_a_lawful_bundle(n):
    assert_lawful(builtin("truncated_poly", (n,)))


@pytest.mark.parametrize("q", [2, -1, Fraction(1, 3)])
@pytest.mark.parametrize("deg", range(2, MAX_PARAM + 1))
def test_every_degree_bound_builds_a_lawful_bundle(q, deg):
    assert_lawful(builtin("quantum_plane_trunc", (q, deg)))


def test_naive_derivative_fixture_witnesses():
    rep = check_cartan(naive_derivative_fixture(4))
    bad = [f for f in rep.findings if f.law == "twisted-leibniz"]
    assert {f.witness for f in bad} == {(0, 1, 3), (0, 2, 2), (0, 3, 1)}


def test_unit_differential_fixture():
    rep = check_leibniz(unit_differential_fixture())
    assert not rep.ok
    assert (0, 0) in [f.witness for f in rep.findings]
    # d(1) = m0, so d(1*1) - d(1).1 - 1.d(1) = -m0, named
    assert [str(f) for f in rep.findings] \
        == ["leibniz at (0,0): d(1*1) defect -m0"]


def test_vacuum_violation_fixture():
    p = vacuum_violation_fixture()
    assert not fock_check(p).ok
    assert not check_cartan(p).ok


def test_noncommuting_bimodule_fixture():
    rep = check_bimodule(noncommuting_bimodule_fixture())
    assert not rep.ok


def test_broken_connection_fixture():
    rep = check_connection(broken_connection_fixture())
    assert [f.witness for f in rep.findings] == [(1, 0)]


def test_validation_rejects_a_planted_broken_bundle_under_optimize():
    # python -O strips asserts; the validation must still refuse
    code = (
        "from ncwb.catalog import ExampleBundle, _validated, "
        "noncommuting_bimodule_fixture\n"
        "from ncwb.reporting import InvariantError\n"
        "m = noncommuting_bimodule_fixture()\n"
        "try:\n"
        "    _validated(ExampleBundle('planted', m.algebra, {'bad': m}))\n"
        "except InvariantError as e:\n"
        "    print('rejected:', e)\n"
        "else:\n"
        "    print('accepted')\n")
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("rejected: builtin planted: bimodule:"), \
        r.stdout
