"""Built-in example bundles and planted-failure fixtures.

Each bundle carries an algebra, its regular bimodule, usually a calculus,
and a Cartan pair; every valid piece is re-checked at construction time, so
a bundle handed out is a verified one.  The fixtures at the bottom are
deliberately broken objects used to prove the checkers can reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .linalg import Matrix, frac
from .algebra import (
    Algebra, Bimodule, check_algebra, check_bimodule,
)
from .calculus import DifferentialCalculus, check_leibniz
from .cartan import CartanPair, check_cartan, pair_from_calculus
from .connections import Connection, trivial_connection
from .reporting import InvariantError

MAX_PARAM = 6


@dataclass
class ExampleBundle:
    name: str
    algebra: Algebra
    bimodules: dict = field(default_factory=dict)
    calculus: Optional[DifferentialCalculus] = None
    pair: Optional[CartanPair] = None
    notes: str = ""


def _validated(bundle: ExampleBundle) -> ExampleBundle:
    """The bundle itself, once every piece passes its checker."""
    reports = [check_algebra(bundle.algebra)]
    reports += [check_bimodule(b) for b in bundle.bimodules.values()]
    if bundle.calculus is not None:
        reports += [check_bimodule(bundle.calculus.bimodule),
                    check_leibniz(bundle.calculus)]
    if bundle.pair is not None:
        reports += [check_bimodule(bundle.pair.bimodule),
                    check_cartan(bundle.pair)]
    for rep in reports:
        if not rep.ok:
            raise InvariantError("builtin %s: %s" % (bundle.name, rep))
    return bundle


def _int_param(params, pos, default, low, high, what):
    if len(params) <= pos:
        return default
    v = frac(params[pos])
    if v.denominator != 1 or not (low <= v.numerator <= high):
        raise ValueError("%s must be an integer in %d..%d" % (what, low, high))
    return int(v)


def _truncated_algebra(n: int) -> Algebra:
    names = ["1"] + ["x^%d" % j for j in range(1, n)]
    names[1] = "x"
    sc = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                sc[i][j][i + j] = Fraction(1)
    unit = [1] + [0] * (n - 1)
    return Algebra(names, sc, unit)


def _shift_calculus(a: Algebra) -> DifferentialCalculus:
    """Differentials of a truncated polynomial line: w_k = x^k dx with the
    top one x^{n-1} dx already zero; both actions shift."""
    n = a.dim
    p = n - 1
    mats = []
    for i in range(n):
        m = [[Fraction(0)] * p for _ in range(p)]
        for k in range(p):
            if i + k < p:
                m[i + k][k] = Fraction(1)
        mats.append(Matrix(m))
    bm = Bimodule(a, p, mats, mats)
    d = [[Fraction(0)] * n for _ in range(p)]
    for j in range(1, n):
        d[j - 1][j] = Fraction(j)
    return DifferentialCalculus(a, bm, Matrix(d))


def _inner_calculus(a: Algebra, u) -> DifferentialCalculus:
    bm = Bimodule.regular(a)
    d = a.left_mult_matrix(u) - a.right_mult_matrix(u)
    return DifferentialCalculus(a, bm, d)


def _dual_numbers() -> ExampleBundle:
    a = _truncated_algebra(2)
    c = _shift_calculus(a)
    return ExampleBundle(
        "dual_numbers", a, {"regular": Bimodule.regular(a)}, c,
        pair_from_calculus(c),
        notes="numbers 1 + eps with eps^2 = 0; one-form module kills x")


def _truncated_poly(n: int) -> ExampleBundle:
    a = _truncated_algebra(n)
    c = _shift_calculus(a)
    return ExampleBundle(
        "truncated_poly", a, {"regular": Bimodule.regular(a)}, c,
        pair_from_calculus(c),
        notes="polynomial line truncated at degree %d" % n)


def _group_algebra_z2() -> ExampleBundle:
    a = Algebra(("1", "g"),
                (((1, 0), (0, 1)), ((0, 1), (1, 0))),
                (1, 0))
    z = Matrix.zeros(0, 2)
    c = DifferentialCalculus(a, Bimodule.zero(a), z)
    pair = CartanPair(a, Bimodule.regular(a),
                      (Matrix.zeros(2, 2), Matrix.zeros(2, 2)))
    return ExampleBundle(
        "group_algebra_z2", a, {"regular": Bimodule.regular(a)}, c, pair,
        notes="order-two group ring; 2g.dg = 0 forces the one-forms to "
              "vanish, so the calculus is zero and the pair acts by zero")


def _upper_triangular_2() -> ExampleBundle:
    # basis e11, e12, e22 with matrix units multiplication
    a = Algebra(("e11", "e12", "e22"),
                (((1, 0, 0), (0, 1, 0), (0, 0, 0)),
                 ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
                 ((0, 0, 0), (0, 0, 0), (0, 0, 1))),
                (1, 0, 1))
    c = _inner_calculus(a, (1, 0, 0))
    return ExampleBundle(
        "upper_triangular_2", a, {"regular": Bimodule.regular(a)}, c,
        pair_from_calculus(c),
        notes="2x2 upper triangular matrices; inner differential [e11, .]")


def _matrix_2() -> ExampleBundle:
    names = ("E11", "E12", "E21", "E22")
    rc = [(0, 0), (0, 1), (1, 0), (1, 1)]
    sc = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i, (r1, c1) in enumerate(rc):
        for j, (r2, c2) in enumerate(rc):
            if c1 == r2:
                sc[i][j][rc.index((r1, c2))] = Fraction(1)
    a = Algebra(names, sc, (1, 0, 0, 1))
    c = _inner_calculus(a, (1, 0, 0, 0))
    return ExampleBundle(
        "matrix_2", a, {"regular": Bimodule.regular(a)}, c,
        pair_from_calculus(c),
        notes="full 2x2 matrix algebra; inner differential [E11, .]")


def _qp_index(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def _quantum_plane(q: Fraction, deg: int) -> ExampleBundle:
    if q == 0:
        raise ValueError("deformation parameter must be nonzero")
    mono = [(a, b) for s in range(deg + 1)
            for a, b in [(s - t, t) for t in range(s + 1)]]
    n = len(mono)

    def name(ab):
        a, b = ab
        out = ""
        if a:
            out += "x" if a == 1 else "x^%d" % a
        if b:
            out += "y" if b == 1 else "y^%d" % b
        return out or "1"

    sc = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, (a1, b1) in enumerate(mono):
        for j, (a2, b2) in enumerate(mono):
            if a1 + a2 + b1 + b2 <= deg:
                sc[i][j][_qp_index(a1 + a2, b1 + b2)] = q ** (b1 * a2)
    alg = Algebra([name(ab) for ab in mono], sc, [1] + [0] * (n - 1))

    # vector fields X, Y: scalars act as themselves, the only nonzero
    # right shift is Y.x = X, and both actions land in top degree so that
    # multiplying by anything of positive degree kills them
    zero2 = Matrix.zeros(2, 2)
    left = [Matrix.identity(2)] + [zero2] * (n - 1)
    right = list(left)
    right[_qp_index(1, 0)] = Matrix([[0, 1], [0, 0]])
    bm = Bimodule(alg, 2, left, right)

    ax = [[Fraction(0)] * n for _ in range(n)]
    ax[_qp_index(0, deg)][_qp_index(1, 0)] = Fraction(1)
    ay = [[Fraction(0)] * n for _ in range(n)]
    ay[_qp_index(deg, 0)][_qp_index(1, 0)] = Fraction(1)
    if deg >= 2:
        ay[_qp_index(0, deg)][_qp_index(2, 0)] = Fraction(1)
    pair = CartanPair(alg, bm, (Matrix(ax), Matrix(ay)))
    return ExampleBundle(
        "quantum_plane_trunc", alg, {"regular": Bimodule.regular(alg)},
        None, pair,
        notes="monomials x^a y^b with a+b <= %d and y.x = %s x.y; "
              "two vector fields whose commutation defect is visible" % (
                  deg, q))


def _no_params(params) -> tuple:
    return ()


def _truncated_params(params) -> tuple:
    return (_int_param(params, 0, 4, 2, MAX_PARAM, "truncation order"),)


def _quantum_plane_params(params) -> tuple:
    q = frac(params[0]) if len(params) >= 1 else Fraction(2)
    return (q, _int_param(params, 1, 2, 1, MAX_PARAM, "degree bound"))


# name -> (most parameters, their normalization, maker of the bundle)
_MAKERS = {
    "dual_numbers": (0, _no_params, _dual_numbers),
    "truncated_poly": (1, _truncated_params, _truncated_poly),
    "group_algebra_z2": (0, _no_params, _group_algebra_z2),
    "upper_triangular_2": (0, _no_params, _upper_triangular_2),
    "matrix_2": (0, _no_params, _matrix_2),
    "quantum_plane_trunc": (2, _quantum_plane_params, _quantum_plane),
}
BUILTIN_NAMES = tuple(_MAKERS)

_CACHE: dict = {}


def builtin(name: str, params=()) -> ExampleBundle:
    """Construct a validated bundle by name.

    truncated_poly takes the truncation order (default 4);
    quantum_plane_trunc takes the deformation parameter (default 2) and
    the degree bound (default 2).
    """
    params = tuple(params)
    if name not in BUILTIN_NAMES:
        raise ValueError("unknown builtin %r" % name)
    expected, normalize, make = _MAKERS[name]
    if len(params) > expected:
        raise ValueError("%s takes at most %d parameter(s)" % (name, expected))
    # bundles are cached by normalized parameters and treated as immutable
    args = normalize(params)
    key = (name,) + args
    if key not in _CACHE:
        _CACHE[key] = _validated(make(*args))
    return _CACHE[key]


def all_builtins() -> list:
    """Every builtin at default parameters."""
    return [builtin(name) for name in BUILTIN_NAMES]


# ---- planted failures -------------------------------------------------

def naive_derivative_fixture(n: int = 4) -> CartanPair:
    """x^t d/dx on the regular bimodule of the truncated line: the top
    degree breaks the twisted Leibniz rule because d/dx does not see the
    truncation."""
    a = _truncated_algebra(n)
    ddx = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, n):
        ddx[j - 1][j] = Fraction(j)
    ddx = Matrix(ddx)
    acts = tuple(a.lmul[t] @ ddx for t in range(n))
    return CartanPair(a, Bimodule.regular(a), acts)


def unit_differential_fixture() -> DifferentialCalculus:
    """d1 != 0, so the Leibniz rule fails on 1 * 1."""
    good = _shift_calculus(_truncated_algebra(2))
    return DifferentialCalculus(good.algebra, good.bimodule,
                                Matrix([[1, 1]]))


def vacuum_violation_fixture() -> CartanPair:
    """A field with X(1) = x: no vacuum, and the unit is not annihilated."""
    base = _dual_numbers().pair
    return CartanPair(base.algebra, base.bimodule,
                      (Matrix([[0, 0], [1, 0]]),))


def noncommuting_bimodule_fixture() -> Bimodule:
    """Left action of x squares to itself although x^2 = 0."""
    a = _truncated_algebra(2)
    return Bimodule(a, 1, (Matrix([[1]]), Matrix([[1]])),
                    (Matrix([[1]]), Matrix([[0]])))


def broken_connection_fixture() -> Connection:
    """The zero map into M (x)_A A, which drops the df (x) xi term."""
    c = _shift_calculus(_truncated_algebra(2))
    good = trivial_connection(c, 1)
    return Connection(c, good.module, good.tensor,
                      Matrix.zeros(good.tensor.module.dim, good.module.dim))
