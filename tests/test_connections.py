"""Connections: Leibniz law, contraction, covariant derivative laws."""

import ast
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ncwb.linalg
from ncwb.algebra import Bimodule, LeftModule, tensor_over_A
from ncwb.calculus import universal_calculus
from ncwb.cartan import CartanPair, pair_from_calculus
from ncwb.catalog import BUILTIN_NAMES, broken_connection_fixture, builtin
from ncwb.connections import (
    Connection, ConnectionSpace, check_connection, check_covariant_axioms,
    connection_space, contraction_matrix, covariant_derivative,
    simple_tensor, trivial_connection,
)
from ncwb.linalg import Matrix, frac, kron
from ncwb.reporting import InvariantError

from helpers import (
    BasisChange, check_covariant_axioms_per_field, dual_numbers,
    inner_calculus, kahler_dual_numbers, kahler_truncated, matrix_2,
    quantum_plane_pair, tensor_over_A_by_kron, theta_z2,
    truncated_polynomials, unimodular_matrices, upper_triangular_2,
    zero_calculus,
)


def all_calculi():
    return [kahler_dual_numbers(), kahler_truncated(4), theta_z2(),
            inner_calculus(upper_triangular_2(), (1, 0, 0)),
            inner_calculus(matrix_2(), (1, 0, 0, 0))]


def test_trivial_connection_dual_numbers_matrix():
    c = kahler_dual_numbers()
    conn = trivial_connection(c, 1)
    # the quotient M (x)_A A is one dimensional, spanned by w (x) 1,
    # and nabla(x) = dx (x) 1 lands on that generator
    assert conn.tensor.module.dim == 1
    assert conn.matrix == Matrix([[0, 1]])
    assert check_connection(conn).ok


def test_trivial_connection_passes_everywhere():
    for c in all_calculi():
        for r in (1, 2):
            conn = trivial_connection(c, r)
            assert check_connection(conn).ok
            pair = pair_from_calculus(c)
            assert check_covariant_axioms(conn, pair).ok


def test_contract_unit_tensor_is_pairing():
    c = kahler_dual_numbers()
    conn = trivial_connection(c, 1)
    pair = pair_from_calculus(c)
    t = simple_tensor(conn.tensor, (1,), (1, 0))     # w (x) 1
    got = contraction_matrix(pair.dual, conn.tensor, (1,)).apply(t)
    assert tuple(got) == (0, 1)                      # <X0, w> = x


def test_contract_zero():
    c = kahler_dual_numbers()
    conn = trivial_connection(c, 1)
    pair = pair_from_calculus(c)
    assert all(x == 0 for x in
               contraction_matrix(pair.dual, conn.tensor, (1,)).apply((0,)))


def test_contraction_kills_relations():
    for c in all_calculi():
        e = LeftModule.free(c.algebra, 2)
        t = tensor_over_A(c.bimodule, e)
        dual = pair_from_calculus(c).dual
        for s in range(dual.bimodule.dim):
            x = tuple(1 if k == s else 0 for k in range(dual.bimodule.dim))
            cm = contraction_matrix(dual, t, x)     # asserts balancing inside
            assert cm.nrows == e.dim and cm.ncols == t.module.dim


def test_covariant_derivative_is_the_action_on_rank_one():
    for c in all_calculi():
        pair = pair_from_calculus(c)
        conn = trivial_connection(c, 1)
        for t in range(pair.bimodule.dim):
            x = tuple(1 if s == t else 0 for s in range(pair.bimodule.dim))
            assert covariant_derivative(conn, pair, x) == pair.action[t]


def test_covariant_derivative_rank_two_is_blockwise():
    c = kahler_dual_numbers()
    pair = pair_from_calculus(c)
    conn = trivial_connection(c, 2)
    assert covariant_derivative(conn, pair, (1,)) == \
        kron(Matrix.identity(2), pair.action[0])


def test_covariant_derivative_linear_in_x():
    c = kahler_truncated(3)
    pair = pair_from_calculus(c)
    conn = trivial_connection(c, 2)
    p = pair.bimodule.dim
    coords = tuple(frac(k + 1) for k in range(p))
    total = Matrix.zeros(conn.module.dim, conn.module.dim)
    for t in range(p):
        x = tuple(frac(k + 1) if k == t else 0 for k in range(p))
        total = total + covariant_derivative(conn, pair, x)
    assert covariant_derivative(conn, pair, coords) == total


def test_zero_field_gives_zero_endomorphism():
    c = theta_z2()
    pair = pair_from_calculus(c)
    conn = trivial_connection(c, 1)
    z = (0,) * pair.bimodule.dim
    assert covariant_derivative(conn, pair, z) == Matrix.zeros(2, 2)


def test_zero_map_is_not_a_connection():
    c = kahler_dual_numbers()
    conn = trivial_connection(c, 1)
    bad = Connection(c, conn.module, conn.tensor,
                     Matrix.zeros(conn.tensor.module.dim, conn.module.dim))
    rep = check_connection(bad)
    assert [f.witness for f in rep.findings] == [(1, 0)]
    # and the covariant twisted Leibniz law breaks at the same f, xi
    pair = pair_from_calculus(c)
    rep2 = check_covariant_axioms(bad, pair)
    assert ("twisted-leibniz", (0, 1, 0)) in \
        [(f.law, f.witness) for f in rep2.findings]


def test_pair_mismatch_is_rejected():
    c = kahler_dual_numbers()
    conn = trivial_connection(c, 1)
    with pytest.raises(ValueError):
        covariant_derivative(conn, quantum_plane_pair(), (1, 0))
    other = pair_from_calculus(theta_z2())
    with pytest.raises(ValueError):
        check_covariant_axioms(conn, other)


def test_pair_rebuilt_from_equal_calculus_is_accepted():
    c = kahler_dual_numbers()
    conn = trivial_connection(c, 1)
    pair = pair_from_calculus(conn.calculus)
    assert covariant_derivative(conn, pair, (1,)) == pair.action[0]


def test_connection_space_free_rank_one():
    c = kahler_dual_numbers()
    sp = connection_space(c, LeftModule.free(c.algebra, 1))
    assert sp.exists
    assert check_connection(sp.particular).ok
    assert sp.homogeneous.dim == 1
    # the affine space contains the trivial connection
    triv = trivial_connection(c, 1)
    diff = [x - y for x, y in
            zip(triv.matrix.flatten(), sp.particular.matrix.flatten())]
    assert sp.homogeneous.contains(diff)


def test_connection_space_elements_are_connections():
    c = kahler_truncated(3)
    sp = connection_space(c, LeftModule.free(c.algebra, 1))
    assert sp.exists
    pair = pair_from_calculus(c)
    for k in range(sp.homogeneous.dim):
        coeffs = tuple(1 if j == k else 0 for j in range(sp.homogeneous.dim))
        conn = sp.element(coeffs)
        assert check_connection(conn).ok
        assert check_covariant_axioms(conn, pair).ok


def test_connection_difference_is_module_map():
    c = kahler_dual_numbers()
    e = LeftModule.free(c.algebra, 1)
    sp = connection_space(c, e)
    c1 = sp.element((1,))
    c0 = sp.particular
    d = c1.matrix - c0.matrix
    for i in range(c.algebra.dim):
        assert d @ e.left[i] == sp.tensor.module.left[i] @ d


def test_connection_space_zero_module():
    c = kahler_dual_numbers()
    e = LeftModule(c.algebra, 0, [Matrix((), ncols=0)] * 2)
    sp = connection_space(c, e)
    assert sp.exists
    assert sp.homogeneous.dim == 0
    assert check_connection(sp.particular).ok


def test_connection_space_zero_calculus():
    a = dual_numbers()
    c = zero_calculus(a)
    sp = connection_space(c, LeftModule.free(a, 1))
    assert sp.exists
    assert sp.homogeneous.dim == 0
    assert sp.particular.matrix == Matrix((), ncols=2)
    assert check_connection(sp.particular).ok


def test_universal_calculus_connection():
    a = truncated_polynomials(3)
    u = universal_calculus(a)
    conn = trivial_connection(u, 1)
    assert check_connection(conn).ok
    pair = pair_from_calculus(u)
    assert check_covariant_axioms(conn, pair).ok


# ---- the kron-free tensor product and the per-basis-field axioms -------

def assert_tensor_matches_oracle(m, e):
    t, ref = tensor_over_A(m, e), tensor_over_A_by_kron(m, e)
    assert t.factors == ref.factors
    assert t.relations == ref.relations
    assert t.projection == ref.projection
    assert t.lift == ref.lift
    assert t.module.left == ref.module.left


def law_witnesses(rep):
    return [(f.law, f.witness) for f in rep.findings]


def assert_covariant_axioms_match_oracle(conn, pair):
    rep = check_covariant_axioms(conn, pair)
    assert law_witnesses(rep) == \
        law_witnesses(check_covariant_axioms_per_field(conn, pair))
    return rep


def perturbed(conn, row, col, by):
    """conn with one matrix entry shifted; usually not a connection."""
    rows = [list(r) for r in conn.matrix.rows]
    rows[row][col] += by
    return Connection(conn.calculus, conn.module, conn.tensor,
                      Matrix(rows, ncols=conn.matrix.ncols))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("rank_", [1, 2])
def test_tensor_and_axioms_match_oracles_on_builtins(name, rank_):
    b = builtin(name)
    e = LeftModule.free(b.algebra, rank_)
    mods = list(b.bimodules.values())
    if b.calculus is not None:
        mods.append(b.calculus.bimodule)
    for m in mods:
        assert_tensor_matches_oracle(m, e)
    if b.calculus is not None:
        conn = trivial_connection(b.calculus, rank_)
        pair = pair_from_calculus(b.calculus)
        assert assert_covariant_axioms_match_oracle(conn, pair).ok
        if conn.matrix.nrows:
            bad = perturbed(conn, 0, rank_ - 1, 1)
            assert_covariant_axioms_match_oracle(bad, pair)


@st.composite
def transported_connections(draw):
    """The trivial connection of rank 1..2 on a builtin calculus over an
    algebra of dimension <= 4, after unimodular basis changes of the
    algebra and of the one-forms, with one matrix entry to perturb."""
    b = builtin(draw(st.sampled_from(
        [name for name in BUILTIN_NAMES
         if builtin(name).calculus is not None
         and builtin(name).algebra.dim <= 4])))
    c = b.calculus
    change = BasisChange(draw(unimodular_matrices(c.algebra.dim)),
                         draw(unimodular_matrices(c.bimodule.dim)))
    conn = trivial_connection(change.calculus(c, change.algebra(c.algebra)),
                              draw(st.integers(1, 2)))
    shape = conn.matrix.nrows, conn.matrix.ncols
    entry = (draw(st.integers(0, shape[0] - 1)) if shape[0] else 0,
             draw(st.integers(0, shape[1] - 1)),
             draw(st.sampled_from([-2, -1, 1, 3])))
    return conn, entry


@settings(max_examples=15, deadline=None)
@given(transported_connections())
def test_tensor_and_axioms_match_oracles_after_basis_change(drawn):
    conn, (row, col, by) = drawn
    c = conn.calculus
    assert_tensor_matches_oracle(c.bimodule, conn.module)
    pair = pair_from_calculus(c)
    assert assert_covariant_axioms_match_oracle(conn, pair).ok
    if conn.matrix.nrows:
        bad = perturbed(conn, row, col, by)
        assert_covariant_axioms_match_oracle(bad, pair)


def test_unbalanced_actions_raise_in_tensor_and_oracle():
    # the left action of x on M does not commute with its right action:
    # (x.m0).x = m1.x = m0 but x.(m0.x) = 0.  For a lawful bimodule the
    # balancing relations are stable under every left module E, so the
    # check can only fire on such a lawless M.
    a = dual_numbers()
    i2 = Matrix.identity(2)
    m = Bimodule(a, 2, (i2, Matrix([[0, 0], [1, 0]])),
                 (i2, Matrix([[0, 1], [0, 0]])))
    e = LeftModule.free(a, 1)
    for build in (tensor_over_A, tensor_over_A_by_kron):
        with pytest.raises(InvariantError, match="left action does not "
                           "preserve balancing relations"):
            build(m, e)


def test_findings_name_the_element_the_vector_and_the_coordinates():
    bad = broken_connection_fixture()
    assert [str(f) for f in check_connection(bad).findings] == [
        "connection-leibniz at (1,0): nabla(x.xi_0) != x.nabla(xi_0) "
        "+ d(x) (x) xi_0 at tensor coordinates 0: 0 vs 1"]
    pair = pair_from_calculus(bad.calculus)
    rep = assert_covariant_axioms_match_oracle(bad, pair)
    assert [str(f) for f in rep.findings] == [
        "twisted-leibniz at (0,1,0): nabla_X_0(x.xi_0) != X_0(x).xi_0 "
        "+ nabla_(X_0.x)(xi_0) at module coordinates 1: 0 vs 1"]


def test_action_linearity_finding_on_a_planted_left_action():
    # x acts on the vector field X_0 = x d/dx as the identity instead of
    # as zero, so nabla_(x.X_0)(x) = x while x.nabla_X_0(x) = x^2 = 0
    c = broken_connection_fixture().calculus
    conn = trivial_connection(c, 1)
    good = pair_from_calculus(c)
    nb = good.bimodule
    ident = Matrix.identity(nb.dim)
    planted = CartanPair(c.algebra, Bimodule(c.algebra, nb.dim,
                                             (ident, ident), nb.right),
                         good.action, source_calculus=c, dual=good.dual)
    rep = assert_covariant_axioms_match_oracle(conn, planted)
    linearity = [str(f) for f in rep.findings
                 if f.law == "action-linearity"]
    assert linearity == [
        "action-linearity at (1,0,1): nabla_(x.X_0)(xi_1) != "
        "x.nabla_X_0(xi_1) at module coordinates 1: 1 vs 0"]


# ---- input validation without assert -----------------------------------

VALIDATION_CASES = """
from ncwb.algebra import (
    Algebra, AlgebraElement, Bimodule, BimoduleMap, DualBimodule,
    LeftModule, bimodule_map_space, direct_sum, left_dual, right_dual,
    tensor_over_A, transpose)
from ncwb.calculus import (
    DifferentialCalculus, factor_through_universal, universal_calculus)
from ncwb.cartan import (
    CartanPair, calculus_from_pair, co_universal_factorization,
    co_universal_pair, pair_from_calculus)
from ncwb.catalog import builtin, unit_differential_fixture
from ncwb.connections import (
    Connection, ConnectionSpace, contraction_matrix, trivial_connection)
from ncwb.diffops import FreeWord, evaluate_mu, find_relations
from ncwb.linalg import Echelon, Matrix, Subspace, restrict_to_kernel
from ncwb.reporting import InvariantError
from ncwb.workspace import (
    Workspace, WorkspaceObject, _decl_for, connection_decl)

c = builtin("dual_numbers").calculus
conn = trivial_connection(c, 1)
other = trivial_connection(builtin("matrix_2").calculus, 1)
a, m2 = c.algebra, builtin("matrix_2").algebra
pair, m2_pair = builtin("dual_numbers").pair, builtin("matrix_2").pair
reg, m2_reg = Bimodule.regular(a), Bimodule.regular(m2)
# a second algebra with the dual numbers' table and dimension
twin = unit_differential_fixture().algebra
i1, i2, i3 = (Matrix.identity(n) for n in (1, 2, 3))
x_kills = LeftModule(a, 1, (i1, Matrix.zeros(1, 1)))
odd = Connection(c, x_kills, tensor_over_A(c.bimodule, x_kills),
                 Matrix.zeros(tensor_over_A(c.bimodule, x_kills).module.dim,
                              1))


def add_twice():
    ws = Workspace()
    for _ in range(2):
        ws.add(WorkspaceObject("A", "algebra", a, True))


cases = {
    "apply": lambda: Matrix([[1, 2]]).apply((1,)),
    "coords": lambda: Subspace.full(2).coords((1, 2, 3)),
    "connection-shape": lambda: Connection(
        c, conn.module, conn.tensor, Matrix.zeros(2, 2)),
    "connection-algebra": lambda: Connection(
        c, other.module, conn.tensor, conn.matrix),
    "connection-tensor": lambda: Connection(
        c, LeftModule.free(c.algebra, 1), conn.tensor, conn.matrix),
    "contraction-side": lambda: contraction_matrix(
        left_dual(c.bimodule), conn.tensor, (1,)),
    "contraction-base": lambda: contraction_matrix(
        pair_from_calculus(c).dual, other.tensor, (1,)),
    "rank": lambda: trivial_connection(c, -1),
    "element": lambda: ConnectionSpace(
        conn.tensor, False, None, Subspace.zero(0)).element(()),
    "matrix-ragged": lambda: Matrix([[1, 2], [3]]),
    "matrix-ncols": lambda: Matrix([[1, 2]], ncols=3),
    "matrix-empty": lambda: Matrix([]),
    "from-cols-ragged": lambda: Matrix.from_cols([(1, 2), (3,)]),
    "from-cols-nrows": lambda: Matrix.from_cols([(1, 2)], nrows=3),
    "from-cols-empty": lambda: Matrix.from_cols([]),
    "from-flat": lambda: Matrix.from_flat((1, 2, 3), 2, 2),
    "matmul": lambda: Matrix([[1, 2]]) @ Matrix([[1, 2]]),
    "add": lambda: Matrix([[1, 2]]) + Matrix([[1, 2, 3]]),
    "echelon-insert": lambda: Echelon(2).insert((1, 2, 3)),
    "restrict": lambda: restrict_to_kernel(Subspace.full(2),
                                           Matrix([[1, 2, 3]])),
    "max-len": lambda: find_relations(builtin("dual_numbers").pair, 0),
    "algebra-empty": lambda: Algebra((), (), ()),
    "element-length": lambda: AlgebraElement(a, (1, 2, 3)),
    "element-mul": lambda: a.one() * m2.one(),
    "element-add": lambda: a.one() + m2.one(),
    "bimodule-count": lambda: Bimodule(a, 2, (i3, i3), (i2,)),
    "bimodule-shape": lambda: Bimodule(a, 2, (i2, i2), (i2, i3)),
    "direct-sum": lambda: direct_sum(reg, m2_reg),
    "left-module": lambda: LeftModule(a, 2, (i2, i3)),
    "bimodule-map": lambda: BimoduleMap(reg, reg, i3),
    "map-algebras": lambda: BimoduleMap(m2_reg, reg, Matrix.zeros(2, 4)),
    "universal-algebra": lambda: factor_through_universal(
        c, universal_calculus(twin)),
    "couniversal-algebra": lambda: co_universal_factorization(
        pair, co_universal_pair(twin)),
    "map-space": lambda: bimodule_map_space(reg, m2_reg),
    "transpose-base": lambda: transpose(
        BimoduleMap(reg, reg, i2), right_dual(m2_reg), right_dual(reg)),
    "transpose-side": lambda: transpose(
        BimoduleMap(reg, reg, i2), left_dual(reg), right_dual(reg)),
    "dual-side": lambda: DualBimodule(reg, "middle", reg, Subspace.full(4)),
    "dual-ambient": lambda: DualBimodule(reg, "right", reg, Subspace.full(3)),
    "dual-dim": lambda: DualBimodule(reg, "right", reg, Subspace.full(4)),
    "calculus-algebra": lambda: DifferentialCalculus(m2, reg, i2),
    "calculus-shape": lambda: DifferentialCalculus(a, reg, Matrix.zeros(2, 3)),
    "pair-algebra": lambda: CartanPair(m2, reg, (i2, i2)),
    "pair-count": lambda: CartanPair(a, reg, (i3,)),
    "pair-shape": lambda: CartanPair(a, pair.bimodule, (i3,)),
    "word-mul": lambda: FreeWord.one(pair) * FreeWord.one(m2_pair),
    "word-add": lambda: FreeWord.one(pair) + FreeWord.one(m2_pair),
    "mu": lambda: evaluate_mu(pair, FreeWord.one(m2_pair)),
    "workspace-add": add_twice,
    "connection-decl": lambda: connection_decl(odd, "calculus"),
    "decl-kind": lambda: _decl_for(WorkspaceObject("A", "spline", a, True),
                                   {}),
    "left-linear": lambda: calculus_from_pair(CartanPair(
        a, reg, (Matrix.zeros(2, 2), Matrix([[0, 0], [0, 1]])))),
}
for name, case in cases.items():
    try:
        case()
    except (ValueError, InvariantError) as e:
        print(name, type(e).__name__)
    else:
        print(name, "accepted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_invalid_input_raises_value_error(flags):
    # python -O strips asserts; every check below must still raise
    r = subprocess.run([sys.executable] + flags + ["-c", VALIDATION_CASES],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:-1] == [
        name + " ValueError" for name in (
            "apply", "coords", "connection-shape", "connection-algebra",
            "connection-tensor", "contraction-side", "contraction-base",
            "rank", "element", "matrix-ragged", "matrix-ncols",
            "matrix-empty", "from-cols-ragged", "from-cols-nrows",
            "from-cols-empty", "from-flat", "matmul", "add",
            "echelon-insert", "restrict", "max-len", "algebra-empty",
            "element-length", "element-mul", "element-add", "bimodule-count",
            "bimodule-shape", "direct-sum", "left-module", "bimodule-map",
            "map-algebras", "universal-algebra", "couniversal-algebra",
            "map-space", "transpose-base", "transpose-side", "dual-side",
            "dual-ambient", "dual-dim", "calculus-algebra", "calculus-shape",
            "pair-algebra", "pair-count", "pair-shape", "word-mul",
            "word-add", "mu", "workspace-add", "connection-decl",
            "decl-kind")] + ["left-linear InvariantError"]


def test_package_source_has_no_assert():
    # python -O strips assert statements, so the package never validates
    # with them
    root = pathlib.Path(ncwb.linalg.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_source_imports_only_what_it_uses():
    # every name a module of the package imports is read somewhere in it
    root = pathlib.Path(ncwb.linalg.__file__).parent
    unused = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert unused == []
