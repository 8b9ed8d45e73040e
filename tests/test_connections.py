"""Connections: Leibniz law, contraction, covariant derivative laws."""

import ast
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ncwb.linalg
from ncwb.algebra import Bimodule, DualBimodule, LeftModule, tensor_over_A
from ncwb.calculus import universal_calculus
from ncwb.cartan import CartanPair, pair_from_calculus
from ncwb.catalog import BUILTIN_NAMES, broken_connection_fixture, builtin
from ncwb.connections import (
    Connection, check_connection, check_covariant_axioms,
    connection_space, contraction_matrix, covariant_derivative,
    trivial_connection,
)
from ncwb.linalg import Matrix, frac, kron
from ncwb.reporting import InvariantError

from helpers import (
    BasisChange, check_covariant_axioms_per_field, cols, coords_dense,
    dual_numbers,
    inner_calculus, kahler_dual_numbers, kahler_truncated, matrix_2,
    quantum_plane_pair, simple_tensor, tensor_over_A_by_kron, theta_z2,
    trivial_connection_matrix_by_simple_tensor, truncated_polynomials,
    unimodular_matrices, upper_triangular_2, zero_calculus,
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
    got = contraction_matrix(pair.bimodule, conn.tensor, (1,)).apply(t)
    assert tuple(got) == (0, 1)                      # <X0, w> = x


def test_contract_zero():
    c = kahler_dual_numbers()
    conn = trivial_connection(c, 1)
    pair = pair_from_calculus(c)
    cm = contraction_matrix(pair.bimodule, conn.tensor, (1,))
    assert all(x == 0 for x in cm.apply((0,)))


def test_contraction_kills_relations():
    for c in all_calculi():
        e = LeftModule.free(c.algebra, 2)
        t = tensor_over_A(c.bimodule, e)
        dual = pair_from_calculus(c).bimodule
        for s in range(dual.dim):
            x = tuple(1 if k == s else 0 for k in range(dual.dim))
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
    assert coords_dense(sp.homogeneous, diff) is not None


def test_connection_space_elements_are_connections():
    c = kahler_truncated(3)
    sp = connection_space(c, LeftModule.free(c.algebra, 1))
    assert sp.exists
    pair = pair_from_calculus(c)
    p = sp.particular
    for h in sp.homogeneous.matrix.row_matrices(sp.tensor.module.dim,
                                                p.module.dim):
        conn = Connection(c, p.module, sp.tensor, p.matrix + h)
        assert check_connection(conn).ok
        assert check_covariant_axioms(conn, pair).ok


def test_connection_difference_is_module_map():
    c = kahler_dual_numbers()
    e = LeftModule.free(c.algebra, 1)
    sp = connection_space(c, e)
    # the one homogeneous solution is the difference of two connections
    d, = sp.homogeneous.matrix.row_matrices(sp.tensor.module.dim, e.dim)
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


def assert_simple_tensors_match_oracle(c, rank_):
    """xi -> m (x) xi as the projection of kron(m, I_E), for m = d(e_i) and
    for the basis vectors m_s of M, against the dense simple tensors; and
    the trivial connection against its column-by-column build."""
    e = LeftModule.free(c.algebra, rank_)
    t = tensor_over_A(c.bimodule, e)
    ident = Matrix.identity(e.dim)
    md = c.bimodule.dim
    ms = [c.d.col(i) for i in range(c.algebra.dim)]
    ms += [tuple(1 if s == r else 0 for s in range(md)) for r in range(md)]
    for m in ms:
        op = t.projection @ kron(Matrix.from_cols([m], nrows=md), ident)
        assert cols(op) == [simple_tensor(t, m, xi) for xi in ident.rows]
    assert trivial_connection(c, rank_).matrix \
        == trivial_connection_matrix_by_simple_tensor(c, t, rank_)


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
        assert_simple_tensors_match_oracle(b.calculus, rank_)
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
def test_connection_space_after_basis_change(drawn):
    # the quotient actions have non-unit denominators here, so each row of
    # the Leibniz system must keep its right hand side's scale
    conn, _ = drawn
    sp = connection_space(conn.calculus, conn.module)
    assert sp.exists and check_connection(sp.particular).ok
    assert coords_dense(sp.homogeneous, (
        conn.matrix - sp.particular.matrix).flatten()) is not None


@settings(max_examples=15, deadline=None)
@given(transported_connections())
def test_tensor_and_axioms_match_oracles_after_basis_change(drawn):
    conn, (row, col, by) = drawn
    c = conn.calculus
    assert_tensor_matches_oracle(c.bimodule, conn.module)
    assert_simple_tensors_match_oracle(c, conn.module.dim // c.algebra.dim)
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
    planted = CartanPair(c.algebra, DualBimodule(nb.base, "right", nb.span,
                                                 (ident, ident), nb.right),
                         good.action, source_calculus=c)
    rep = assert_covariant_axioms_match_oracle(conn, planted)
    linearity = [str(f) for f in rep.findings
                 if f.law == "action-linearity"]
    assert linearity == [
        "action-linearity at (1,0,1): nabla_(x.X_0)(xi_1) != "
        "x.nabla_X_0(xi_1) at module coordinates 1: 1 vs 0"]


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES
                                  if builtin(n).calculus is not None])
def test_a_plain_bimodule_naming_a_calculus_is_refused(name):
    # a pair that names its calculus contracts through its bimodule, which
    # must then be that calculus' right dual: a plain Bimodule with the
    # same actions is refused with ValueError, not AttributeError
    b = builtin(name)
    c, nb = b.calculus, b.pair.bimodule
    plain = CartanPair(c.algebra, Bimodule(c.algebra, nb.dim, nb.left,
                                           nb.right),
                       b.pair.action, source_calculus=c)
    conn = trivial_connection(c, 1)
    x0 = tuple(int(t == 0) for t in range(nb.dim))
    with pytest.raises(ValueError, match="right dual of the tensor"):
        covariant_derivative(conn, plain, x0)
    with pytest.raises(ValueError, match="right dual of the tensor"):
        check_covariant_axioms(conn, plain)


# ---- input validation without assert -----------------------------------

VALIDATION_CASES = """
from ncwb.algebra import (
    Algebra, Bimodule, BimoduleMap, DualBimodule,
    LeftModule, bimodule_map_space, left_dual, right_dual, tensor_over_A,
    transpose)
from ncwb.calculus import (
    DifferentialCalculus, factor_through_universal, universal_calculus)
from ncwb.cartan import (
    CartanPair, calculus_from_pair, co_universal_factorization,
    co_universal_pair, pair_from_calculus)
from ncwb.catalog import builtin, unit_differential_fixture
from ncwb.connections import (
    Connection, contraction_matrix, trivial_connection)
from ncwb.diffops import FreeWord, evaluate_mu, find_relations
from ncwb.linalg import Echelon, Matrix, restrict_to_kernel
from ncwb.reporting import InvariantError
from ncwb.workspace import Workspace, WorkspaceObject
from helpers import _decl_for, connection_decl, direct_sum

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
z0 = (Matrix.zeros(0, 0),) * 2
odd = Connection(c, x_kills, tensor_over_A(c.bimodule, x_kills),
                 Matrix.zeros(tensor_over_A(c.bimodule, x_kills).module.dim,
                              1))


def add_twice():
    ws = Workspace()
    for _ in range(2):
        ws.add(WorkspaceObject("A", "algebra", a))


cases = {
    "apply": lambda: Matrix([[1, 2]]).apply((1,)),
    "connection-shape": lambda: Connection(
        c, conn.module, conn.tensor, Matrix.zeros(2, 2)),
    "connection-algebra": lambda: Connection(
        c, other.module, conn.tensor, conn.matrix),
    "connection-tensor": lambda: Connection(
        c, LeftModule.free(c.algebra, 1), conn.tensor, conn.matrix),
    "contraction-side": lambda: contraction_matrix(
        left_dual(c.bimodule), conn.tensor, (1,)),
    "contraction-base": lambda: contraction_matrix(
        pair_from_calculus(c).bimodule, other.tensor, (1,)),
    "rank": lambda: trivial_connection(c, -1),
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
    "restrict": lambda: restrict_to_kernel(Echelon(2).subspace(),
                                           Matrix([[1, 2, 3]])),
    "max-len": lambda: find_relations(builtin("dual_numbers").pair, 0),
    "algebra-empty": lambda: Algebra((), (), ()),
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
    "dual-side": lambda: DualBimodule(
        reg, "middle", Echelon(4).subspace(), z0, z0),
    "dual-ambient": lambda: DualBimodule(
        reg, "right", Echelon(3).subspace(), z0, z0),
    "calculus-algebra": lambda: DifferentialCalculus(m2, reg, i2),
    "calculus-shape": lambda: DifferentialCalculus(a, reg, Matrix.zeros(2, 3)),
    "pair-algebra": lambda: CartanPair(m2, reg, (i2, i2)),
    "pair-count": lambda: CartanPair(a, reg, (i3,)),
    "pair-shape": lambda: CartanPair(a, pair.bimodule, (i3,)),
    "word-mul": lambda: FreeWord(pair) * FreeWord(m2_pair),
    "word-add": lambda: FreeWord(pair) + FreeWord(m2_pair),
    "mu": lambda: evaluate_mu(pair, FreeWord(m2_pair)),
    "left-mult-length": lambda: builtin(
        "dual_numbers").algebra.left_mult_matrix((0, 1, 5)),
    "left-of-length": lambda: reg.left_of((1,)),
    "workspace-add": add_twice,
    "connection-decl": lambda: connection_decl(odd, "calculus"),
    "decl-kind": lambda: _decl_for(WorkspaceObject("A", "spline", a),
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
    # the cases import a test helper, so the tests directory goes on the path
    code = "import sys\nsys.path.insert(0, %r)\n%s" % (
        str(pathlib.Path(__file__).parent), VALIDATION_CASES)
    r = subprocess.run([sys.executable] + flags + ["-c", code],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:-1] == [
        name + " ValueError" for name in (
            "apply", "connection-shape", "connection-algebra",
            "connection-tensor", "contraction-side", "contraction-base",
            "rank", "matrix-ragged", "matrix-ncols",
            "matrix-empty", "from-cols-ragged", "from-cols-nrows",
            "from-cols-empty", "from-flat", "matmul", "add",
            "echelon-insert", "restrict", "max-len", "algebra-empty",
            "bimodule-count",
            "bimodule-shape", "direct-sum", "left-module", "bimodule-map",
            "map-algebras", "universal-algebra", "couniversal-algebra",
            "map-space", "transpose-base", "transpose-side", "dual-side",
            "dual-ambient", "calculus-algebra", "calculus-shape",
            "pair-algebra", "pair-count", "pair-shape", "word-mul",
            "word-add", "mu", "left-mult-length", "left-of-length", "workspace-add", "connection-decl",
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


def _package_definitions(tree):
    """(line, name) for each module-level function, class and constant of
    a module, and (line, "Class.method") for each method and property of
    its classes but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from ((node.lineno, t.id) for t in targets
                        if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((m.lineno, "%s.%s" % (node.name, m.name))
                        for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__")))


def test_every_module_level_definition_of_the_package_is_read():
    # a function, class, constant or method of the package that only the
    # tests read belongs in tests/helpers.py or nowhere.  A read is a Name
    # or an Attribute in Load context (an assignment target is no read), an
    # imported name or an exact string constant (bench/tracer.py names its
    # targets by string) anywhere in src, bench or demos; a method is read
    # when its name is.  The planted-failure *_fixture objects are kept in
    # the package for the checkers' tests
    repo = pathlib.Path(__file__).resolve().parents[1]
    read = set()
    for part in ("src", "bench", "demos"):
        for path in sorted((repo / part).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    read.add(node.value)
    unread = []
    for path in sorted((repo / "src" / "ncwb").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        unread += ["%s:%d %s" % (path.name, line, name)
                   for line, name in _package_definitions(tree)
                   if name.rpartition(".")[2] not in read
                   and not name.endswith("_fixture")]
    assert unread == []


def _class_reads(node, owner, read):
    """Add (class, name) to read for each X.name or pkg.X.name read below
    node, and (owner, name) for each cls.name inside the class owner."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) \
                and isinstance(child.ctx, ast.Load):
            base = child.value
            if isinstance(base, ast.Name):
                read.add((owner if base.id == "cls" else base.id, child.attr))
            elif isinstance(base, ast.Attribute):
                read.add((base.attr, child.attr))
        _class_reads(child, child.name if isinstance(child, ast.ClassDef)
                     else owner, read)


def test_every_class_and_static_method_of_the_package_is_read_by_its_class():
    # the test above counts a method read when any attribute of its name
    # is, so a class or static method nothing calls hides behind a
    # namesake.  These are read as ClassName.name, or cls.name inside
    # their class, in src, bench or demos
    repo = pathlib.Path(__file__).resolve().parents[1]
    read = set()
    for part in ("src", "bench", "demos"):
        for path in sorted((repo / part).rglob("*.py")):
            _class_reads(ast.parse(path.read_text(encoding="utf-8"),
                                   str(path)), None, read)
    unread = []
    for path in sorted((repo / "src" / "ncwb").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        unread += ["%s:%d %s.%s" % (path.name, m.lineno, node.name, m.name)
                   for node in tree.body if isinstance(node, ast.ClassDef)
                   for m in node.body if isinstance(m, ast.FunctionDef)
                   and any(isinstance(d, ast.Name)
                           and d.id in ("classmethod", "staticmethod")
                           for d in m.decorator_list)
                   and (node.name, m.name) not in read]
    assert unread == []


def _delegations(tree):
    """(line, "Class.method") for each non-dunder method whose whole body,
    past a docstring, returns the same-named member of one of its
    attributes, called or not: return self.x.name(...) in a method name."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for m in node.body:
            if not isinstance(m, ast.FunctionDef) \
                    or m.name.startswith("__") and m.name.endswith("__"):
                continue
            body = m.body
            if isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            value = body[0].value
            if isinstance(value, ast.Call):
                value = value.func
            if isinstance(value, ast.Attribute) and value.attr == m.name \
                    and isinstance(value.value, ast.Attribute) \
                    and isinstance(value.value.value, ast.Name) \
                    and value.value.value.id == "self":
                yield m.lineno, "%s.%s" % (node.name, m.name)


def test_no_method_of_the_package_only_delegates_to_an_attribute():
    # a method that returns self.x.name for its own name adds a second
    # spelling of one member; callers read self.x.name instead
    root = pathlib.Path(ncwb.linalg.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d %s" % (path.name, line, name)
                  for line, name in _delegations(tree)]
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
