"""The balanced tensor product and the connection space solved once per
distinct invariant block of the module, against the one-solve oracles,
and the elimination work they do on free modules A^r."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import ncwb.workspace
from ncwb.algebra import (
    LeftModule, block_sum, invariant_blocks, restrict, tensor_over_A,
)
from ncwb.catalog import builtin
from ncwb.cli import main
from ncwb.connections import connection_space
from ncwb.linalg import Echelon, Matrix, Subspace

from helpers import (
    BasisChange, connection_space_one_solve, inverse,
    tensor_over_A_by_kron, tensor_over_A_one_solve, unimodular,
    unimodular_matrices,
)

CALCULUS_BUILTINS = ("dual_numbers", "truncated_poly", "upper_triangular_2",
                     "matrix_2")


def permutation(order) -> Matrix:
    """The matrix sending e_k to e_order[k]."""
    n = len(order)
    return Matrix.from_cols([[int(i == order[k]) for i in range(n)]
                             for k in range(n)], n)


def conjugated(e: LeftModule, q: Matrix) -> LeftModule:
    """e in the basis of the columns of q."""
    qinv = inverse(q)
    return LeftModule(e.algebra, e.dim, [qinv @ lm @ q for lm in e.left])


def module_sum(e: LeftModule, f: LeftModule) -> LeftModule:
    """E (+) F, the coordinates of E first."""
    d = e.dim + f.dim
    return LeftModule(e.algebra, d, [Matrix(
        [tuple(r) + (0,) * f.dim for r in le.rows]
        + [(0,) * e.dim + tuple(r) for r in lf.rows], ncols=d)
        for le, lf in zip(e.left, f.left)])


def zero_module(a) -> LeftModule:
    return LeftModule(a, 0, [Matrix.zeros(0, 0)] * a.dim)


def assert_blockwise_matches_oracles(c, e):
    """tensor_over_A and connection_space against one elimination of the
    whole system; the tensor product also against the dense kron route."""
    t = tensor_over_A(c.bimodule, e)
    for ref in (tensor_over_A_one_solve(c.bimodule, e),
                tensor_over_A_by_kron(c.bimodule, e)):
        assert t.relations == ref.relations
        assert t.relations.pivots == ref.relations.pivots
        assert t.projection == ref.projection
        assert t.lift == ref.lift
        assert t.module.left == ref.module.left
    sp = connection_space(c, e)
    ref = connection_space_one_solve(c, e, t)
    assert sp.exists == ref.exists
    assert sp.homogeneous == ref.homogeneous
    assert sp.homogeneous.pivots == ref.homogeneous.pivots
    if sp.exists:
        assert sp.particular.matrix == ref.particular.matrix
    else:
        assert sp.particular is None and ref.particular is None
    return sp


# ---- the block helpers -------------------------------------------------

def test_invariant_blocks_are_the_components_of_the_supports():
    # 0 <-> 3 in the first matrix, 3 -> 4 in the second; 1 and 2 alone
    m1 = Matrix.from_int_rows([(1, {3: 1}), (1, {1: 2}), (1, {}),
                               (1, {0: 1}), (1, {})], 5)
    m2 = Matrix.from_int_rows([(1, {})] * 4 + [(1, {3: -1})], 5)
    assert invariant_blocks([m1, m2], 5) == [(0, 3, 4), (1,), (2,)]
    assert invariant_blocks([], 3) == [(0,), (1,), (2,)]
    assert invariant_blocks([Matrix.zeros(0, 0)], 0) == []


def test_restrict_reads_the_submatrix():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert restrict(m, (0, 2)) == Matrix([[1, 3], [7, 9]])
    assert restrict(m, (1,), (0, 2)) == Matrix([[4, 6]])
    assert restrict(m.scale("1/2"), (2,)) == Matrix([["9/2"]])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_sum_is_the_span_of_the_embedded_vectors(data):
    width = data.draw(st.integers(0, 7))
    owner = data.draw(st.lists(st.integers(0, 2), min_size=width,
                               max_size=width))
    entry = st.integers(-2, 2)
    parts, embedded = [], []
    for b in range(3):
        coords = [k for k in range(width) if owner[k] == b]
        vecs = data.draw(st.lists(st.lists(entry, min_size=len(coords),
                                           max_size=len(coords)),
                                  max_size=3))
        parts.append((Subspace.from_vectors(len(coords), vecs), coords))
        for v in vecs:
            full = [0] * width
            for k, x in zip(coords, v):
                full[k] = x
            embedded.append(full)
    got = block_sum(width, parts)
    want = Subspace.from_vectors(width, embedded)
    assert got == want and got.pivots == want.pivots


# ---- the blockwise solves against the oracles --------------------------

@st.composite
def calculi(draw):
    """A builtin calculus, in its own basis or after unimodular basis
    changes of the algebra and of the one-forms."""
    c = builtin(draw(st.sampled_from(CALCULUS_BUILTINS))).calculus
    if draw(st.booleans()):
        change = BasisChange(draw(unimodular_matrices(c.algebra.dim)),
                             draw(unimodular_matrices(c.bimodule.dim)))
        c = change.calculus(c, change.algebra(c.algebra))
    return c


@settings(max_examples=30, deadline=None)
@given(calculi(), st.integers(1, 3), st.data())
def test_free_modules_match_the_oracles(c, rank_, data):
    e = LeftModule.free(c.algebra, rank_)
    if rank_ <= 2 and data.draw(st.booleans(), label="dense module basis"):
        # one block: the same code with nothing to split
        size = e.dim * (e.dim - 1) // 2
        entries = st.lists(st.integers(-1, 1), min_size=size, max_size=size)
        e = conjugated(e, unimodular(e.dim, data.draw(entries),
                                     data.draw(entries)))
    sp = assert_blockwise_matches_oracles(c, e)
    assert sp.exists


@st.composite
def small_modules(draw, c):
    """A left module over c's algebra: A, the one-forms as a left module,
    the quotient A / (rad) of the dual numbers, or random actions (almost
    never lawful)."""
    a = c.algebra
    kinds = ["free", "forms", "random"]
    if a.basis_names == ("1", "x"):
        kinds.append("residue")
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        return LeftModule.free(a, 1)
    if kind == "forms":
        return LeftModule(a, c.bimodule.dim, c.bimodule.left)
    if kind == "residue":
        # unit acts as 1, the nilpotent as 0: no connection exists on it
        return LeftModule(a, 1, [restrict(lm, (0,)) for lm in a.lmul])
    dim = draw(st.integers(1, 2))
    entry = st.sampled_from((0, 0, 1, -1))
    return LeftModule(a, dim, [
        Matrix([[draw(entry) for _ in range(dim)] for _ in range(dim)])
        for _ in range(a.dim)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_interleaved_direct_sums_match_the_oracles(data):
    c = data.draw(calculi())
    e = module_sum(data.draw(small_modules(c)), data.draw(small_modules(c)))
    order = data.draw(st.permutations(range(e.dim)))
    assert_blockwise_matches_oracles(c, conjugated(e, permutation(order)))


@pytest.mark.parametrize("name", CALCULUS_BUILTINS)
def test_zero_dimensional_module_matches_the_oracles(name):
    c = builtin(name).calculus
    e = zero_module(c.algebra)
    sp = assert_blockwise_matches_oracles(c, e)
    assert sp.exists and sp.tensor.module.dim == 0
    assert sp.homogeneous.dim == 0
    sp = assert_blockwise_matches_oracles(
        c, module_sum(LeftModule.free(c.algebra, 1), e))
    assert sp.exists


def test_one_inconsistent_block_leaves_no_connection():
    # A (+) k over the dual numbers, k = A / (x): A carries connections,
    # k none, so neither does the sum; its coordinates are interleaved
    c = builtin("dual_numbers").calculus
    a = c.algebra
    residue = LeftModule(a, 1, [restrict(lm, (0,)) for lm in a.lmul])
    assert not assert_blockwise_matches_oracles(c, residue).exists
    assert assert_blockwise_matches_oracles(
        c, LeftModule.free(a, 1)).exists
    e = conjugated(module_sum(LeftModule.free(a, 1), residue),
                   permutation([0, 2, 1]))
    assert invariant_blocks(e.left, 3) == [(0, 2), (1,)]
    sp = assert_blockwise_matches_oracles(c, e)
    assert not sp.exists and sp.particular is None
    assert sp.homogeneous.dim > 0


# ---- the elimination work does not grow with the rank ------------------

def insert_calls(build) -> int:
    calls = []
    insert = Echelon.insert_int

    def counted(self, row):
        calls.append(1)
        return insert(self, row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Echelon, "insert_int", counted)
        build()
    return len(calls)


@pytest.mark.parametrize("name", CALCULUS_BUILTINS)
def test_rows_eliminated_on_free_modules_do_not_grow_with_the_rank(name):
    c = builtin(name).calculus
    tensor, space = [], []
    for rank_ in (1, 2, 5):
        e = LeftModule.free(c.algebra, rank_)
        tensor.append(insert_calls(lambda: tensor_over_A(c.bimodule, e)))
        space.append(insert_calls(lambda: connection_space(c, e)))
    assert tensor[0] > 0 and space[0] > tensor[0]
    assert tensor == [tensor[0]] * 3
    assert space == [space[0]] * 3


# ---- a connection declaration of a huge rank ---------------------------

def connection_doc(rank_, matrix):
    return {"schema": "ncwb/1", "objects": {
        "D": {"kind": "builtin", "builtin": "dual_numbers"},
        "nabla": {"kind": "connection", "calculus": "D.calculus",
                  "rank": rank_, "matrix": matrix}}}


def test_a_huge_rank_with_a_narrow_matrix_is_refused_at_once(tmp_path,
                                                               capsys,
                                                               monkeypatch):
    # M (x)_A A^20000 has dimension 20000 on the dual numbers; the row
    # count is read from the rank-one product, so no module wider than A
    # reaches tensor_over_A before the refusal
    widths = []

    def recording(m, e):
        widths.append(e.dim)
        return tensor_over_A(m, e)

    monkeypatch.setattr(ncwb.workspace, "tensor_over_A", recording)
    for matrix, message in (
            ([["1"]], "matrix row 0: expected a list of 40000 rationals"),
            ("x", "matrix: expected 20000 matrix rows"),
            ([["0"] * 40000] * 3, "matrix: expected 20000 matrix rows")):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(connection_doc(20000, matrix)))
        assert main(["check", str(path)]) == 2
        assert "object 'nabla' " + message in capsys.readouterr().err
    assert max(widths) == 2


def test_a_wrong_row_count_keeps_its_message(tmp_path, capsys):
    # rank 2 on the dual numbers: M (x)_A A^2 has dimension 2
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(connection_doc(2, [["0"] * 4] * 3)))
    assert main(["check", str(path)]) == 2
    assert "object 'nabla' matrix: expected 2 matrix rows" \
        in capsys.readouterr().err
