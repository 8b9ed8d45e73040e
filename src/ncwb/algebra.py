"""Finite dimensional associative algebras and their bimodules.

An algebra is given by structure constants over a fixed basis, a bimodule by
one left and one right action matrix per algebra basis vector; an element
is its coordinate tuple, and f g is left_mult_matrix(f).apply(g).  All
laws (associativity, unit, action compatibilities) are checked
exhaustively on basis vectors; linearity does the rest.

Duals of a bimodule are taken inside Hom(M, A): the right dual consists of
right module maps, the left dual of left module maps.  A dual element is
stored as its evaluation matrix, a linear map from module coordinates to
algebra coordinates, and the dual is itself a bimodule, its actions
transported through evaluation.  span_action reads each transported
action, X -> L X or X -> X R on the span of those matrices, into
coordinates; the universal one-forms of calculus are read through it too.

A module whose actions are block diagonal over a partition of its
coordinates is the direct sum of its blocks, and a linear system whose
every row touches the coordinates of one block only is one system per
block; its reduced echelon form is the union of the blocks' under the
increasing embedding of each block's coordinates.  invariant_blocks finds
the blocks, restrict cuts a matrix to one and block_sum unites the
blocks' subspaces, so tensor_over_A and connections.connection_space
solve once per distinct block: on A^r, one copy of A instead of r.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .linalg import (
    Echelon, Matrix, Subspace, block_combination, blockwise_product,
    column_blocks, hstack, intertwiner_rows, kernel, kron,
    linear_combination, vector,
)
from .reporting import CheckReport, InvariantError, format_rational


def format_element(names: Sequence[str], coords) -> str:
    """Render a coordinate vector over named basis elements."""
    parts = []
    for name, c in zip(names, coords):
        if c == 0:
            continue
        if name == "1":
            parts.append(format_rational(c))
        elif c == 1:
            parts.append(name)
        elif c == -1:
            parts.append("-" + name)
        else:
            parts.append("%s*%s" % (format_rational(c), name))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return out


class Algebra:
    """Associative unital algebra from structure constants.

    sc[i][j] is the coordinate vector of e_i * e_j.  Only shapes are
    enforced here; run check_algebra for the actual laws so that broken
    tables can still be constructed and reported on.
    """

    def __init__(self, basis_names: Sequence[str], structure_constants,
                 unit):
        self.basis_names = tuple(str(s) for s in basis_names)
        n = len(self.basis_names)
        if n < 1:
            raise ValueError("an algebra needs at least the unit in its "
                             "basis")
        self.dim = n
        sc = tuple(tuple(vector(v) for v in row) for row in structure_constants)
        if len(sc) != n or any(len(row) != n for row in sc) \
                or any(len(v) != n for row in sc for v in row):
            raise ValueError("structure constant table must be n x n vectors of length n")
        self.sc = sc
        self.unit = vector(unit)
        if len(self.unit) != n:
            raise ValueError("unit vector has wrong length")
        # matrices of left/right multiplication by each basis vector
        self.lmul = tuple(
            Matrix.from_cols([sc[i][j] for j in range(n)], nrows=n)
            for i in range(n))
        self.rmul = tuple(
            Matrix.from_cols([sc[j][i] for j in range(n)], nrows=n)
            for i in range(n))

    @property
    def unit_index(self) -> Optional[int]:
        """Index i when the unit is exactly the basis vector e_i."""
        hits = [i for i, c in enumerate(self.unit) if c != 0]
        if len(hits) == 1 and self.unit[hits[0]] == 1:
            return hits[0]
        return None

    def left_mult_matrix(self, f) -> Matrix:
        return linear_combination(f, self.lmul, self.dim, self.dim)

    def right_mult_matrix(self, f) -> Matrix:
        return linear_combination(f, self.rmul, self.dim, self.dim)

    def mult_matrix(self) -> Matrix:
        """Multiplication A (x) A -> A as a dim x dim^2 matrix; tensor basis
        e_i (x) e_j sits at column i*dim + j."""
        n = self.dim
        return Matrix.from_cols([self.sc[i][j] for i in range(n)
                                 for j in range(n)], nrows=n)

    def format(self, coords) -> str:
        return format_element(self.basis_names, coords)

    def __repr__(self):
        return "Algebra(%s)" % ", ".join(self.basis_names)


def check_algebra(a: Algebra) -> CheckReport:
    """Exhaustive associativity and two-sided unit check.

    Associativity is L_{e_i e_j} = L_i L_j, and with
    [l_0 | ... | l_{n-1}] the left multiplications side by side, the pairs
    (i, j) for one i are the blocks j of one identity,
    l_i [l_0 | ... | l_{n-1}] = [l_0 | ... | l_{n-1}] (l_i (x) I_n): column
    k of block j is e_i (e_j e_k) on the left, (e_i e_j) e_k on the right.
    The units are read off the columns of L_1 and R_1."""
    rep = CheckReport("algebra")
    n = a.dim
    names = a.basis_names
    big_l = hstack(a.lmul, n)
    for i, li in enumerate(a.lmul):
        lhs = block_combination(big_l, li, n)
        rhs = li @ big_l
        for col in [] if lhs == rhs else (lhs - rhs).nonzero_cols():
            j, k = divmod(col, n)
            rep.add("associativity", (i, j, k),
                    "(%s*%s)*%s != %s*(%s*%s)" % (
                        names[i], names[j], names[k], names[i],
                        names[j], names[k]))
    ident = Matrix.identity(n)
    left = (a.left_mult_matrix(a.unit) - ident).nonzero_cols()
    right = (a.right_mult_matrix(a.unit) - ident).nonzero_cols()
    for j in range(n):
        if j in left:
            rep.add("left-unit", (j,), "1*%s" % names[j])
        if j in right:
            rep.add("right-unit", (j,), "%s*1" % names[j])
    return rep


def _check_actions(side: str, mats: tuple, algebra: Algebra, dim: int):
    """One dim x dim action matrix per algebra basis vector."""
    if len(mats) != algebra.dim:
        raise ValueError("%d %s action matrices for an algebra of "
                         "dimension %d" % (len(mats), side, algebra.dim))
    for i, m in enumerate(mats):
        if m.nrows != dim or m.ncols != dim:
            raise ValueError("%s action %d is %dx%d, expected %dx%d"
                             % (side, i, m.nrows, m.ncols, dim, dim))


class LeftModule:
    """Left module: one action matrix per algebra basis vector."""

    def __init__(self, algebra: Algebra, dim: int, left: Sequence[Matrix]):
        self.algebra = algebra
        self.dim = dim
        self.left = tuple(left)
        _check_actions("left", self.left, algebra, dim)

    @staticmethod
    def free(a: Algebra, rank_: int) -> "LeftModule":
        """A^rank with componentwise left multiplication: each action is
        block diagonal, rank copies of the left multiplication."""
        i_r = Matrix.identity(rank_)
        return LeftModule(a, a.dim * rank_, [kron(i_r, lm) for lm in a.lmul])

    def left_of(self, f) -> Matrix:
        return linear_combination(f, self.left, self.dim, self.dim)

    def __repr__(self):
        return "LeftModule(dim %d over %r)" % (self.dim, self.algebra)


class Bimodule(LeftModule):
    """Bimodule over an algebra: left[i], right[i] act for basis vector e_i."""

    def __init__(self, algebra: Algebra, dim: int, left: Sequence[Matrix],
                 right: Sequence[Matrix]):
        super().__init__(algebra, dim, left)
        self.right = tuple(right)
        _check_actions("right", self.right, algebra, dim)

    @staticmethod
    def regular(a: Algebra) -> "Bimodule":
        return Bimodule(a, a.dim, a.lmul, a.rmul)

    @staticmethod
    def zero(a: Algebra) -> "Bimodule":
        z = Matrix((), ncols=0)
        return Bimodule(a, 0, (z,) * a.dim, (z,) * a.dim)

    def right_of(self, f) -> Matrix:
        return linear_combination(f, self.right, self.dim, self.dim)

    def is_symmetric(self) -> bool:
        return all(l == r for l, r in zip(self.left, self.right))

    def __repr__(self):
        return "Bimodule(dim %d over %r)" % (self.dim, self.algebra)


def _first_difference(lhs: Matrix, rhs: Matrix) -> str:
    """Where two different action matrices of one shape first differ: the
    first basis vector m<s> they send to different images, the first
    coordinate m<r> of those images that differs, and both values."""
    s = (lhs - rhs).nonzero_cols()[0]
    for r, (x, y) in enumerate(zip(lhs.col(s), rhs.col(s))):
        if x != y:
            return "on m%d, coordinate m%d: %s != %s" % (
                s, r, format_rational(x), format_rational(y))


def _differing_blocks(lhs: Matrix, rhs: Matrix, width: int) -> list:
    """(k, lhs block k, rhs block k) for each block of width columns where
    two rows of blocks differ, in increasing k."""
    if lhs == rhs:
        return []
    bad = sorted({col // width for col in (lhs - rhs).nonzero_cols()})
    lb, rb = column_blocks(lhs, width), column_blocks(rhs, width)
    return [(k, lb[k], rb[k]) for k in bad]


def check_bimodule(m: Bimodule) -> CheckReport:
    """Left action is a unital homomorphism, right action a unital
    antihomomorphism, and the two commute; all on basis vectors.  The
    module basis vectors are named m0, m1, ...

    With M = [L_0 | ... | L_{n-1}] and N = [R_0 | ... | R_{n-1}] the
    actions side by side (d x nd), and l_i, r_i the multiplications of
    the algebra, each law is one identity per basis vector, its blocks
    the basis pairs:

        left         L_i M = M (l_i (x) I_d)   block j: L_i L_j = L_{e_i e_j}
        right        R_j N = N (r_j (x) I_d)   block i: R_j R_i = R_{e_i e_j}
        commutation  R_j M = M (I_n (x) R_j)   block i: R_j L_i = L_i R_j

    M (l_i (x) I_d) is the block combination sum_k l_i[k][j] L_k, the
    factor never formed.  The findings are listed by basis pair (i, j),
    the three laws in this order, then the units.
    """
    rep = CheckReport("bimodule")
    a = m.algebra
    n, d = a.dim, m.dim
    names = a.basis_names
    big_l, big_r = hstack(m.left, d), hstack(m.right, d)
    found = []
    for i in range(n):
        for j, lhs, rhs in _differing_blocks(
                block_combination(big_l, a.lmul[i], d), m.left[i] @ big_l, d):
            found.append(((i, j, 0), "left-action-product",
                          "(%s*%s).m != %s.(%s.m) %s" % (
                              names[i], names[j], names[i], names[j],
                              _first_difference(lhs, rhs))))
    for j in range(n):
        for i, lhs, rhs in _differing_blocks(
                block_combination(big_r, a.rmul[j], d), m.right[j] @ big_r,
                d):
            found.append(((i, j, 1), "right-action-product",
                          "m.(%s*%s) != (m.%s).%s %s" % (
                              names[i], names[j], names[i], names[j],
                              _first_difference(lhs, rhs))))
        for i, lhs, rhs in _differing_blocks(
                blockwise_product(big_l, m.right[j], n), m.right[j] @ big_l,
                d):
            found.append(((i, j, 2), "action-commutation",
                          "%s.(m.%s) != (%s.m).%s %s" % (
                              names[i], names[j], names[i], names[j],
                              _first_difference(lhs, rhs))))
    for (i, j, _), law, detail in sorted(found):
        rep.add(law, (i, j), detail)
    ident = Matrix.identity(d)
    lhs = m.left_of(a.unit)
    if lhs != ident:
        rep.add("left-unital", (), "1.m != m %s"
                % _first_difference(lhs, ident))
    lhs = m.right_of(a.unit)
    if lhs != ident:
        rep.add("right-unital", (), "m.1 != m %s"
                % _first_difference(lhs, ident))
    return rep


class BimoduleMap:
    """Linear map source -> target intended to intertwine both actions."""

    def __init__(self, source: Bimodule, target: Bimodule, matrix: Matrix):
        if source.algebra is not target.algebra:
            raise ValueError("a bimodule map needs bimodules over one "
                             "algebra")
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValueError("a map from dimension %d to %d needs a %dx%d "
                             "matrix, not %dx%d" % (
                                 source.dim, target.dim, target.dim,
                                 source.dim, matrix.nrows, matrix.ncols))
        self.source, self.target, self.matrix = source, target, matrix


def check_bimodule_map(alpha: BimoduleMap) -> CheckReport:
    """alpha commutes with both actions, on source basis vectors m0, m1, ...
    (the coordinates are those of the target)."""
    rep = CheckReport("bimodule map")
    src, tgt = alpha.source, alpha.target
    names = src.algebra.basis_names
    for i in range(src.algebra.dim):
        lhs, rhs = alpha.matrix @ src.left[i], tgt.left[i] @ alpha.matrix
        if lhs != rhs:
            rep.add("left-intertwine", (i,),
                    "alpha(%s.m) != %s.alpha(m) %s" % (
                        names[i], names[i], _first_difference(lhs, rhs)))
        lhs, rhs = alpha.matrix @ src.right[i], tgt.right[i] @ alpha.matrix
        if lhs != rhs:
            rep.add("right-intertwine", (i,),
                    "alpha(m.%s) != alpha(m).%s %s" % (
                        names[i], names[i], _first_difference(lhs, rhs)))
    return rep


def bimodule_map_space(m: Bimodule, n: Bimodule) -> Subspace:
    """All bimodule maps m -> n, as row-major flattened (n.dim x m.dim)
    matrices phi with phi L_i = L'_i phi and phi R_i = R'_i phi."""
    if m.algebra is not n.algebra:
        raise ValueError("bimodule maps need bimodules over one algebra")
    rows = []
    for i in range(m.algebra.dim):
        rows.extend(intertwiner_rows(m.left[i], n.left[i]))
        rows.extend(intertwiner_rows(m.right[i], n.right[i]))
    return kernel(Matrix.from_int_rows(rows, n.dim * m.dim))


class DualBimodule(Bimodule):
    """Dual of a bimodule inside Hom(M, A).

    side 'right': right module maps X(m.g) = X(m) g, carrying
        (f.X.g)(m) = f X(g.m).
    side 'left': left module maps X(f.m) = f X(m), carrying
        (f.X.g)(m) = X(m.f) g.

    The dual is built from span, the canonical subspace of the flattened
    (row-major) evaluation matrices, and its two actions over that basis:
    basis element k is span.basis[k], stored as its evaluation matrix
    eval_mats[k], mapping module coordinates to algebra coordinates.  A
    canonical basis is independent, so nothing is eliminated here.
    """

    def __init__(self, base: Bimodule, side: str, span: Subspace,
                 left: Sequence[Matrix], right: Sequence[Matrix]):
        if side not in ("right", "left"):
            raise ValueError("a dual is taken on the right or the left, "
                             "not %r" % (side,))
        n, md = base.algebra.dim, base.dim
        if span.ambient_dim != n * md:
            raise ValueError("evaluation matrices on a bimodule of "
                             "dimension %d flatten into Q^%d, not Q^%d"
                             % (md, n * md, span.ambient_dim))
        super().__init__(base.algebra, span.dim, left, right)
        self.base = base
        self.side = side
        self.span = span
        self.eval_mats = tuple(span.matrix.row_matrices(n, md))

    def eval_of(self, xcoords) -> Matrix:
        return linear_combination(xcoords, self.eval_mats,
                                  self.base.algebra.dim, self.base.dim)

    def __repr__(self):
        return "DualBimodule(%s, dim %d)" % (self.side, self.dim)


def span_action(span: Subspace, shape: tuple, error: str,
                left: Optional[Matrix] = None,
                right: Optional[Matrix] = None) -> Matrix:
    """The matrix of X -> L X, or of X -> X R, on a span of r x c matrices
    read row-major, over its canonical basis; shape is (r, c).

    flat(L X) = flat(X) (L^T (x) I_c) is one block_combination of the
    span's basis rows, and flat(X R) = flat(X) (I_r (x) R) one
    blockwise_product.  Subspace.coords_int reads the coordinates of all
    the images at once and certifies them: an image outside the span
    raises InvariantError(error).
    """
    r, c = shape
    if right is None:
        images = block_combination(span.matrix, left.transpose(), c)
    else:
        images = blockwise_product(span.matrix, right, r)
    coords, _ = span.coords_int(images)
    if coords is None:
        raise InvariantError(error)
    return coords.transpose()


def _dual(m: Bimodule, side: str) -> DualBimodule:
    """The dual on one side, its actions X -> L X and X -> X R read off
    the span by span_action."""
    a = m.algebra
    n, md = a.dim, m.dim
    rows = []
    for j in range(n):
        if side == "right":
            # X (m.g) = X(m) g  <=>  X R_j = Rr_j X
            rows.extend(intertwiner_rows(m.right[j], a.rmul[j]))
        else:
            # X (f.m) = f X(m)  <=>  X L_j = Ll_j X
            rows.extend(intertwiner_rows(m.left[j], a.lmul[j]))
    sol = kernel(Matrix.from_int_rows(rows, n * md))
    error = "the %s dual is not closed under its actions" % side
    if side == "right":
        # (f.X)(m) = f X(m) and (X.g)(m) = X(g.m)
        left = [span_action(sol, (n, md), error, left=lm) for lm in a.lmul]
        right = [span_action(sol, (n, md), error, right=lm) for lm in m.left]
    else:
        # (f.X)(m) = X(m.f) and (X.g)(m) = X(m) g
        left = [span_action(sol, (n, md), error, right=rm) for rm in m.right]
        right = [span_action(sol, (n, md), error, left=rm) for rm in a.rmul]
    return DualBimodule(m, side, sol, left, right)


def right_dual(m: Bimodule) -> DualBimodule:
    """Right module maps M -> A with (f.X.g)(m) = f X(g.m)."""
    return _dual(m, "right")


def left_dual(m: Bimodule) -> DualBimodule:
    """Left module maps M -> A with (f.X.g)(m) = X(m.f) g."""
    return _dual(m, "left")


def transpose(alpha: BimoduleMap, source_dual: DualBimodule,
              target_dual: DualBimodule) -> BimoduleMap:
    """Dual map: alpha^T sends Y in the target dual to Y o alpha.

    The duals must be of the same side and taken over alpha's source and
    target; the composite lands in the source dual exactly when alpha is a
    bimodule map.
    """
    if source_dual.base is not alpha.source \
            or target_dual.base is not alpha.target:
        raise ValueError("the duals must be taken over the source and the "
                         "target of the map")
    if source_dual.side != target_dual.side:
        raise ValueError("a %s dual and a %s dual have no transpose map"
                         % (source_dual.side, target_dual.side))
    # flat(Y alpha) = flat(Y) (I (x) alpha) for every Y at once
    images = blockwise_product(target_dual.span.matrix, alpha.matrix,
                               alpha.source.algebra.dim)
    c, _ = source_dual.span.coords_int(images)
    if c is None:
        raise ValueError("composite is not a module map; transpose "
                         "undefined")
    return BimoduleMap(target_dual, source_dual, c.transpose())


def invariant_blocks(mats: Iterable[Matrix], n: int) -> list:
    """The finest partition of the coordinates 0..n-1 into blocks that
    every n x n matrix in mats maps into themselves, as increasing tuples
    in the order of their first coordinates.

    An entry at (r, j) sends coordinate j into coordinate r, so the blocks
    are the connected components of the supports, found by union-find;
    every matrix is then block diagonal over them.
    """
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for m in mats:
        for r, row in enumerate(m.int_rows()[1]):
            for j, _ in row:
                a, b = root(r), root(j)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    blocks = {}
    for x in range(n):
        blocks.setdefault(root(x), []).append(x)
    return [tuple(b) for b in blocks.values()]


def restrict(m: Matrix, rows: Sequence[int],
             cols: Optional[Sequence[int]] = None) -> Matrix:
    """The submatrix of m on the given rows and columns (by default the
    rows), both increasing, renumbered from 0 in that order."""
    index = {j: k for k, j in enumerate(rows if cols is None else cols)}
    den, mrows = m.int_rows()
    return Matrix.from_int_rows(
        [(den, [(index[j], x) for j, x in mrows[r] if j in index])
         for r in rows], len(index))


def block_sum(ambient_dim: int, parts: Iterable) -> Subspace:
    """The direct sum of subspaces over disjoint coordinate sets, with its
    canonical basis.  parts lists (space, coords): coordinate k of the
    space is coordinate coords[k] of Q^ambient_dim, coords increasing.
    The reduced echelon basis of the sum is the union of the embedded
    bases in increasing pivot order.
    """
    picked = []
    for space, coords in parts:
        den, rows = space.matrix.int_rows()
        picked.extend((coords[pc], den, [(coords[j], x) for j, x in row])
                      for pc, row in zip(space.pivots, rows))
    picked.sort(key=lambda p: p[0])
    return Subspace(Matrix.from_int_rows([(den, row)
                                          for _, den, row in picked],
                                         ambient_dim),
                    [pc for pc, _, _ in picked])


class TensorProductOverA:
    """M (x)_A E: quotient of the plain tensor product by balancing."""

    def __init__(self, factors: tuple, module: LeftModule,
                 projection: Matrix, lift: Matrix, relations: Subspace):
        self.factors = factors
        self.module = module
        self.projection = projection   # ambient (M x E) -> quotient coords
        self.lift = lift               # section of projection
        self.relations = relations


def tensor_over_A(m: Bimodule, e: LeftModule) -> TensorProductOverA:
    """Balanced tensor product with its canonical coordinates.

    Ambient basis (s, t) -> s * e.dim + t, so an ambient vector is an
    m.dim x e.dim matrix X read row-major.  The relations are spanned by
    (m_s.f_j) (x) xi_t - m_s (x) (f_j.xi_t), and the relation of (s, t) is
    minus row (s, t) of the system X L_j - R_j^T X that intertwiner_rows
    writes out; the reduced echelon form of their span does not depend on
    the sign.

    The relation of (s, t) touches only the coordinates (s', t') with t'
    in the invariant block of the L_j that holds t.  So E = E_1 + ... + E_k
    over its blocks, M (x)_A E is the direct sum of the M (x)_A E_b, and
    the relation span is the sum over disjoint coordinate sets of the
    blocks' spans, the union of their reduced echelon bases (block_sum).
    Each distinct restricted module is eliminated once: the k copies of A
    in A^k cost one elimination of the rank-one system.

    Quotient coordinates are the ambient coordinates away from the
    relation pivots.  f_i acts on the quotient by P_i lift, where
    P_i = projection (L_i (x) I_E) comes from block_combination.
    """
    a = m.algebra
    if e.algebra is not a:
        raise ValueError("the bimodule and the module are over different "
                         "algebras")
    ed = e.dim
    amb = m.dim * ed
    balancing = [r.transpose() for r in m.right]
    spans, parts = {}, []
    for block in invariant_blocks(e.left, ed):
        key = tuple(restrict(lm, block) for lm in e.left)
        if key not in spans:
            ech = Echelon(m.dim * len(block))
            for lm, rm in zip(key, balancing):
                for _, row in intertwiner_rows(lm, rm):
                    ech.insert_int(row)
            spans[key] = ech.subspace()
        # local (s, t) of the block is ambient (s, block[t])
        parts.append((spans[key], [s * ed + t for s in range(m.dim)
                                   for t in block]))
    rel = block_sum(amb, parts)
    pivset = set(rel.pivots)
    qindex = {qc: k for k, qc in enumerate(
        j for j in range(amb) if j not in pivset)}
    qdim = len(qindex)
    # the projection reduces modulo the relations and keeps the quotient
    # coordinates: a quotient coordinate maps to itself, the pivot of a
    # relation row r to -r read at the quotient coordinates (a reduced row
    # is non-zero away from its pivot only there)
    pcols = [(1, {qindex[c]: 1}) if c in qindex else None for c in range(amb)]
    den, rows = rel.matrix.int_rows()
    for row, pc in zip(rows, rel.pivots):
        pcols[pc] = (den, {qindex[j]: -x for j, x in row if j != pc})
    projection = Matrix.from_int_cols(pcols, qdim)
    lift = Matrix.from_int_rows([(1, {qindex[j]: 1} if j in qindex else {})
                                 for j in range(amb)], qdim)

    rel_cols = rel.matrix.transpose()
    left_mats = []
    for i in range(a.dim):
        p_i = block_combination(projection, m.left[i], ed)
        # balancing is stable under the left action, else the quotient
        # action would be ill defined; the projection kills exactly the
        # relations, so stability reads P_i R = 0
        if not (p_i @ rel_cols).is_zero():
            raise InvariantError("left action does not preserve "
                                 "balancing relations")
        left_mats.append(p_i @ lift)
    quotient = LeftModule(a, qdim, left_mats)
    return TensorProductOverA((m, e), quotient, projection, lift, rel)
