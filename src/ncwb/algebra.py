"""Finite dimensional associative algebras and their bimodules.

An algebra is given by structure constants over a fixed basis, a bimodule by
one left and one right action matrix per algebra basis vector.  All laws
(associativity, unit, action compatibilities) are checked exhaustively on
basis vectors; linearity does the rest.

Duals of a bimodule are taken inside Hom(M, A): the right dual consists of
right module maps, the left dual of left module maps.  A dual element is
stored as its evaluation matrix, a linear map from module coordinates to
algebra coordinates, and the dual carries its own bimodule structure
transported through evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import (
    ONE, ZERO, Echelon, Matrix, Subspace, _fractions, frac, intertwiner_rows,
    is_zero_vector, kernel, linear_combination, vadd, vector, vscale, vzero,
)
from .reporting import CheckReport, InvariantError


def format_element(names: Sequence[str], coords) -> str:
    """Render a coordinate vector over named basis elements."""
    parts = []
    for name, c in zip(names, coords):
        if c == 0:
            continue
        if name == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(name)
        elif c == -1:
            parts.append("-" + name)
        else:
            parts.append("%s*%s" % (c, name))
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

    def multiply(self, f, g):
        return self.left_mult_matrix(f).apply(g)

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

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, vector(coords))

    def basis_element(self, i: int) -> "AlgebraElement":
        return self.element(tuple(1 if j == i else 0 for j in range(self.dim)))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit)

    def format(self, coords) -> str:
        return format_element(self.basis_names, coords)

    def __repr__(self):
        return "Algebra(%s)" % ", ".join(self.basis_names)


class AlgebraElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        self.algebra = algebra
        self.coords = vector(coords)
        if len(self.coords) != algebra.dim:
            raise ValueError("%d coordinates for an element of an algebra "
                             "of dimension %d" % (len(self.coords),
                                                  algebra.dim))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra:
                raise ValueError("elements of different algebras cannot be "
                                 "multiplied")
            return AlgebraElement(self.algebra,
                                  self.algebra.multiply(self.coords, other.coords))
        return AlgebraElement(self.algebra, vscale(frac(other), self.coords))

    def __rmul__(self, other):
        return AlgebraElement(self.algebra, vscale(frac(other), self.coords))

    def __add__(self, other):
        if not isinstance(other, AlgebraElement) \
                or other.algebra is not self.algebra:
            raise ValueError("only elements of the same algebra can be "
                             "added")
        return AlgebraElement(self.algebra, vadd(self.coords, other.coords))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def is_zero(self) -> bool:
        return is_zero_vector(self.coords)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) \
            and other.algebra is self.algebra and other.coords == self.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return self.algebra.format(self.coords)


def check_algebra(a: Algebra) -> CheckReport:
    """Exhaustive associativity and two-sided unit check.

    Associativity is L_{e_i e_j} = L_i L_j: column k of the left side is
    (e_i e_j) e_k, of the right side e_i (e_j e_k).  The units are read
    off the columns of L_1 and R_1."""
    rep = CheckReport("algebra")
    n = a.dim
    names = a.basis_names
    for i in range(n):
        for j in range(n):
            lhs = a.left_mult_matrix(a.sc[i][j])
            rhs = a.lmul[i] @ a.lmul[j]
            for k in range(n):
                if lhs.col(k) != rhs.col(k):
                    rep.add("associativity", (i, j, k),
                            "(%s*%s)*%s != %s*(%s*%s)" % (
                                names[i], names[j], names[k], names[i],
                                names[j], names[k]))
    ident = Matrix.identity(n)
    left, right = a.left_mult_matrix(a.unit), a.right_mult_matrix(a.unit)
    for j in range(n):
        if left.col(j) != ident.col(j):
            rep.add("left-unit", (j,), "1*%s" % names[j])
        if right.col(j) != ident.col(j):
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


class Bimodule:
    """Bimodule over an algebra: left[i], right[i] act for basis vector e_i."""

    def __init__(self, algebra: Algebra, dim: int, left: Sequence[Matrix],
                 right: Sequence[Matrix]):
        self.algebra = algebra
        self.dim = dim
        self.left = tuple(left)
        self.right = tuple(right)
        _check_actions("left", self.left, algebra, dim)
        _check_actions("right", self.right, algebra, dim)

    @classmethod
    def regular(cls, a: Algebra) -> "Bimodule":
        return cls(a, a.dim, a.lmul, a.rmul)

    @classmethod
    def zero(cls, a: Algebra) -> "Bimodule":
        z = Matrix((), ncols=0)
        return cls(a, 0, (z,) * a.dim, (z,) * a.dim)

    def left_of(self, f) -> Matrix:
        return linear_combination(f, self.left, self.dim, self.dim)

    def right_of(self, f) -> Matrix:
        return linear_combination(f, self.right, self.dim, self.dim)

    def act_left(self, f, m):
        return self.left_of(f).apply(m)

    def act_right(self, m, f):
        return self.right_of(f).apply(m)

    def is_symmetric(self) -> bool:
        return all(l == r for l, r in zip(self.left, self.right))

    def __repr__(self):
        return "Bimodule(dim %d over %r)" % (self.dim, self.algebra)


def direct_sum(m: Bimodule, n: Bimodule) -> Bimodule:
    if m.algebra is not n.algebra:
        raise ValueError("a direct sum needs bimodules over one algebra")
    d = m.dim + n.dim

    def block(a: Matrix, b: Matrix) -> Matrix:
        rows = []
        for r in a.rows:
            rows.append(tuple(r) + vzero(n.dim))
        for r in b.rows:
            rows.append(vzero(m.dim) + tuple(r))
        return Matrix(rows, ncols=d)

    return Bimodule(m.algebra, d,
                    tuple(block(a, b) for a, b in zip(m.left, n.left)),
                    tuple(block(a, b) for a, b in zip(m.right, n.right)))


def _first_difference(lhs: Matrix, rhs: Matrix) -> str:
    """Where two different action matrices of one shape first differ: the
    first basis vector m<s> they send to different images, the first
    coordinate m<r> of those images that differs, and both values."""
    for s in range(lhs.ncols):
        for r in range(lhs.nrows):
            x, y = lhs.rows[r][s], rhs.rows[r][s]
            if x != y:
                return "on m%d, coordinate m%d: %s != %s" % (s, r, x, y)


def check_bimodule(m: Bimodule) -> CheckReport:
    """Left action is a unital homomorphism, right action a unital
    antihomomorphism, and the two commute; all on basis vectors.  The
    module basis vectors are named m0, m1, ..."""
    rep = CheckReport("bimodule")
    a = m.algebra
    n = a.dim
    names = a.basis_names
    for i in range(n):
        for j in range(n):
            lhs, rhs = m.left_of(a.sc[i][j]), m.left[i] @ m.left[j]
            if lhs != rhs:
                rep.add("left-action-product", (i, j),
                        "(%s*%s).m != %s.(%s.m) %s" % (
                            names[i], names[j], names[i], names[j],
                            _first_difference(lhs, rhs)))
            lhs, rhs = m.right_of(a.sc[i][j]), m.right[j] @ m.right[i]
            if lhs != rhs:
                rep.add("right-action-product", (i, j),
                        "m.(%s*%s) != (m.%s).%s %s" % (
                            names[i], names[j], names[i], names[j],
                            _first_difference(lhs, rhs)))
            lhs, rhs = m.left[i] @ m.right[j], m.right[j] @ m.left[i]
            if lhs != rhs:
                rep.add("action-commutation", (i, j),
                        "%s.(m.%s) != (%s.m).%s %s" % (
                            names[i], names[j], names[i], names[j],
                            _first_difference(lhs, rhs)))
    ident = Matrix.identity(m.dim)
    lhs = m.left_of(a.unit)
    if lhs != ident:
        rep.add("left-unital", (), "1.m != m %s"
                % _first_difference(lhs, ident))
    lhs = m.right_of(a.unit)
    if lhs != ident:
        rep.add("right-unital", (), "m.1 != m %s"
                % _first_difference(lhs, ident))
    return rep


class LeftModule:
    """Left module: one action matrix per algebra basis vector."""

    def __init__(self, algebra: Algebra, dim: int, left: Sequence[Matrix]):
        self.algebra = algebra
        self.dim = dim
        self.left = tuple(left)
        _check_actions("left", self.left, algebra, dim)

    @classmethod
    def free(cls, a: Algebra, rank_: int) -> "LeftModule":
        """A^rank with componentwise left multiplication: each action is
        block diagonal, rank copies of the left multiplication."""
        n = a.dim
        mats = []
        for lm in a.lmul:
            rows = []
            for blk in range(rank_):
                for r in lm.rows:
                    row = [ZERO] * (n * rank_)
                    row[blk * n:(blk + 1) * n] = r
                    rows.append(row)
            mats.append(Matrix(rows, ncols=n * rank_))
        return cls(a, n * rank_, mats)

    def left_of(self, f) -> Matrix:
        return linear_combination(f, self.left, self.dim, self.dim)

    def __repr__(self):
        return "LeftModule(dim %d over %r)" % (self.dim, self.algebra)


def check_left_module(e: LeftModule) -> CheckReport:
    """The action is a unital homomorphism, on basis vectors m0, m1, ..."""
    rep = CheckReport("left module")
    a = e.algebra
    names = a.basis_names
    for i in range(a.dim):
        for j in range(a.dim):
            lhs, rhs = e.left_of(a.sc[i][j]), e.left[i] @ e.left[j]
            if lhs != rhs:
                rep.add("left-action-product", (i, j),
                        "(%s*%s).m != %s.(%s.m) %s" % (
                            names[i], names[j], names[i], names[j],
                            _first_difference(lhs, rhs)))
    ident = Matrix.identity(e.dim)
    lhs = e.left_of(a.unit)
    if lhs != ident:
        rep.add("left-unital", (), "1.m != m %s"
                % _first_difference(lhs, ident))
    return rep


@dataclass
class BimoduleMap:
    """Linear map source -> target intended to intertwine both actions."""
    source: Bimodule
    target: Bimodule
    matrix: Matrix

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra:
            raise ValueError("a bimodule map needs bimodules over one "
                             "algebra")
        if self.matrix.nrows != self.target.dim \
                or self.matrix.ncols != self.source.dim:
            raise ValueError("a map from dimension %d to %d needs a %dx%d "
                             "matrix, not %dx%d" % (
                                 self.source.dim, self.target.dim,
                                 self.target.dim, self.source.dim,
                                 self.matrix.nrows, self.matrix.ncols))

    def apply(self, m):
        return self.matrix.apply(m)


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
    return kernel(Matrix(rows, ncols=n.dim * m.dim))


class DualBimodule:
    """Dual of a bimodule inside Hom(M, A).

    side 'right': right module maps X(m.g) = X(m) g, carrying
        (f.X.g)(m) = f X(g.m).
    side 'left': left module maps X(f.m) = f X(m), carrying
        (f.X.g)(m) = X(m.f) g.

    The dual is built from span, the canonical subspace of the flattened
    (row-major) evaluation matrices: basis element k is span.basis[k],
    stored as its evaluation matrix eval_mats[k], mapping module coordinates
    to algebra coordinates.  A canonical basis is independent, so nothing
    is eliminated here.
    """

    def __init__(self, base: Bimodule, side: str, bimodule: Bimodule,
                 span: Subspace):
        if side not in ("right", "left"):
            raise ValueError("a dual is taken on the right or the left, "
                             "not %r" % (side,))
        n, md = base.algebra.dim, base.dim
        if span.ambient_dim != n * md:
            raise ValueError("evaluation matrices on a bimodule of "
                             "dimension %d flatten into Q^%d, not Q^%d"
                             % (md, n * md, span.ambient_dim))
        if span.dim != bimodule.dim:
            raise ValueError("%d evaluation matrices for a dual bimodule of "
                             "dimension %d" % (span.dim, bimodule.dim))
        self.base = base
        self.side = side
        self.bimodule = bimodule
        self.span = span
        self.eval_mats = tuple(Matrix.from_flat(v, n, md) for v in span.basis)

    @property
    def dim(self) -> int:
        return self.bimodule.dim

    def eval_of(self, xcoords) -> Matrix:
        return linear_combination(xcoords, self.eval_mats,
                                  self.base.algebra.dim, self.base.dim)

    def pairing(self, xcoords, mcoords) -> AlgebraElement:
        """<X, m> = X(m) in the base algebra."""
        return self.base.algebra.element(self.eval_of(xcoords).apply(mcoords))

    def coords_of_map(self, e: Matrix) -> Optional[list]:
        return self.span.coords(e.flatten())

    def __repr__(self):
        return "DualBimodule(%s, dim %d)" % (self.side, self.dim)


def _dual(m: Bimodule, side: str) -> DualBimodule:
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
    sol = kernel(Matrix(rows, ncols=n * md))
    eval_mats = [Matrix.from_flat(v, n, md) for v in sol.basis]

    def express(img: Matrix):
        c = sol.coords(img.flatten())
        if c is None:
            raise InvariantError("the %s dual is not closed under its "
                                 "actions" % side)
        return tuple(c)

    d = len(eval_mats)
    left_mats, right_mats = [], []
    for i in range(n):
        lcols, rcols = [], []
        for e in eval_mats:
            if side == "right":
                limg = a.lmul[i] @ e          # (f.X)(m) = f X(m)
                rimg = e @ m.left[i]          # (X.g)(m) = X(g.m)
            else:
                limg = e @ m.right[i]         # (f.X)(m) = X(m.f)
                rimg = a.rmul[i] @ e          # (X.g)(m) = X(m) g
            lcols.append(express(limg))
            rcols.append(express(rimg))
        left_mats.append(Matrix.from_cols(lcols, nrows=d))
        right_mats.append(Matrix.from_cols(rcols, nrows=d))
    dual_bim = Bimodule(a, d, left_mats, right_mats)
    return DualBimodule(m, side, dual_bim, sol)


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
    cols = []
    for e in target_dual.eval_mats:
        c = source_dual.coords_of_map(e @ alpha.matrix)
        if c is None:
            raise ValueError("composite is not a module map; "
                             "transpose undefined")
        cols.append(tuple(c))
    mat = Matrix.from_cols(cols, nrows=source_dual.dim)
    return BimoduleMap(target_dual.bimodule, source_dual.bimodule, mat)


@dataclass
class TensorProductOverA:
    """M (x)_A E: quotient of the plain tensor product by balancing."""
    factors: tuple
    module: LeftModule
    projection: Matrix     # ambient (M x E) coords -> quotient coords
    lift: Matrix           # section of projection
    relations: Subspace


def tensor_over_A(m: Bimodule, e: LeftModule) -> TensorProductOverA:
    """Balanced tensor product with its canonical coordinates.

    Ambient basis (s, a) -> s * e.dim + a; relations are spanned by
    (m_s.f_j) (x) xi_a - m_s (x) (f_j.xi_a).  Quotient coordinates are the
    ambient coordinates away from the relation pivots.
    """
    a = m.algebra
    if e.algebra is not a:
        raise ValueError("the bimodule and the module are over different "
                         "algebras")
    ed = e.dim
    amb = m.dim * ed
    ech = Echelon(amb)
    for j in range(a.dim):
        dr, rrows = m.right[j].int_rows()
        dl, lrows = e.left[j].int_rows()
        # the columns of R_j and L_j by their non-zero numerators
        rcols = [[] for _ in range(m.dim)]
        for s2, r in enumerate(rrows):
            for s, x in r:
                rcols[s].append((s2, x))
        lcols = [[] for _ in range(ed)]
        for t2, r in enumerate(lrows):
            for t, x in r:
                lcols[t].append((t2, x))
        for s in range(m.dim):
            for t in range(ed):
                # the relation of (s, t), times dr * dl
                v = {s2 * ed + t: x * dl for s2, x in rcols[s]}
                for t2, x in lcols[t]:
                    k = s * ed + t2
                    v[k] = v.get(k, 0) - x * dr
                ech.insert_int(v)
    rel = ech.subspace()
    pivset = set(rel.pivots)
    qcols = [j for j in range(amb) if j not in pivset]
    qdim = len(qcols)
    qindex = {qc: k for k, qc in enumerate(qcols)}
    # the projection reduces modulo the relations and keeps the quotient
    # coordinates: a quotient coordinate maps to itself, the pivot of a
    # relation row r to -r read at the quotient coordinates (a reduced row
    # is non-zero away from its pivot only there)
    proj = [[ZERO] * amb for _ in range(qdim)]
    for k, qc in enumerate(qcols):
        proj[k][qc] = ONE
    for row, pc in zip(ech.rows, rel.pivots):
        p = row[pc]
        for j, x in row.items():
            if j != pc:
                proj[qindex[j]][pc] = Fraction(-x, p)
    projection = Matrix(proj, ncols=amb)
    lift = Matrix([[ONE if j == qc else ZERO for qc in qcols]
                   for j in range(amb)], ncols=qdim)

    rel_cols = Matrix.from_cols(rel.basis, nrows=amb)
    dp, prows = projection.int_rows()
    left_mats = []
    for i in range(a.dim):
        # P_i = projection (L_i (x) I): its entry at column (s, t) is
        # sum_s2 projection[(s2, t)] * L_i[s2][s]
        dl, lrows = m.left[i].int_rows()
        accs = []
        for pr in prows:
            acc = [0] * amb
            for col, y in pr:
                s2, t = divmod(col, ed)
                for s, x in lrows[s2]:
                    acc[s * ed + t] += y * x
            accs.append(acc)
        den = dp * dl
        # balancing is stable under the left action, else the quotient
        # action would be ill defined; the projection kills exactly the
        # relations, so stability reads P_i R = 0
        p_i = Matrix([_fractions(acc, den) for acc in accs], ncols=amb)
        if not (p_i @ rel_cols).is_zero():
            raise InvariantError("left action does not preserve "
                                 "balancing relations")
        left_mats.append(Matrix([[r[qc] for qc in qcols] for r in p_i.rows],
                                ncols=qdim))
    quotient = LeftModule(a, qdim, left_mats)
    return TensorProductOverA((m, e), quotient, projection, lift, rel)
