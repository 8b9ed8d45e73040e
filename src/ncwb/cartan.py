"""Cartan pairs: bimodules acting on their algebra by twisted derivations.

A pair is a bimodule N together with one operator on A per basis vector of
N, subject to two laws checked on basis vectors:

    (f.X)(g)  = f (X(g))                      action linearity
    X(fg)     = X(f) g + (X.f)(g)             twisted Leibniz

pair_law_sides yields both sides of both laws, one identity per basis
vector, for any fields on any left module: check_cartan reads them for
the fields on A, and connections.check_covariant_axioms for the covariant
derivatives on a module.

Pairs and calculi convert into each other through duals: the right dual of
a calculus bimodule acts by X -> <X, d(.)>, and a pair induces a calculus
valued in the left dual of N.  On a pair that passes check_cartan that
induced d is a derivation, so spanning_kernel_diagnostic closes the
differentials under the left action of the dual alone.

The co-universal pair is the right dual of the universal one-forms.  It is
built in closed form: X_u is {D in End(A) : D(1) = 0}, with X_D acting as
-D, and its actions are read at the pivots of its reduced basis, f.X from
l_f E and X.g from E L^u_g (E the evaluation matrix of X).  The generic
route, right_dual of the universal bimodule, stays only as a test oracle.
Factorization of an arbitrary pair through X_u is a coordinate read-off
of its action.  co_universal_factorization, and so derive factorization,
reports its existence, never assumes it.  report states it instead: it
runs only on a pair that passes check_cartan, and on such a pair the
factorization exists and is unique (the proof is in the docstring of
cli._report_object).
"""

from __future__ import annotations

import math
from typing import Optional

from .linalg import (
    Echelon, Matrix, block_combination, blockwise_product,
    closure_under_maps, column_blocks, hstack, intertwiner_rows,
    is_zero_vector, kernel, linear_combination, rank,
)
from .algebra import (
    Algebra, Bimodule, BimoduleMap, DualBimodule, check_bimodule_map,
    left_dual, right_dual,
)
from .calculus import (
    DifferentialCalculus, UniversalCalculus, universal_calculus,
)
from .reporting import CheckReport, InvariantError


class CartanPair:
    """action[t] is the operator of the t-th basis vector of the bimodule."""

    def __init__(self, algebra: Algebra, bimodule: Bimodule, action,
                 source_calculus: Optional[DifferentialCalculus] = None):
        if bimodule.algebra is not algebra:
            raise ValueError("the bimodule of a pair must be over its "
                             "algebra")
        self.algebra = algebra
        self.bimodule = bimodule
        self.action = tuple(action)
        n = algebra.dim
        if len(self.action) != bimodule.dim:
            raise ValueError("%d action matrices for a bimodule of dimension "
                             "%d" % (len(self.action), bimodule.dim))
        for t, m in enumerate(self.action):
            if m.nrows != n or m.ncols != n:
                raise ValueError("action %d is %dx%d on an algebra of "
                                 "dimension %d" % (t, m.nrows, m.ncols, n))
        # the calculus the pair comes from, if any; the bimodule is then
        # its right dual, which covariant_derivative contracts through
        self.source_calculus = source_calculus

    def action_of(self, xcoords) -> Matrix:
        return linear_combination(xcoords, self.action, self.algebra.dim,
                                  self.algebra.dim)

    def field_values(self) -> list:
        """K_0, ..., K_{n-1}, the n x m matrices whose column t is
        X_t(e_i): the rows of _flat_field_values."""
        return self._flat_field_values().row_matrices(self.algebra.dim,
                                                      self.bimodule.dim)

    def _flat_field_values(self) -> Matrix:
        """The n x n m matrix whose row i is K_i read row-major, entry
        r m + t X_t(e_i)[r], built in one pass over the actions' integer
        rows, sorted and over one denominator: Matrix's stored form."""
        n, m = self.algebra.dim, self.bimodule.dim
        den = math.lcm(*(x.int_rows()[0] for x in self.action))
        # rows[i][r]: row r of K_i, in increasing t
        rows = [[[] for _ in range(n)] for _ in range(n)]
        for t, x in enumerate(self.action):
            d, xrows = x.int_rows()
            s = den // d
            for r, xrow in enumerate(xrows):
                c = r * m + t
                for i, v in xrow:
                    rows[i][r].append((c, v * s))
        return Matrix._of(n, n * m, den, tuple(
            tuple(e for kr in k for e in kr) for k in rows))

    def __repr__(self):
        return "CartanPair(bimodule dim %d over %r)" % (
            self.bimodule.dim, self.algebra)


def pair_law_sides(p: CartanPair, fields, module_left):
    """Both sides of the two pair laws, one identity each per basis vector
    e_i, for fields D_0, ..., D_{m-1} on a left module E of the algebra
    that acts through its left actions L^E: the fields of p on A itself,
    with L^E_i = l_i, or their covariant derivatives on a module.

    With D = [D_0 | ... | D_{m-1}], L_i, R_i the actions of e_i on the
    pair bimodule N and K_i the n x m matrix whose column t is X_t(e_i),
    this yields (linearity lhs, rhs, twisted lhs, rhs) for each e_i:

        action linearity   D (L_i (x) I_E) = L^E_i D
        twisted Leibniz    D (I_m (x) L^E_i)
                             = [L^E_0 | ... | L^E_{n-1}] (K_i (x) I_E)
                               + D (R_i (x) I_E)

    Block t of the first is D_{e_i.X_t} = L^E_i D_t; column j of block t
    of the second is D_t(e_i xi_j) = X_t(e_i).xi_j + D_{X_t.e_i}(xi_j).
    """
    nb = p.bimodule
    width = module_left[0].nrows
    big_d, big_e = hstack(fields, width), hstack(module_left, width)
    for i, (ei, ki) in enumerate(zip(module_left, p.field_values())):
        yield (block_combination(big_d, nb.left[i], width), ei @ big_d,
               blockwise_product(big_d, ei, nb.dim),
               block_combination(big_e, ki, width)
               + block_combination(big_d, nb.right[i], width))


def check_cartan(p: CartanPair) -> CheckReport:
    """Both pair laws plus annihilation of the unit, exhaustively.

    Each law is one identity of stacked matrices per basis vector e_i, the
    fields X_t on A itself (pair_law_sides).  Block t of the first is
    l_i X_t = X_{e_i.X_t}; column j of block t of the second is
    X_t(e_i e_j) = X_t(e_i) e_j + (X_t.e_i)(e_j).  The findings are listed
    by (i, t) for linearity and by (t, i, j) for the twisted Leibniz rule.
    """
    rep = CheckReport("cartan pair")
    a = p.algebra
    n = a.dim
    twisted = []
    for i, (lhs, rhs, shifted, expect) in enumerate(
            pair_law_sides(p, p.action, a.lmul)):
        for t in [] if lhs == rhs else sorted(
                {col // n for col in (lhs - rhs).nonzero_cols()}):
            rep.add("action-linearity", (i, t),
                    "(%s.X_%d) acts wrong" % (a.basis_names[i], t))
        if shifted == expect:
            continue
        defect = shifted - expect
        for col in defect.nonzero_cols():
            t, j = divmod(col, n)
            twisted.append(((t, i, j), "X_%d(%s*%s) defect %s" % (
                t, a.basis_names[i], a.basis_names[j],
                a.format(defect.col(col)))))
    for witness, detail in sorted(twisted):
        rep.add("twisted-leibniz", witness, detail)
    for t in range(p.bimodule.dim):
        if not is_zero_vector(p.action[t].apply(a.unit)):
            rep.add("unit-annihilation", (t,),
                    "X_%d(1) = %s" % (t, a.format(p.action[t].apply(a.unit))))
    return rep


def pair_from_calculus(c: DifferentialCalculus) -> CartanPair:
    """Right dual of the calculus bimodule acting through X -> X(d(.))."""
    d = right_dual(c.bimodule)
    n = c.algebra.dim
    # flat(E d) = flat(E) (I (x) d) for every evaluation matrix E at once
    action = blockwise_product(d.span.matrix, c.d, n).row_matrices(n, n)
    return CartanPair(c.algebra, d, action, source_calculus=c)


def _evaluations(p: CartanPair) -> tuple:
    """(evals, constraints): row j of evals is K_j flat, column t of K_j
    X_t(e_j), and the null space of the constraints, E L_i = l_i E on
    n x p matrices E, as the rows intertwiner_rows gives them, is the
    left dual of N.  The first K_j outside it is not left linear and
    raises InvariantError."""
    a, nb = p.algebra, p.bimodule
    n, m = a.dim, nb.dim
    constraints = [row for i in range(n)
                   for row in intertwiner_rows(nb.left[i], a.lmul[i])]
    evals = p._flat_field_values()
    bad = (Matrix.from_int_rows(constraints, n * m)
           @ evals.transpose()).nonzero_cols()
    if bad:
        raise InvariantError("the evaluation of the action at %s is not "
                             "left linear" % a.basis_names[bad[0]])
    return evals, constraints


def calculus_from_pair(p: CartanPair):
    """Differential into the left dual of the pair bimodule.

    d(f) is the functional X -> X(f); d(e_j) is the evaluation K_j, which
    _evaluations certifies to lie in the left dual span, so its
    coordinates there always exist.  Returns (calculus, left dual of N).
    """
    ld = left_dual(p.bimodule)
    c, _ = ld.span.coords_int(_evaluations(p)[0])
    return DifferentialCalculus(p.algebra, ld, c.transpose()), ld


class SpanKernelDiagnostic:
    def __init__(self, spanned: bool, kernel_trivial: bool):
        self.spanned, self.kernel_trivial = spanned, kernel_trivial

    def __eq__(self, other):
        return isinstance(other, SpanKernelDiagnostic) \
            and vars(self) == vars(other)


def spanning_kernel_diagnostic(p: CartanPair) -> SpanKernelDiagnostic:
    """Reports, side by side, whether the induced calculus is spanned by
    differentials and whether the action kernel vanishes.  No implication
    between the two is asserted.

    The induced calculus (calculus_from_pair) sends e_j to its evaluation
    matrix K_j, column t X_t(e_j), in the left dual of N: the n x p
    matrices E with E L_i = l_i E, whose actions are f.E = E R_f and
    E.g = r_g E (R_f the right action of N, r_g right multiplication on
    A).  It is spanned by differentials when the K_j generate that dual.
    The induced d is a derivation: d(fg)(X) = X(fg) = X(f) g + (X.f)(g)
    = (df.g)(X) + (f.dg)(X) by twisted Leibniz.  So, as for any Leibniz
    calculus, A.dA.A = A.dA, and this closes the K_j under the n factors
    E -> E R_f alone, inside all n x p matrices, and compares the
    dimension of the closure with that of the dual, n p less the rank of
    the intertwiner_rows constraints.  Neither the dual bimodule nor the
    calculus is built.

    Precondition: the pair passes check_cartan and its algebra and
    bimodule are lawful, which the report's law gate ensures; the left
    dual is then a bimodule closed under its actions, so the closure of
    the K_j in Q^(n p) is A.dA in the dual.  The K_j and the constraints
    come from _evaluations, so a K_j outside the dual raises
    InvariantError, as in calculus_from_pair.  The action kernel is
    trivial when the p operators X_t are independent.

    The rank of the constraints stops early.  Each K_j lies in the dual,
    as _evaluations certifies, and E -> E R_f keeps the dual when the two
    actions of N commute, the action-commutation law of check_bimodule:
    E R_f L_i = E L_i R_f = l_i E R_f.  So the closure lies in the null
    space of the constraints, their rank is at most n p - dim(closure),
    and the elimination stops once it reaches that bound: spanned exactly
    when it does.
    """
    a, nb = p.algebra, p.bimodule
    n, m = a.dim, nb.dim
    evals, constraints = _evaluations(p)
    closure = closure_under_maps(evals, nb.right, shape=(n, m))
    bound = n * m - closure.dim
    ech = Echelon(n * m)
    for _, row in constraints:
        if ech.dim == bound:
            break
        ech.insert_int(row)
    return SpanKernelDiagnostic(
        spanned=ech.dim == bound,
        kernel_trivial=rank(Matrix.from_int_rows(
            [x.flat_int() for x in p.action], n * n)) == m)


class CoUniversalPair(CartanPair):
    """The right dual of the universal one-forms, X_u = {D : D(1) = 0}.

    read is the q x n^2 matrix taking flat(D), for D(1) = 0, to the
    coordinates of X_D over the canonical basis of the dual.  Since X_D
    acts as -D, an operator X with X(1) = 0 is the action of exactly one
    vector of X_u, read times flat(-X).
    """

    def __init__(self, universal: UniversalCalculus, dual: DualBimodule,
                 action, read: Matrix):
        super().__init__(universal.algebra, dual, action,
                         source_calculus=universal)
        self.read = read


def co_universal_pair(a: Algebra,
                      universal: Optional[UniversalCalculus] = None
                      ) -> CoUniversalPair:
    """The right dual of the universal one-forms, in closed form.

    Every right module map Omega_u -> A is X_D(sum w_ij e_i (x) e_j) =
    sum w_ij D(e_i) e_j for exactly one D in End(A) with D(1) = 0, so X_u
    is {D : D(1) = 0}, of dimension n(n-1), and X_D acts on A as
    f -> X_D(du f) = D(1) f - D(f) 1 = -D(f) once the unit is a right
    unit, which is checked first.  The evaluation matrices of the X_D over
    a basis of {D(1) = 0} are row reduced to the canonical basis E_k that
    right_dual(universal.bimodule) gives, the test oracle; D -> X_D is
    injective when they keep the dimension of {D(1) = 0}.  The field of
    E_k = X_D, f -> X_D(du f) = -D(f), is read off du as E_k du, as in
    pair_from_calculus, so no D goes through the elimination.  read maps
    flat(D) to the coordinates of X_D, for co_universal_factorization.

    The actions are read at the pivots.  The basis is reduced, so the
    coordinates of an X in the span are the entries of its n x k
    evaluation matrix at the pivots (a_t, c_t).  Under the laws that the
    derive gate of couniversal and of factorization checks (check_algebra:
    A associative and unital), the right dual's actions (f.X)(w) = f X(w)
    and (X.g)(w) = X(g.w) give right module maps again, so they stay in
    the span, which holds them all: f.X evaluates to l_f E, as
    f (X(w) h) = (f X(w)) h, and X.g to E L^u_g with L^u_g =
    universal.bimodule.left[g], as g.(w.h) = (g.w).h.  So coordinate t of
    f.X_k is sum_b l_f[a_t][b] E_k[b][c_t] and that of X_k.g is
    sum_b E_k[a_t][b] L^u_g[b][c_t]: each action is a selector times the
    basis, no image formed.  In terms of D these are f.D = L_f o D and
    D.g = D o L_g - L_{D(g)}, and read gives D.g as D o L_g alone, as it
    kills every L_h: X_{L_h}(w) = h m(w) = 0 on the one-forms.
    """
    u = universal if universal is not None else universal_calculus(a)
    n, k = a.dim, u.bimodule.dim
    nk = n * k
    if a.right_mult_matrix(a.unit) != Matrix.identity(n):
        raise InvariantError("the unit is not a right unit")
    # evals[m*n + i]: evaluation matrix of X_E for the matrix unit
    # E: e_i -> e_m; column c is X_E(b_c) = sum_j b_c[i n + j] e_m e_j,
    # that is L_m F_i with column c of F_i the row i of b_c
    f_rows = [b.transpose() for b in column_blocks(u.one_forms.matrix, n)]
    evals = [lm @ f for lm in a.lmul for f in f_rows]
    # {D : D(1) = 0} as flattened n x n matrices
    _, (unit,) = Matrix((a.unit,)).int_rows()
    dspace = kernel(Matrix.from_int_rows(
        [(1, [(m * n + i, x) for i, x in unit]) for m in range(n)], n * n))
    ech = Echelon(nk)
    for dv in dspace.matrix.int_rows()[1]:
        ech.insert_int(linear_combination(
            [x for _, x in dv], [evals[j] for j, _ in dv], n, k).flat_int()[1])
    if ech.dim != dspace.dim:
        raise InvariantError("D -> X_D is not injective on {D : D(1) = 0}")
    span = ech.subspace()
    # the coordinates of X_D are the entries of its evaluation at the
    # pivots, linear in flat(D): column m*n + i of read holds those of X_E
    # for E the matrix unit e_i -> e_m
    row_of = {pc: t for t, pc in enumerate(span.pivots)}
    read = Matrix.from_int_cols(
        [(de, {row_of[pc]: x for pc, x in flat.items() if pc in row_of})
         for de, flat in (e.flat_int() for e in evals)], span.dim)
    # row t of a selector weighs entry (b, c_t) by l_f[a_t][b], or entry
    # (a_t, b) by L^u_g[b][c_t]; times the basis, it reads coordinate t
    at = [divmod(pc, k) for pc in span.pivots]
    basis_t = span.matrix.transpose()
    dual = DualBimodule(
        u.bimodule, "right", span,
        [Matrix.from_int_rows([(d, [(b * k + c, x) for b, x in lrows[r]])
                               for r, c in at], nk) @ basis_t
         for d, lrows in (li.int_rows() for li in a.lmul)],
        [Matrix.from_int_rows([(d, [(r * k + b, x) for b, x in cols[c]])
                               for r, c in at], nk) @ basis_t
         for d, cols in (lu.transpose().int_rows()
                         for lu in u.bimodule.left)])
    # field t acts as f -> E_t du(f), all at once as in pair_from_calculus
    action = blockwise_product(span.matrix, u.d, n).row_matrices(n, n)
    return CoUniversalPair(u, dual, action, read=read)


class CoUniversalFactorization:
    """The bimodule map Phi: N -> X_u with action = action_u o Phi."""

    def __init__(self, phi: Optional[BimoduleMap], exists: bool,
                 unique: bool, homogeneous_dim: int, report: CheckReport):
        self.phi, self.exists, self.unique = phi, exists, unique
        self.homogeneous_dim, self.report = homogeneous_dim, report


def co_universal_factorization(p: CartanPair,
                               couniv: Optional[CoUniversalPair] = None
                               ) -> CoUniversalFactorization:
    """Read off the unique bimodule map into the co-universal pair.

    X_D acts as -D, so the co-universal actions are exactly the operators
    that kill 1, each the action of one vector of X_u.  A field X_t with
    X_t(1) != 0 has no preimage and nothing factors; otherwise column t of
    Phi is cu.read times flat(-X_t).  The factorization exists iff this
    Phi is a bimodule map; it is then unique and homogeneous_dim is 0.
    Existence is a finding, not an assumption.  The general solve over
    bimodule_map_space(N, X_u) is kept only as a test oracle.
    """
    a = p.algebra
    if couniv is not None and couniv.algebra is not a:
        raise ValueError("the co-universal pair is over another algebra")
    cu = couniv if couniv is not None else co_universal_pair(a)
    rep = CheckReport("co-universal factorization")
    phi_map = None
    if not any(any(x.apply(a.unit)) for x in p.action):
        flats = Matrix.from_int_cols([x.scale(-1).flat_int()
                                      for x in p.action], a.dim ** 2)
        phi_map = BimoduleMap(p.bimodule, cu.bimodule, cu.read @ flats)
        if not check_bimodule_map(phi_map).ok:
            phi_map = None
    exists = phi_map is not None
    if not exists:
        rep.add("factorization-exists", (),
                "no bimodule map matches the action")
    return CoUniversalFactorization(phi_map, exists, exists, 0, rep)
