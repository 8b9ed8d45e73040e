"""Cartan pairs: bimodules acting on their algebra by twisted derivations.

A pair is a bimodule N together with one operator on A per basis vector of
N, subject to two laws checked on basis vectors:

    (f.X)(g)  = f (X(g))                      action linearity
    X(fg)     = X(f) g + (X.f)(g)             twisted Leibniz

Pairs and calculi convert into each other through duals: the right dual of
a calculus bimodule acts by X -> <X, d(.)>, and a pair induces a calculus
valued in the left dual of N.

The co-universal pair is the right dual of the universal one-forms.  It is
built in closed form: X_u is {D in End(A) : D(1) = 0}, with X_D acting as
-D, f.D = L_f o D and D.g = D o L_g - L_{D(g)}, each read into coordinates
by one linear map.  The generic route, right_dual of the universal
bimodule, stays only as a test oracle.
Factorization of an arbitrary pair through X_u is a coordinate read-off
of its action, and its existence is reported, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import (
    ZERO, Echelon, Matrix, Subspace, is_zero_vector, kernel,
    linear_combination, rank, vadd, vsub,
)
from .algebra import (
    Algebra, Bimodule, BimoduleMap, DualBimodule, check_bimodule_map,
    left_dual, right_dual,
)
from .calculus import (
    DifferentialCalculus, UniversalCalculus, is_spanned_by_differential,
    universal_calculus,
)
from .reporting import CheckReport, InvariantError


class CartanPair:
    """action[t] is the operator of the t-th basis vector of the bimodule."""

    def __init__(self, algebra: Algebra, bimodule: Bimodule, action,
                 source_calculus: Optional[DifferentialCalculus] = None,
                 dual: Optional[DualBimodule] = None):
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
        # the calculus and right dual the pair comes from, if any:
        # covariant_derivative contracts connections through them
        self.source_calculus = source_calculus
        self.dual = dual

    def action_of(self, xcoords) -> Matrix:
        return linear_combination(xcoords, self.action, self.algebra.dim,
                                  self.algebra.dim)

    def act(self, xcoords, fcoords):
        return self.action_of(xcoords).apply(fcoords)

    def __repr__(self):
        return "CartanPair(bimodule dim %d over %r)" % (
            self.bimodule.dim, self.algebra)


def check_cartan(p: CartanPair) -> CheckReport:
    """Both pair laws plus annihilation of the unit, exhaustively."""
    rep = CheckReport("cartan pair")
    a = p.algebra
    nb = p.bimodule
    n, m = a.dim, nb.dim
    for i in range(n):
        for t in range(m):
            if p.action_of(nb.left[i].col(t)) != a.lmul[i] @ p.action[t]:
                rep.add("action-linearity", (i, t),
                        "(%s.X_%d) acts wrong" % (a.basis_names[i], t))
    for t in range(m):
        at = p.action[t]
        for i in range(n):
            ai = at.col(i)
            shifted = p.action_of(nb.right[i].col(t))   # X_t.e_i
            for j in range(n):
                lhs = at.apply(a.sc[i][j])
                rhs = vadd(a.rmul[j].apply(ai), shifted.col(j))
                if lhs != rhs:
                    defect = vsub(lhs, rhs)
                    rep.add("twisted-leibniz", (t, i, j),
                            "X_%d(%s*%s) defect %s" % (
                                t, a.basis_names[i], a.basis_names[j],
                                a.format(defect)))
    for t in range(m):
        if not is_zero_vector(p.action[t].apply(a.unit)):
            rep.add("unit-annihilation", (t,),
                    "X_%d(1) = %s" % (t, a.format(p.action[t].apply(a.unit))))
    return rep


def pair_from_calculus(c: DifferentialCalculus) -> CartanPair:
    """Right dual of the calculus bimodule acting through X -> X(d(.))."""
    d = right_dual(c.bimodule)
    action = tuple(e @ c.d for e in d.eval_mats)
    return CartanPair(c.algebra, d.bimodule, action,
                      source_calculus=c, dual=d)


def calculus_from_pair(p: CartanPair):
    """Differential into the left dual of the pair bimodule.

    d(f) is the functional X -> X(f); its evaluation matrix always lies in
    the left dual span.  Returns (calculus, left dual of N).
    """
    a = p.algebra
    ld = left_dual(p.bimodule)
    cols = []
    for j in range(a.dim):
        ev = Matrix.from_cols([p.action[t].col(j) for t in range(p.bimodule.dim)],
                              nrows=a.dim)
        c = ld.coords_of_map(ev)
        if c is None:
            raise InvariantError("the evaluation of the action at %s is not "
                                 "left linear" % a.basis_names[j])
        cols.append(tuple(c))
    d = Matrix.from_cols(cols, nrows=ld.dim)
    return DifferentialCalculus(a, ld.bimodule, d), ld


def action_kernel(p: CartanPair) -> Subspace:
    """Bimodule vectors acting by zero."""
    cols = [m.flatten() for m in p.action]
    if not cols:
        return Subspace.zero(0)
    return kernel(Matrix.from_cols(cols, nrows=p.algebra.dim ** 2))


@dataclass
class SpanKernelDiagnostic:
    spanned: bool
    kernel_trivial: bool

    @property
    def agree(self) -> bool:
        return self.spanned == self.kernel_trivial


def spanning_kernel_diagnostic(p: CartanPair) -> SpanKernelDiagnostic:
    """Reports, side by side, whether the induced calculus is spanned by
    differentials and whether the action kernel vanishes.  No implication
    between the two is asserted."""
    calc, _ = calculus_from_pair(p)
    return SpanKernelDiagnostic(
        spanned=is_spanned_by_differential(calc),
        kernel_trivial=action_kernel(p).dim == 0)


class CoUniversalPair(CartanPair):
    """The right dual of the universal one-forms, X_u = {D : D(1) = 0}.

    read is the q x n^2 matrix taking flat(D), for D(1) = 0, to the
    coordinates of X_D over the canonical basis of the dual.  Since X_D
    acts as -D, an operator X with X(1) = 0 is the action of exactly one
    vector of X_u, read.apply(flat(-X)).
    """

    def __init__(self, universal: UniversalCalculus, dual: DualBimodule,
                 action, read: Matrix):
        super().__init__(universal.algebra, dual.bimodule, action,
                         source_calculus=universal, dual=dual)
        self.universal = universal
        self.read = read


def co_universal_pair(a: Algebra,
                      universal: Optional[UniversalCalculus] = None
                      ) -> CoUniversalPair:
    """The right dual of the universal one-forms, in closed form.

    Every right module map Omega_u -> A is X_D(sum w_ij e_i (x) e_j) =
    sum w_ij D(e_i) e_j for exactly one D in End(A) with D(1) = 0, so X_u
    is {D : D(1) = 0}, of dimension n(n-1).  X_D acts on A as
    f -> X_D(du f) = -D(f), and the bimodule actions become f.D = L_f o D
    and D.g = D o L_g - L_{D(g)}.  The evaluation matrices of the X_D over
    a basis of {D(1) = 0} are row reduced to the canonical basis that
    right_dual(universal.bimodule) gives; that generic route is kept only
    as a test oracle.

    Both products kill 1 once the unit is a right unit, which is checked
    first: (L_f o D)(1) = f D(1) = 0 and (D o L_g - L_{D(g)})(1) =
    D(g 1) - D(g) 1 = 0.  So each one lies in {D(1) = 0}, and its
    coordinates are one linear read of its flattened matrix, a read that
    is zero on every L_{D(g)}.
    """
    u = universal if universal is not None else universal_calculus(a)
    n, k = a.dim, u.bimodule.dim
    nk = n * k
    if a.right_mult_matrix(a.unit) != Matrix.identity(n):
        raise InvariantError("the unit is not a right unit")
    # evals[m*n + i]: evaluation matrix of X_E for the matrix unit
    # E: e_i -> e_m; column c is X_E(b_c) = sum_j b_c[i n + j] e_m e_j,
    # that is L_m F_i with column c of F_i the row i of b_c
    forms = u.one_forms.basis
    f_rows = [Matrix([[b[i * n + j] for b in forms] for j in range(n)],
                     ncols=k) for i in range(n)]
    evals = [lm @ f for lm in a.lmul for f in f_rows]
    # {D : D(1) = 0} as flattened n x n matrices
    unit_rows = [tuple(a.unit[i] if r == m else ZERO
                       for r in range(n) for i in range(n))
                 for m in range(n)]
    dspace = kernel(Matrix(unit_rows, ncols=n * n))
    # eliminate (X_D | D) together: the left parts come out as the
    # canonical evaluation basis, the right parts as its D's
    ech = Echelon(nk + n * n,
                  (linear_combination(dv, evals, n, k).flatten() + dv
                   for dv in dspace.basis))
    if any(pc >= nk for pc in ech.pivots):
        raise InvariantError("D -> X_D is not injective on {D : D(1) = 0}")
    rows = ech.frac_rows()
    # every pivot lies in the left parts, so they are reduced already
    span = Subspace(nk, [r[:nk] for r in rows], ech.pivots)
    dmats = [Matrix.from_flat(r[nk:], n, n) for r in rows]
    # the coordinates of X_D are the entries of its evaluation at the
    # pivots, linear in flat(D): column m*n + i of read holds those of X_E
    # for E the matrix unit e_i -> e_m
    flat_evals = [e.flatten() for e in evals]
    read = Matrix([[ev[pc] for ev in flat_evals] for pc in ech.pivots],
                  ncols=n * n)
    q = len(rows)
    # D.g = D o L_g - L_{D(g)}, but the read kills every left
    # multiplication: on an associative algebra X_{L_h}(w) =
    # sum w_ij (h e_i) e_j = h m(w) = 0 for w in the one-forms, the kernel
    # of m.  So D.g is read as D o L_g alone.
    left_mats, right_mats = [], []
    for li in a.lmul:
        left_mats.append(Matrix.from_cols(
            [read.apply((li @ dm).flatten()) for dm in dmats], nrows=q))
        right_mats.append(Matrix.from_cols(
            [read.apply((dm @ li).flatten()) for dm in dmats], nrows=q))
    dual = DualBimodule(u.bimodule, "right",
                        Bimodule(a, q, left_mats, right_mats), span)
    return CoUniversalPair(u, dual, tuple(dm.scale(-1) for dm in dmats),
                           read=read)


@dataclass
class CoUniversalFactorization:
    """The bimodule map Phi: N -> X_u with action = action_u o Phi."""
    phi: Optional[BimoduleMap]
    exists: bool
    unique: bool
    homogeneous_dim: int
    report: CheckReport


def co_universal_factorization(p: CartanPair,
                               couniv: Optional[CoUniversalPair] = None
                               ) -> CoUniversalFactorization:
    """Read off the unique bimodule map into the co-universal pair.

    X_D acts as -D, so the co-universal actions are exactly the operators
    that kill 1, each the action of one vector of X_u.  A field X_t with
    X_t(1) != 0 has no preimage and nothing factors; otherwise column t of
    Phi is cu.read.apply(flat(-X_t)).  The factorization exists iff this
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
        cols = [cu.read.apply(x.scale(-1).flatten()) for x in p.action]
        phi_map = BimoduleMap(p.bimodule, cu.bimodule,
                              Matrix.from_cols(cols, nrows=cu.bimodule.dim))
        if not check_bimodule_map(phi_map).ok:
            phi_map = None
    exists = phi_map is not None
    if not exists:
        rep.add("factorization-exists", (),
                "no bimodule map matches the action")
    return CoUniversalFactorization(phi_map, exists, exists, 0, rep)


@dataclass
class ReflexiveRoundtrip:
    """Canonical map of a calculus bimodule into the double dual."""
    kappa: BimoduleMap
    injective: bool
    surjective: bool
    intertwines: bool
    map_report: CheckReport
    derived: DifferentialCalculus


def reflexive_roundtrip(c: DifferentialCalculus) -> ReflexiveRoundtrip:
    """Right dual then left dual; m goes to evaluation-at-m.

    Everything is computed from the exhaustive solves and reported; no
    reflexivity is assumed.
    """
    p = pair_from_calculus(c)
    derived, ld = calculus_from_pair(p)
    md = p.dual
    a = c.algebra
    cols = []
    for j in range(c.bimodule.dim):
        ev = Matrix.from_cols([md.eval_mats[t].col(j) for t in range(md.dim)],
                              nrows=a.dim)
        coords = ld.coords_of_map(ev)
        if coords is None:
            raise InvariantError("the evaluation at module vector %d is not "
                                 "left linear" % j)
        cols.append(tuple(coords))
    kappa_mat = Matrix.from_cols(cols, nrows=ld.dim)
    kappa = BimoduleMap(c.bimodule, ld.bimodule, kappa_mat)
    r = rank(kappa_mat)
    return ReflexiveRoundtrip(
        kappa=kappa,
        injective=(r == c.bimodule.dim),
        surjective=(r == ld.dim),
        intertwines=(kappa_mat @ c.d == derived.d),
        map_report=check_bimodule_map(kappa),
        derived=derived)
