"""First order differential calculi and the universal one.

A calculus is a bimodule M together with a linear map d: A -> M satisfying
the Leibniz law d(fg) = df.g + f.dg.  The universal calculus lives on the
kernel of the multiplication map A (x) A -> A with du f = 1 (x) f - f (x) 1;
every calculus factors through it by a unique bimodule map, and that map is
computed here together with an explicit uniqueness certificate.
"""

from __future__ import annotations

from typing import Optional

from .linalg import (
    ZERO, Matrix, Subspace, closure_under_maps, kernel, rank, vadd,
)
from .algebra import Algebra, Bimodule, BimoduleMap, check_bimodule_map
from .reporting import CheckReport, InvariantError


class DifferentialCalculus:
    """d maps algebra coordinates to module coordinates, column per basis."""

    def __init__(self, algebra: Algebra, bimodule: Bimodule, d: Matrix):
        if bimodule.algebra is not algebra:
            raise ValueError("the bimodule of a calculus must be over its "
                             "algebra")
        if d.nrows != bimodule.dim or d.ncols != algebra.dim:
            raise ValueError("d is %dx%d, expected %dx%d (module x algebra)"
                             % (d.nrows, d.ncols, bimodule.dim, algebra.dim))
        self.algebra = algebra
        self.bimodule = bimodule
        self.d = d

    def differential(self, f):
        return self.d.apply(f)

    def __repr__(self):
        return "DifferentialCalculus(module dim %d over %r)" % (
            self.bimodule.dim, self.algebra)


class UniversalCalculus(DifferentialCalculus):
    """The universal calculus realised on kernel-of-multiplication coords.

    one_forms is the kernel subspace of A (x) A (basis e_i (x) e_j at
    i*n+j); the bimodule actions and du are written on its canonical basis.
    """

    def __init__(self, algebra: Algebra, bimodule: Bimodule, d: Matrix,
                 one_forms: Subspace):
        super().__init__(algebra, bimodule, d)
        self.one_forms = one_forms

    def ambient(self, w):
        """Kernel coordinates -> A (x) A coordinates."""
        return self.one_forms.element(w)


def check_leibniz(c: DifferentialCalculus) -> CheckReport:
    """d(e_i e_j) = d(e_i).e_j + e_i.d(e_j) for every basis pair."""
    rep = CheckReport("calculus")
    a = c.algebra
    for i in range(a.dim):
        di = c.d.col(i)
        for j in range(a.dim):
            lhs = c.d.apply(a.sc[i][j])
            rhs = vadd(c.bimodule.right[j].apply(di),
                       c.bimodule.left[i].apply(c.d.col(j)))
            if lhs != rhs:
                rep.add("leibniz", (i, j), "d(%s*%s)" % (
                    a.basis_names[i], a.basis_names[j]))
    return rep


def universal_calculus(a: Algebra) -> UniversalCalculus:
    """Kernel of multiplication with du f = 1 (x) f - f (x) 1.

    A tensor w = sum w_ij e_i (x) e_j is handled as the n x n matrix W, so
    that f.w is L_f W and w.g is W R_g^T.  An image v lies in the kernel
    exactly when m(v) = 0, and then its coordinates on the canonical basis
    are its entries at the basis pivots.
    """
    n = a.dim
    mult = a.mult_matrix()
    ker = kernel(mult)
    k = ker.dim

    def coords(v, what):
        if any(mult.apply(v)):
            raise InvariantError(what)
        return tuple(v[pc] for pc in ker.pivots)

    forms = [Matrix.from_flat(b, n, n) for b in ker.basis]
    closed = "kernel of multiplication is not closed under the actions"

    def restricted(images) -> Matrix:
        return Matrix.from_cols([coords(v.flatten(), closed) for v in images],
                                nrows=k)

    left = tuple(restricted(lm @ w for w in forms) for lm in a.lmul)
    right = tuple(restricted(w @ rt for w in forms)
                  for rt in (r.transpose() for r in a.rmul))
    bim = Bimodule(a, k, left, right)

    d_cols = []
    for j in range(n):
        v = [ZERO] * (n * n)
        for i, u in enumerate(a.unit):
            if u != 0:
                v[i * n + j] += u      # 1 (x) e_j
                v[j * n + i] -= u      # e_j (x) 1
        d_cols.append(coords(v, "du(%s) is not in the kernel of "
                                "multiplication" % a.basis_names[j]))
    du = Matrix.from_cols(d_cols, nrows=k)
    return UniversalCalculus(a, bim, du, ker)


def factor_through_universal(c: DifferentialCalculus,
                             universal: Optional[UniversalCalculus] = None):
    """The bimodule map phi with phi o du = d, plus its certificate.

    Returns (phi, report).  The report lists factorisation or intertwining
    failures (none are expected for a Leibniz calculus) and certifies
    uniqueness: a bimodule map killing du kills every f.du(g), and these
    span the one-forms (Omega_u = A.du(A)), so phi is the only solution.
    """
    a = c.algebra
    if universal is not None and universal.algebra is not a:
        raise ValueError("the universal calculus is over another algebra")
    u = universal if universal is not None else universal_calculus(a)
    m = c.bimodule
    # phi(f (x) g) = f.dg, restricted to the kernel
    amb_cols = []
    for i in range(a.dim):
        li = m.left[i]
        for j in range(a.dim):
            amb_cols.append(li.apply(c.d.col(j)))
    phi_amb = Matrix.from_cols(amb_cols, nrows=m.dim)
    phi = Matrix.from_cols([phi_amb.apply(b) for b in u.one_forms.basis],
                           nrows=m.dim)
    phi_map = BimoduleMap(u.bimodule, m, phi)

    rep = CheckReport("factorization through universal one-forms")
    rep.extend(check_bimodule_map(phi_map))
    if phi @ u.d != c.d:
        rep.add("factorization-equation", (),
                "phi o du differs from d")
    k = u.bimodule.dim
    gens = []
    for li in u.bimodule.left:
        gens.extend((li @ u.d).cols())
    spanned = rank(Matrix.from_cols(gens, nrows=k))
    if spanned != k:
        rep.add("factorization-uniqueness", (),
                "A.du(A) spans %d of %d one-form dimensions" % (spanned, k))
    return phi_map, rep


def is_spanned_by_differential(c: DifferentialCalculus) -> bool:
    """Does the image of d generate the bimodule under both actions?"""
    m = c.bimodule
    seed = [c.d.col(j) for j in range(c.algebra.dim)]
    closure = closure_under_maps(seed, [x.apply for x in m.left + m.right],
                                 m.dim)
    return closure.dim == m.dim
