"""First order differential calculi and the universal one.

A calculus is a bimodule M together with a linear map d: A -> M satisfying
the Leibniz law d(fg) = df.g + f.dg.  The universal calculus lives on the
kernel of the multiplication map A (x) A -> A with du f = 1 (x) f - f (x) 1;
every calculus factors through it by a unique bimodule map, and that map is
computed here together with an explicit uniqueness certificate.  The map,
its certificate and the verdict on whether dA generates M all read one
matrix, left_differentials, whose column span is A.dA.
"""

from __future__ import annotations

from typing import Optional

from .linalg import Matrix, Subspace, blockwise_product, hstack, kernel, \
    kron, rank
from .algebra import (
    Algebra, Bimodule, BimoduleMap, check_bimodule_map, format_element,
    span_action,
)
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


def check_leibniz(c: DifferentialCalculus) -> CheckReport:
    """d(e_i e_j) = d(e_i).e_j + e_i.d(e_j) for every basis pair.

    With N = [R_0 | ... | R_{n-1}], the pairs (i, j) for one i are the
    columns j of one identity, d l_i = L_i d + N (I_n (x) d e_i): column j
    of N (I_n (x) d e_i) is R_j d(e_i).  A finding gives the defect
    d(e_i e_j) - d(e_i).e_j - e_i.d(e_j) over the module basis m0, m1,
    ..."""
    rep = CheckReport("calculus")
    a, m = c.algebra, c.bimodule
    names = ["m%d" % r for r in range(m.dim)]
    big_r = hstack(m.right, m.dim)
    for i, di in enumerate(c.d.transpose().row_matrices(m.dim, 1)):
        lhs = c.d @ a.lmul[i]
        rhs = m.left[i] @ c.d + blockwise_product(big_r, di, a.dim)
        if lhs == rhs:
            continue
        defect = lhs - rhs
        for j in defect.nonzero_cols():
            rep.add("leibniz", (i, j), "d(%s*%s) defect %s" % (
                a.basis_names[i], a.basis_names[j],
                format_element(names, defect.col(j))))
    return rep


def universal_calculus(a: Algebra) -> UniversalCalculus:
    """Kernel of multiplication with du f = 1 (x) f - f (x) 1.

    A tensor w = sum w_ij e_i (x) e_j is handled as the n x n matrix W, so
    that f.w is L_f W and w.g is W R_g^T: each action is one span_action
    on the kernel basis, which reads (and certifies) the coordinates of
    all the images together.
    """
    n = a.dim
    ker = kernel(a.mult_matrix())
    i_n = Matrix.identity(n)
    error = "kernel of multiplication is not closed under the actions"
    left = tuple(span_action(ker, (n, n), error, left=lm) for lm in a.lmul)
    right = tuple(span_action(ker, (n, n), error, right=rm.transpose())
                  for rm in a.rmul)
    # row j of kron(u, I) - kron(I, u) is 1 (x) e_j - e_j (x) 1
    unit = Matrix((a.unit,))
    d, bad = ker.coords_int(kron(unit, i_n) - kron(i_n, unit))
    if d is None:
        raise InvariantError("du(%s) is not in the kernel of multiplication"
                             % a.basis_names[bad])
    return UniversalCalculus(a, Bimodule(a, ker.dim, left, right),
                             d.transpose(), ker)


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
    # phi(f (x) g) = f.dg, column f * n + g of left_differentials(c),
    # restricted to the kernel
    phi = left_differentials(c) @ u.one_forms.matrix.transpose()
    phi_map = BimoduleMap(u.bimodule, m, phi)

    rep = CheckReport("factorization through universal one-forms")
    rep.extend(check_bimodule_map(phi_map))
    if phi @ u.d != c.d:
        rep.add("factorization-equation", (),
                "phi o du differs from d")
    k = u.bimodule.dim
    spanned = rank(left_differentials(u))
    if spanned != k:
        rep.add("factorization-uniqueness", (),
                "A.du(A) spans %d of %d one-form dimensions" % (spanned, k))
    return phi_map, rep


def left_differentials(c: DifferentialCalculus) -> Matrix:
    """[L_0 d | ... | L_{n-1} d]: column f n + g is e_f.d(e_g)."""
    return hstack([li @ c.d for li in c.bimodule.left], c.bimodule.dim)


def is_spanned_by_differential(c: DifferentialCalculus) -> bool:
    """Does the image of d generate the bimodule under both actions?

    Precondition: the calculus passes check_leibniz and its bimodule
    check_bimodule, which the report's law gate ensures.  The bimodule
    generated by dA is then A.dA, the column span of left_differentials:
    f.dg.h = f.d(gh) - fg.dh by Leibniz, and 1.dg = dg.
    """
    return rank(left_differentials(c)) == c.bimodule.dim
