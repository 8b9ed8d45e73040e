"""Hand-written structure tables used as oracles across the test suite.

These are deliberately written out by hand (not imported from the package's
catalog) so that catalog bundles can be cross-checked against an independent
transcription.
"""

from fractions import Fraction

from ncwb.algebra import Algebra

F = Fraction


def dual_numbers() -> Algebra:
    # basis 1, x with x^2 = 0
    sc = [
        [(1, 0), (0, 1)],
        [(0, 1), (0, 0)],
    ]
    return Algebra(("1", "x"), sc, (1, 0))


def z2_group_algebra() -> Algebra:
    # basis 1, g with g^2 = 1
    sc = [
        [(1, 0), (0, 1)],
        [(0, 1), (1, 0)],
    ]
    return Algebra(("1", "g"), sc, (1, 0))


def truncated_polynomials(n: int) -> Algebra:
    # basis 1, x, ..., x^(n-1) with x^n = 0
    def zero():
        return [0] * n

    sc = []
    for i in range(n):
        row = []
        for j in range(n):
            v = zero()
            if i + j < n:
                v[i + j] = 1
            row.append(tuple(v))
        sc.append(row)
    unit = zero()
    unit[0] = 1
    return Algebra(tuple("1" if k == 0 else "x^%d" % k if k > 1 else "x"
                         for k in range(n)), sc, tuple(unit))


def matrix_2() -> Algebra:
    # matrix units e11, e12, e21, e22; E_ab E_cd = delta_bc E_ad
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    sc = []
    for (a, b) in pairs:
        row = []
        for (c, d) in pairs:
            v = [0, 0, 0, 0]
            if b == c:
                v[idx[(a, d)]] = 1
            row.append(tuple(v))
        sc.append(row)
    return Algebra(("e11", "e12", "e21", "e22"), sc, (1, 0, 0, 1))


def upper_triangular_2() -> Algebra:
    # basis e11, e12, e22 inside 2x2 matrices
    names = ("e11", "e12", "e22")
    pairs = [(0, 0), (0, 1), (1, 1)]
    idx = {p: k for k, p in enumerate(pairs)}
    sc = []
    for (a, b) in pairs:
        row = []
        for (c, d) in pairs:
            v = [0, 0, 0]
            if b == c:
                v[idx[(a, d)]] = 1
            row.append(tuple(v))
        sc.append(row)
    return Algebra(names, sc, (1, 0, 1))


def quantum_plane(q=F(2), deg=2) -> Algebra:
    # monomials x^a y^b with a+b <= deg, y x = q x y, top degree truncated
    monos = [(a, b) for total in range(deg + 1)
             for a in range(total, -1, -1) for b in [total - a]]
    idx = {m: k for k, m in enumerate(monos)}
    n = len(monos)

    def name(m):
        a, b = m
        if a == 0 and b == 0:
            return "1"
        part = []
        if a:
            part.append("x" if a == 1 else "x^%d" % a)
        if b:
            part.append("y" if b == 1 else "y^%d" % b)
        return "*".join(part)

    sc = []
    for (a, b) in monos:
        row = []
        for (c, d) in monos:
            v = [F(0)] * n
            if a + b + c + d <= deg:
                v[idx[(a + c, b + d)]] = F(q) ** (b * c)
            row.append(tuple(v))
        sc.append(row)
    unit = [0] * n
    unit[idx[(0, 0)]] = 1
    return Algebra(tuple(name(m) for m in monos), sc, tuple(unit))


# ---- calculi ----------------------------------------------------------

from ncwb.algebra import Bimodule  # noqa: E402
from ncwb.calculus import DifferentialCalculus  # noqa: E402
from ncwb.linalg import Matrix  # noqa: E402


def kahler_dual_numbers() -> DifferentialCalculus:
    # one-forms A dx / (x dx); single basis vector w with x.w = w.x = 0
    a = dual_numbers()
    one, zero = Matrix([[1]]), Matrix([[0]])
    m = Bimodule(a, 1, (one, zero), (one, zero))
    return DifferentialCalculus(a, m, Matrix([[0, 1]]))


def kahler_truncated(n: int) -> DifferentialCalculus:
    # basis w_k ~ x^k dx for k < n-1, x^p shifts, d(x^j) = j w_(j-1)
    a = truncated_polynomials(n)
    dim = n - 1

    def shift(p):
        return Matrix([[1 if i == j + p else 0 for j in range(dim)]
                       for i in range(dim)])

    left = tuple(shift(p) for p in range(n))
    m = Bimodule(a, dim, left, left)
    d = Matrix([[j if i == j - 1 else 0 for j in range(n)]
                for i in range(dim)])
    return DifferentialCalculus(a, m, d)


def theta_z2() -> DifferentialCalculus:
    # one dimensional module with g.theta = theta, theta.g = -theta,
    # d(g) = 2 theta; Leibniz needs the sign twist
    a = z2_group_algebra()
    m = Bimodule(a, 1, (Matrix([[1]]), Matrix([[1]])),
                 (Matrix([[1]]), Matrix([[-1]])))
    return DifferentialCalculus(a, m, Matrix([[0, 2]]))


def inner_calculus(a, u_coords) -> DifferentialCalculus:
    # d f = u f - f u on the regular bimodule
    m = Bimodule.regular(a)
    d = a.left_mult_matrix(u_coords) - a.right_mult_matrix(u_coords)
    return DifferentialCalculus(a, m, d)


def zero_calculus(a) -> DifferentialCalculus:
    return DifferentialCalculus(a, Bimodule.zero(a),
                                Matrix((), ncols=a.dim))


# ---- pairs ------------------------------------------------------------

from ncwb.cartan import CartanPair  # noqa: E402


def quantum_plane_pair() -> CartanPair:
    # two generators X, Y; scalars act from the left through the constant
    # term, the right action feeds Y into X along x, and the action raises
    # degree: X: x -> y^2, Y: x -> x^2, x^2 -> y^2
    a = quantum_plane()
    ident, z = Matrix.identity(2), Matrix.zeros(2, 2)
    left = (ident, z, z, z, z, z)
    right = (ident, Matrix([[0, 1], [0, 0]]), z, z, z, z)
    nb = Bimodule(a, 2, left, right)

    def emat(entries):
        m = [[0] * 6 for _ in range(6)]
        for r, c in entries:
            m[r][c] = 1
        return Matrix(m)

    return CartanPair(a, nb, (emat([(5, 1)]), emat([(3, 1), (5, 3)])))


def naive_derivative_pair(n: int) -> CartanPair:
    # formal d/dx scaled by powers of x on the regular bimodule; the
    # truncation x^n = 0 breaks the twisted Leibniz law at total degree n
    a = truncated_polynomials(n)
    ddx = Matrix([[j if i == j - 1 else 0 for j in range(n)]
                  for i in range(n)])
    acts = tuple(a.lmul[t] @ ddx for t in range(n))
    return CartanPair(a, Bimodule.regular(a), acts)


def zero_action_pair_z2() -> CartanPair:
    a = z2_group_algebra()
    z = Matrix.zeros(2, 2)
    return CartanPair(a, Bimodule.regular(a), (z, z))


# ---- generic routes kept as oracles for the closed forms ---------------

from ncwb.algebra import (  # noqa: E402
    BimoduleMap, bimodule_map_space, check_bimodule_map, right_dual,
)
from ncwb.calculus import UniversalCalculus  # noqa: E402
from ncwb.cartan import CoUniversalFactorization  # noqa: E402
from ncwb.linalg import (  # noqa: E402
    Subspace, is_zero_vector, kernel, kron, restrict_to_kernel, solve,
    span_closure, vadd, vscale, vzero,
)
from ncwb.reporting import CheckReport  # noqa: E402


def multiply_by_sc(a, f, g) -> tuple:
    """f g as a sum of f_i g_j sc[i][j], one scalar product at a time."""
    out = vzero(a.dim)
    for i, x in enumerate(f):
        if x == 0:
            continue
        for j, y in enumerate(g):
            if y == 0:
                continue
            out = vadd(out, vscale(x * y, a.sc[i][j]))
    return out


def check_algebra_by_sc(a) -> CheckReport:
    """Associativity on every basis triple and both units on every basis
    vector, each product formed by multiply_by_sc."""
    rep = CheckReport("algebra")
    n = a.dim
    names = a.basis_names

    def e(k):
        return tuple(1 if t == k else 0 for t in range(n))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = multiply_by_sc(a, a.sc[i][j], e(k))
                right = multiply_by_sc(a, e(i), a.sc[j][k])
                if left != right:
                    rep.add("associativity", (i, j, k),
                            "(%s*%s)*%s != %s*(%s*%s)" % (
                                names[i], names[j], names[k], names[i],
                                names[j], names[k]))
    for j in range(n):
        if multiply_by_sc(a, a.unit, e(j)) != e(j):
            rep.add("left-unit", (j,), "1*%s" % names[j])
        if multiply_by_sc(a, e(j), a.unit) != e(j):
            rep.add("right-unit", (j,), "%s*1" % names[j])
    return rep


def intertwiner_rows_by_kron(a, b) -> tuple:
    """Rows of X a - b X = 0 for a p x q unknown X, flattened row-major:
    kron(I_p, a^T) - kron(b, I_q)."""
    return (kron(Matrix.identity(b.nrows), a.transpose())
            - kron(b, Matrix.identity(a.ncols))).rows


def universal_calculus_by_kron(a) -> UniversalCalculus:
    """Kernel of multiplication with the actions kron(L_i, I), kron(I, R_i)
    restricted by solving for kernel coordinates."""
    n = a.dim
    ker = kernel(a.mult_matrix())
    i_n = Matrix.identity(n)

    def restricted(amb_act):
        cols = [ker.coords(amb_act.apply(b)) for b in ker.basis]
        assert all(c is not None for c in cols)
        return Matrix.from_cols([tuple(c) for c in cols], nrows=ker.dim)

    left = tuple(restricted(kron(a.lmul[i], i_n)) for i in range(n))
    right = tuple(restricted(kron(i_n, a.rmul[i])) for i in range(n))
    d_cols = []
    for j in range(n):
        v = list(vzero(n * n))
        for i, u in enumerate(a.unit):
            v[i * n + j] += u
            v[j * n + i] -= u
        d_cols.append(tuple(ker.coords(v)))
    return UniversalCalculus(a, Bimodule(a, ker.dim, left, right),
                             Matrix.from_cols(d_cols, nrows=ker.dim), ker)


def universal_uniqueness_by_solve(c, u) -> int:
    """Dimension of the bimodule maps Omega_u -> M that kill du."""
    maps = bimodule_map_space(u.bimodule, c.bimodule)
    du_constraint = kron(Matrix.identity(c.bimodule.dim), u.d.transpose())
    return restrict_to_kernel(maps, du_constraint).dim


def co_universal_pair_by_right_dual(a, u) -> CartanPair:
    """The right dual of the universal one-forms acting by X -> X(du .)."""
    d = right_dual(u.bimodule)
    return CartanPair(a, d.bimodule, tuple(e @ u.d for e in d.eval_mats),
                      source_calculus=u, dual=d)


def co_universal_factorization_by_solve(p, cu) -> CoUniversalFactorization:
    """Solve action = action_u o Phi over the whole space of bimodule maps
    N -> X_u, with its homogeneous solutions."""
    rep = CheckReport("co-universal factorization")
    maps = bimodule_map_space(p.bimodule, cu.bimodule)
    q, pn = cu.bimodule.dim, p.bimodule.dim
    n2 = p.algebra.dim ** 2
    cond_cols = []
    for flat_idx in range(q * pn):
        k, t = divmod(flat_idx, pn)
        v = [0] * (n2 * pn)
        for r, x in enumerate(cu.action[k].flatten()):
            v[t * n2 + r] = x
        cond_cols.append(tuple(v))
    cond = Matrix.from_cols(cond_cols, nrows=n2 * pn)
    target = []
    for t in range(pn):
        target.extend(p.action[t].flatten())
    if maps.dim == 0:
        phi_flat = (0,) * (q * pn) if is_zero_vector(target) else None
    else:
        basis_mat = Matrix.from_cols(
            [maps.element(tuple(1 if s == r else 0 for s in range(maps.dim)))
             for r in range(maps.dim)], nrows=q * pn)
        coeffs = solve(cond @ basis_mat, target)
        phi_flat = basis_mat.apply(coeffs) if coeffs is not None else None
    hom = restrict_to_kernel(maps, cond)
    phi_map = None
    if phi_flat is None:
        rep.add("factorization-exists", (),
                "no bimodule map matches the action")
    else:
        phi_map = BimoduleMap(p.bimodule, cu.bimodule,
                              Matrix.from_flat(phi_flat, q, pn))
        rep.extend(check_bimodule_map(phi_map))
        for t in range(pn):
            xt = tuple(1 if s == t else 0 for s in range(pn))
            if cu.action_of(phi_map.apply(xt)) != p.action[t]:
                rep.add("factorization-equation", (t,))
        if hom.dim != 0:
            rep.add("factorization-uniqueness", (),
                    "homogeneous solutions of dimension %d" % hom.dim)
    exists = phi_map is not None
    return CoUniversalFactorization(phi_map, exists, exists and hom.dim == 0,
                                    hom.dim, rep)


def diffop_algebra_by_pairs(pair):
    """The operator algebra by composing every pair of generators through
    span_closure, seeded with the identity, the left multiplications and
    the action."""
    n = pair.algebra.dim
    seed = [Matrix.identity(n).flatten()]
    seed += [m.flatten() for m in pair.algebra.lmul + pair.action]

    def compose(u, v):
        return (Matrix.from_flat(u, n, n) @ Matrix.from_flat(v, n, n)).flatten()

    return span_closure(seed, compose, n * n)


def dual_span_by_reelimination(d):
    """The span of a dual's flattened evaluation matrices, row reduced
    afresh."""
    return Subspace.from_vectors(d.base.algebra.dim * d.base.dim,
                                 [e.flatten() for e in d.eval_mats])


# ---- change of basis ---------------------------------------------------

from hypothesis import strategies as st  # noqa: E402


def unimodular_matrices(n: int):
    """Hypothesis strategy for n x n unimodular integer matrices."""
    size = n * (n - 1) // 2
    entries = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
    return st.builds(lambda lower, upper: unimodular(n, lower, upper),
                     entries, entries)


def unimodular(n: int, lower, upper) -> Matrix:
    """L U from unit triangular integer matrices; lower and upper list the
    n(n-1)/2 entries below and above the diagonal.  Determinant 1."""
    below, above = iter(lower), iter(upper)
    l_mat = Matrix([[1 if i == j else next(below) if j < i else 0
                     for j in range(n)] for i in range(n)], ncols=n)
    u_mat = Matrix([[1 if i == j else next(above) if j > i else 0
                     for j in range(n)] for i in range(n)], ncols=n)
    return l_mat @ u_mat


def inverse(m: Matrix) -> Matrix:
    """Gauss-Jordan inverse of an invertible matrix."""
    n = m.nrows
    aug = [list(r) + [F(int(i == j)) for j in range(n)]
           for i, r in enumerate(m.rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return Matrix([row[n:] for row in aug], ncols=n)


@st.composite
def transported_pairs(draw, pairs):
    """One of the given pairs after unimodular basis changes of its
    algebra and of its bimodule."""
    p = draw(st.sampled_from(pairs))
    change = BasisChange(draw(unimodular_matrices(p.algebra.dim)),
                         draw(unimodular_matrices(p.bimodule.dim)))
    return change.pair(p, change.algebra(p.algebra))


class BasisChange:
    """New bases: the columns of p for the algebra, of q for a module."""

    def __init__(self, p: Matrix, q: Matrix):
        self.p, self.pinv = p, inverse(p)
        self.q, self.qinv = q, inverse(q)

    def algebra(self, a) -> Algebra:
        n = a.dim
        lmul = [self.pinv @ a.left_mult_matrix(self.p.col(i)) @ self.p
                for i in range(n)]
        sc = [[lmul[i].col(j) for j in range(n)] for i in range(n)]
        return Algebra(tuple("b%d" % i for i in range(n)), sc,
                       self.pinv.apply(a.unit))

    def bimodule(self, m, new_algebra) -> Bimodule:
        def conj(act):
            return self.qinv @ act @ self.q
        cols = [self.p.col(i) for i in range(new_algebra.dim)]
        return Bimodule(new_algebra, m.dim,
                        [conj(m.left_of(c)) for c in cols],
                        [conj(m.right_of(c)) for c in cols])

    def calculus(self, c, new_algebra) -> DifferentialCalculus:
        return DifferentialCalculus(new_algebra,
                                    self.bimodule(c.bimodule, new_algebra),
                                    self.qinv @ c.d @ self.p)

    def pair(self, pair, new_algebra) -> CartanPair:
        acts = [self.pinv @ pair.action_of(self.q.col(t)) @ self.p
                for t in range(pair.bimodule.dim)]
        return CartanPair(new_algebra,
                          self.bimodule(pair.bimodule, new_algebra), acts)


# ---- dense, re-eliminating and per-field routes kept as oracles ----

from ncwb.algebra import LeftModule, TensorProductOverA  # noqa: E402
from ncwb.connections import covariant_derivative  # noqa: E402
from ncwb.linalg import Echelon, vector  # noqa: E402
from ncwb.reporting import InvariantError  # noqa: E402


def rref(m):
    """Reduced row echelon form of m, as (Matrix, pivot columns)."""
    ech = Echelon(m.ncols, m.rows)
    return Matrix(ech.frac_rows(), ncols=m.ncols), tuple(ech.pivots)


def affine_solutions_by_reelimination(m, b) -> tuple:
    """One solution of m x = b (free variables zero) or None, and the null
    space: the reduced (m | b) gives one vector per free column, and
    Subspace.from_vectors eliminates those again for the canonical
    basis."""
    n = m.ncols
    ech = Echelon(n + 1, (r + (bi,) for r, bi in zip(m.rows, vector(b))))
    rows, pivots = ech.frac_rows(), list(ech.pivots)
    if pivots and pivots[-1] == n:
        x = None
        rows, pivots = rows[:-1], pivots[:-1]
    else:
        x = [F(0)] * n
        for row, pc in zip(rows, pivots):
            x[pc] = row[n]
        x = tuple(x)
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [F(0)] * n
        v[f] = F(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return x, Subspace.from_vectors(n, basis)


def kernel_by_reelimination(m) -> Subspace:
    return affine_solutions_by_reelimination(m, (0,) * m.nrows)[1]


def apply_dense(m, v) -> tuple:
    """m v as one multiply-add per entry, zeros included."""
    out = []
    for r in m.rows:
        s = F(0)
        for a, b in zip(r, v):
            s += a * b
        out.append(s)
    return tuple(out)


def matmul_dense(a, b) -> Matrix:
    """a @ b as Fraction multiply-adds over the non-zero entries of both
    factors."""
    brows = [[(j, y) for j, y in enumerate(r) if y] for r in b.rows]
    out = []
    for r in a.rows:
        acc = [F(0)] * b.ncols
        for k, x in enumerate(r):
            if x:
                for j, y in brows[k]:
                    acc[j] += x * y
        out.append(tuple(acc))
    return Matrix(out, ncols=b.ncols)


def linear_combination_dense(coeffs, terms, nrows, ncols) -> Matrix:
    """sum_k coeffs[k] * terms[k] as Fraction multiply-adds over the
    non-zero entries of the terms."""
    acc = [[F(0)] * ncols for _ in range(nrows)]
    for c, t in zip(coeffs, terms):
        if c:
            for arow, trow in zip(acc, t.rows):
                for j, x in enumerate(trow):
                    if x:
                        arow[j] += c * x
    return Matrix(acc, ncols=ncols)


def coords_dense(space, v):
    """Coefficients of v over space.basis by whole-row subtraction, or None
    if v lies outside."""
    v = list(vector(v))
    out = []
    for row, pc in zip(space.basis, space.pivots):
        c = v[pc]
        out.append(c)
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return out if is_zero_vector(v) else None


def tensor_over_A_by_kron(m, e) -> TensorProductOverA:
    """The balanced tensor product with the ambient action kron(L_i, I),
    stability checked by membership and the quotient action
    projection kron(L_i, I) lift."""
    a = m.algebra
    amb = m.dim * e.dim
    rels = []
    for j in range(a.dim):
        for s in range(m.dim):
            rcol = m.right[j].col(s)
            for t in range(e.dim):
                lcol = e.left[j].col(t)
                v = [F(0)] * amb
                for s2, c in enumerate(rcol):
                    v[s2 * e.dim + t] += c
                for t2, c in enumerate(lcol):
                    v[s * e.dim + t2] -= c
                if not is_zero_vector(v):
                    rels.append(tuple(v))
    rel = Subspace.from_vectors(amb, rels)
    qcols = [j for j in range(amb) if j not in set(rel.pivots)]

    def project(v):
        v = list(v)
        for row, pc in zip(rel.basis, rel.pivots):
            c = v[pc]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return tuple(v[j] for j in qcols)

    projection = Matrix.from_cols(
        [project(tuple(int(j == t) for j in range(amb)))
         for t in range(amb)], nrows=len(qcols))
    lift = Matrix.from_cols([tuple(int(j == qc) for j in range(amb))
                             for qc in qcols], nrows=amb)
    ir = Matrix.identity(e.dim)
    left_mats = []
    for i in range(a.dim):
        amb_act = kron(m.left[i], ir)
        for rv in rel.basis:
            if not rel.contains(amb_act.apply(rv)):
                raise InvariantError("left action does not preserve "
                                     "balancing relations")
        left_mats.append(projection @ amb_act @ lift)
    return TensorProductOverA((m, e), LeftModule(a, len(qcols), left_mats),
                              projection, lift, rel)


def check_covariant_axioms_per_field(conn, pair) -> CheckReport:
    """Both covariant derivative laws with nabla_X contracted afresh for
    every field X the laws mention."""
    rep = CheckReport("covariant axioms")
    a = conn.calculus.algebra
    e = conn.module
    nb = pair.bimodule
    for t in range(nb.dim):
        dx = covariant_derivative(conn, pair,
                                  tuple(int(s == t) for s in range(nb.dim)))
        for i in range(a.dim):
            dfx = covariant_derivative(conn, pair, nb.left[i].col(t))
            scaled = e.left[i] @ dx
            for a2 in range(e.dim):
                if dfx.col(a2) != scaled.col(a2):
                    rep.add("action-linearity", (i, t, a2))
            dxf = covariant_derivative(conn, pair, nb.right[i].col(t))
            shifted = dx @ e.left[i]
            mult = e.left_of(pair.action[t].col(i))
            for a2 in range(e.dim):
                rhs = tuple(x + y for x, y in
                            zip(mult.col(a2), dxf.col(a2)))
                if shifted.col(a2) != rhs:
                    rep.add("twisted-leibniz", (t, i, a2))
    return rep
