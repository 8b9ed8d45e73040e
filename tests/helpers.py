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
    BimoduleMap, bimodule_map_space, check_bimodule_map, left_dual,
    right_dual,
)
from ncwb.calculus import UniversalCalculus  # noqa: E402
from ncwb.cartan import CoUniversalFactorization  # noqa: E402
from ncwb.linalg import (  # noqa: E402
    ZERO, Subspace, is_zero_vector, kernel, kron, linear_combination,
    restrict_to_kernel, solve, span_closure,
)
from ncwb.reporting import CheckReport  # noqa: E402


def vzero(n: int) -> tuple:
    return (ZERO,) * n


def multiply_by_sc(a, f, g) -> tuple:
    """f g as a sum of f_i g_j sc[i][j], one scalar product at a time."""
    out = vzero(a.dim)
    for i, x in enumerate(f):
        if x == 0:
            continue
        for j, y in enumerate(g):
            if y == 0:
                continue
            out = tuple(o + x * y * s for o, s in zip(out, a.sc[i][j]))
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
        cols = [coords_dense(ker, amb_act.apply(b)) for b in ker.basis]
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
        d_cols.append(tuple(coords_dense(ker, v)))
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
    return CartanPair(a, d, tuple(e @ u.d for e in d.eval_mats),
                      source_calculus=u)


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
            if cu.action_of(phi_map.matrix.apply(xt)) != p.action[t]:
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


@st.composite
def random_action_pairs(draw, pairs):
    """One of the given pairs' algebra and bimodule with fields drawn at
    random, almost never lawful, but action linear at every e_j: each
    evaluation K_j, column t X_t(e_j), is a drawn combination of the
    basis of the left dual of the bimodule, so the fields pass the
    left-linearity gate of cartan._evaluations."""
    base = draw(st.sampled_from(pairs))
    n, m = base.algebra.dim, base.bimodule.dim
    basis = left_dual(base.bimodule).eval_mats
    entry = st.sampled_from((0, 0, 0, 1, -1, 2))
    evals = [linear_combination([draw(entry) for _ in basis], basis, n, m)
             for _ in range(n)]
    acts = [Matrix.from_cols([k.col(t) for k in evals], nrows=n)
            for t in range(m)]
    return CartanPair(base.algebra, base.bimodule, acts)


@st.composite
def left_linear_pairs(draw, algebras):
    """Fields X_t = l(e_t) D on the regular bimodule of one of the given
    algebras, for a drawn operator D: action linear for every D, so the
    evaluations lie in the left dual, but rarely twisted Leibniz."""
    a = draw(st.sampled_from(algebras))
    n = a.dim
    entry = st.sampled_from((0, 0, 0, 1, -1))
    d = Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    return CartanPair(a, Bimodule.regular(a), [lm @ d for lm in a.lmul])


@st.composite
def leibniz_calculi(draw, calculi):
    """One of the given calculi, optionally summed with an inner calculus
    d f = u f - f u on the regular bimodule for a drawn u, after unimodular
    basis changes of the algebra and of the one-forms.  Every draw is a
    Leibniz calculus; a zero u leaves the regular summand unreached."""
    c = draw(st.sampled_from(calculi))
    a = c.algebra
    if draw(st.booleans()):
        u = [draw(st.sampled_from((0, 0, 1, -1, 2))) for _ in range(a.dim)]
        inner = inner_calculus(a, u)
        c = DifferentialCalculus(
            a, direct_sum(c.bimodule, inner.bimodule),
            Matrix(list(c.d.rows) + list(inner.d.rows), ncols=a.dim))
    change = BasisChange(draw(unimodular_matrices(a.dim)),
                         draw(unimodular_matrices(c.bimodule.dim)))
    return change.calculus(c, change.algebra(a))


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

from ncwb.algebra import (  # noqa: E402
    DualBimodule, LeftModule, TensorProductOverA, _dual, tensor_over_A,
)
from ncwb.connections import (  # noqa: E402
    Connection, ConnectionSpace, _d_tensor, covariant_derivative,
)
from ncwb.linalg import (  # noqa: E402
    Echelon, affine_solutions, block_combination, intertwiner_rows, vector,
)
from ncwb.reporting import InvariantError  # noqa: E402


def simple_tensor(t, mcoords, ecoords):
    """Quotient coordinates of m (x) xi, through the dense ambient vector
    of the plain tensor product."""
    m, e = t.factors
    v = [Fraction(0)] * (m.dim * e.dim)
    for s, c in enumerate(vector(mcoords)):
        if c != 0:
            for a2, c2 in enumerate(vector(ecoords)):
                if c2 != 0:
                    v[s * e.dim + a2] += c * c2
    return t.projection.apply(v)


def trivial_connection_matrix_by_simple_tensor(c, t, rank_) -> Matrix:
    """Column blk * n + i of the trivial connection on A^rank, d(e_i) (x)
    the unit in block blk, one simple tensor at a time."""
    a = c.algebra
    cols = []
    for blk in range(rank_):
        for i in range(a.dim):
            gen = [Fraction(0)] * (a.dim * rank_)
            for k, uk in enumerate(a.unit):
                gen[blk * a.dim + k] = uk
            cols.append(simple_tensor(t, c.d.col(i), gen))
    return Matrix.from_cols(cols, nrows=t.module.dim)


def dual_by_basis_loop(m, side: str) -> DualBimodule:
    """The dual with its actions read one evaluation matrix at a time: a
    product and a dense coordinate read per basis element and action."""
    a = m.algebra
    sol = _dual(m, side).span
    eval_mats = sol.matrix.row_matrices(a.dim, m.dim)

    def express(img: Matrix):
        c = coords_dense(sol, img.flatten())
        if c is None:
            raise InvariantError("the %s dual is not closed under its "
                                 "actions" % side)
        return c

    left_mats, right_mats = [], []
    for i in range(a.dim):
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
        left_mats.append(Matrix.from_cols(lcols, nrows=sol.dim))
        right_mats.append(Matrix.from_cols(rcols, nrows=sol.dim))
    return DualBimodule(m, side, sol, left_mats, right_mats)


def rref(m):
    """Reduced row echelon form of m, as (Matrix, pivot columns)."""
    ech = Echelon(m.ncols, m.rows)
    return ech.subspace().matrix, tuple(ech.pivots)


def affine_solutions_by_reelimination(m, b) -> tuple:
    """One solution of m x = b (free variables zero) or None, and the null
    space: the reduced (m | b) gives one vector per free column, and
    Subspace.from_vectors eliminates those again for the canonical
    basis."""
    n = m.ncols
    ech = Echelon(n + 1, (r + (bi,) for r, bi in zip(m.rows, vector(b))))
    rows, pivots = ech.subspace().basis, list(ech.pivots)
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
            if coords_dense(rel, amb_act.apply(rv)) is None:
                raise InvariantError("left action does not preserve "
                                     "balancing relations")
        left_mats.append(projection @ amb_act @ lift)
    return TensorProductOverA((m, e), LeftModule(a, len(qcols), left_mats),
                              projection, lift, rel)


def tensor_over_A_one_solve(m, e) -> TensorProductOverA:
    """The balanced tensor product from one elimination of all the
    balancing rows of E at once, blocks or not."""
    a = m.algebra
    ed = e.dim
    amb = m.dim * ed
    ech = Echelon(amb)
    for j in range(a.dim):
        for _, row in intertwiner_rows(e.left[j], m.right[j].transpose()):
            ech.insert_int(row)
    rel = ech.subspace()
    pivset = set(rel.pivots)
    qindex = {qc: k for k, qc in enumerate(
        j for j in range(amb) if j not in pivset)}
    qdim = len(qindex)
    pcols = [(1, {qindex[c]: 1}) if c in qindex else None for c in range(amb)]
    for row, pc in zip(ech.rows, rel.pivots):
        pcols[pc] = (row[pc], {qindex[j]: -x for j, x in row.items()
                               if j != pc})
    projection = Matrix.from_int_cols(pcols, qdim)
    lift = Matrix.from_int_rows([(1, {qindex[j]: 1} if j in qindex else {})
                                 for j in range(amb)], qdim)
    rel_cols = rel.matrix.transpose()
    left_mats = []
    for i in range(a.dim):
        p_i = block_combination(projection, m.left[i], ed)
        if not (p_i @ rel_cols).is_zero():
            raise InvariantError("left action does not preserve "
                                 "balancing relations")
        left_mats.append(p_i @ lift)
    return TensorProductOverA((m, e), LeftModule(a, qdim, left_mats),
                              projection, lift, rel)


def connection_space_one_solve(c, e, t=None):
    """The connection space from one elimination of the whole stacked
    Leibniz system X L^E_i - L^T_i X = B_i, over the tensor product t (by
    default the package's)."""
    t = tensor_over_A(c.bimodule, e) if t is None else t
    q = t.module.dim
    rows, rhs = [], []
    for i, extra in enumerate(_d_tensor(c, t)):
        rows.extend(intertwiner_rows(e.left[i], t.module.left[i]))
        rhs.extend(extra.flatten())
    sol, homog = affine_solutions(Matrix.from_int_rows(rows, q * e.dim), rhs)
    if sol is None:
        return ConnectionSpace(t, False, None, homog)
    part = Connection(c, e, t, Matrix.from_flat(sol, q, e.dim))
    return ConnectionSpace(t, True, part, homog)


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


# ---- test-only constructions the package has no use for ----------------

from dataclasses import dataclass  # noqa: E402

from ncwb.cartan import calculus_from_pair, pair_from_calculus  # noqa: E402
from ncwb.linalg import frac, rank  # noqa: E402


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


def padded_pair() -> CartanPair:
    """The dual numbers' Kahler pair plus a field acting by zero."""
    p = pair_from_calculus(kahler_dual_numbers())
    a = p.algebra
    one, zero = Matrix([[1]]), Matrix([[0]])
    trivial = Bimodule(a, 1, (one, zero), (one, zero))
    return CartanPair(a, direct_sum(p.bimodule, trivial),
                      (p.action[0], Matrix.zeros(2, 2)))


def is_normal_form_word(word) -> bool:
    seen_m = False
    for kind, _ in word:
        if kind == "m":
            seen_m = True
        elif seen_m:
            return False
    return sum(1 for kind, _ in word if kind == "a") <= 1


@dataclass
class ReflexiveRoundtrip:
    """Canonical map of a calculus bimodule into the double dual."""
    kappa: BimoduleMap
    injective: bool
    surjective: bool
    intertwines: bool
    map_report: CheckReport
    derived: DifferentialCalculus


def reflexive_roundtrip(c) -> ReflexiveRoundtrip:
    """Right dual then left dual; m goes to evaluation-at-m.

    Everything is computed from the exhaustive solves and reported; no
    reflexivity is assumed.
    """
    p = pair_from_calculus(c)
    derived, ld = calculus_from_pair(p)
    md = p.bimodule
    a = c.algebra
    cols = []
    for j in range(c.bimodule.dim):
        ev = Matrix.from_cols([e.col(j) for e in md.eval_mats], nrows=a.dim)
        coords = coords_dense(ld.span, ev.flatten())
        if coords is None:
            raise InvariantError("the evaluation at module vector %d is not "
                                 "left linear" % j)
        cols.append(coords)
    kappa_mat = Matrix.from_cols(cols, nrows=ld.dim)
    kappa = BimoduleMap(c.bimodule, ld, kappa_mat)
    r = rank(kappa_mat)
    return ReflexiveRoundtrip(
        kappa=kappa,
        injective=(r == c.bimodule.dim),
        surjective=(r == ld.dim),
        intertwines=(kappa_mat @ c.d == derived.d),
        map_report=check_bimodule_map(kappa),
        derived=derived)


from ncwb.cartan import SpanKernelDiagnostic, _evaluations  # noqa: E402
from ncwb.linalg import closure_under_maps  # noqa: E402


def action_kernel(p) -> Subspace:
    """Bimodule vectors acting by zero."""
    return kernel(Matrix.from_int_cols([m.flat_int() for m in p.action],
                                       p.algebra.dim ** 2))


# The spanned-by-differentials verdicts with no law: the generated
# sub-bimodule is closed under both actions, a vector at a time.  On a
# Leibniz calculus, or a pair that passes check_cartan, the package reads
# the same verdict from one side.

def spanned_by_differential_on_both_sides(c) -> bool:
    """Do the d(e_j) generate the bimodule under both of its actions?"""
    m = c.bimodule
    closure = closure_by_vectors(c.d.transpose().rows,
                                 [x.apply for x in m.left + m.right], m.dim)
    return closure.dim == m.dim


def spanning_kernel_diagnostic_on_both_sides(p) -> SpanKernelDiagnostic:
    """spanning_kernel_diagnostic closing the evaluation matrices K_j
    under both actions of the left dual, E -> E R_f and E -> r_g E,
    inside all n x p matrices."""
    n, m = p.algebra.dim, p.bimodule.dim
    evals, constraints = _evaluations(p)

    def times(x, on_left):
        def image(v):
            e = Matrix.from_flat(v, n, m)
            return (x @ e if on_left else e @ x).flatten()
        return image

    closure = closure_by_vectors(
        evals.rows, [times(x, False) for x in p.bimodule.right]
        + [times(x, True) for x in p.algebra.rmul], n * m)
    return SpanKernelDiagnostic(
        spanned=closure.dim == n * m - constraint_rank(p, constraints),
        kernel_trivial=action_kernel(p).dim == 0)


def constraint_rank(p, constraints) -> int:
    """The full rank of the left dual's constraints, as _evaluations
    gives them, in one elimination with no early stop."""
    n, m = p.algebra.dim, p.bimodule.dim
    return rank(Matrix.from_int_rows(constraints, n * m))


def spanning_by_full_rank(p) -> tuple:
    """(closure dim, constraint rank) of spanning_kernel_diagnostic, both
    computed in full: the pair's calculus is spanned by differentials
    when closure dim == n m - constraint rank."""
    n, m = p.algebra.dim, p.bimodule.dim
    evals, constraints = _evaluations(p)
    closure = closure_under_maps(evals, p.bimodule.right, shape=(n, m))
    return closure.dim, constraint_rank(p, constraints)


def spanning_kernel_diagnostic_by_left_dual(p) -> SpanKernelDiagnostic:
    """spanning_kernel_diagnostic through the induced calculus: build the
    left dual, read the evaluations into its coordinates and close the
    images of d under both of the dual's actions."""
    calc, _ = calculus_from_pair(p)
    return SpanKernelDiagnostic(
        spanned=spanned_by_differential_on_both_sides(calc),
        kernel_trivial=action_kernel(p).dim == 0)


# ---- the dense Fraction matrix, the oracle for the sparse Matrix -------

import math  # noqa: E402


class DenseMatrix:
    """Immutable exact matrix stored densely, a tuple of row tuples of
    Fractions, every operation one Fraction operation per entry: the
    oracle for ncwb.linalg.Matrix, which stores sparse integer rows."""

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(frac(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix")
            if ncols is not None and ncols != w:
                raise ValueError("rows of %d entries, but ncols=%d"
                                 % (w, ncols))
        else:
            if ncols is None:
                raise ValueError("an empty matrix needs an explicit ncols")
            w = ncols
        self.rows, self.nrows, self.ncols = rows, len(rows), w

    @classmethod
    def of(cls, m: Matrix) -> "DenseMatrix":
        return cls(m.rows, ncols=m.ncols)

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list:
        return [self.col(j) for j in range(self.ncols)]

    def flatten(self) -> tuple:
        return tuple(x for r in self.rows for x in r)

    def int_rows(self) -> tuple:
        """(lcm of the denominators, the non-zero (j, numerator) pairs of
        each row over it): the reduced form, since no prime divides that
        lcm and every numerator."""
        den = math.lcm(*(x.denominator for r in self.rows for x in r))
        return den, tuple(tuple((j, x.numerator * (den // x.denominator))
                                for j, x in enumerate(r) if x)
                          for r in self.rows)

    def flat_int(self) -> tuple:
        den, rows = self.int_rows()
        return den, {r * self.ncols + j: x for r, row in enumerate(rows)
                     for j, x in row}

    def apply(self, v) -> tuple:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        v = vector(v)
        return tuple(sum((a * b for a, b in zip(r, v)), F(0))
                     for r in self.rows)

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ocols = other.cols()
        return DenseMatrix([[sum((a * b for a, b in zip(r, c)), F(0))
                             for c in ocols] for r in self.rows],
                           ncols=other.ncols)

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return DenseMatrix([[a + b for a, b in zip(r, s)]
                            for r, s in zip(self.rows, other.rows)],
                           ncols=self.ncols)

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "DenseMatrix":
        return self.scale(-1)

    def scale(self, c) -> "DenseMatrix":
        c = frac(c)
        return DenseMatrix([[c * x for x in r] for r in self.rows],
                           ncols=self.ncols)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.cols(), ncols=self.nrows)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        return isinstance(other, DenseMatrix) and self.ncols == other.ncols \
            and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, self.rows))


def dense_linear_combination(coeffs, terms, nrows, ncols) -> DenseMatrix:
    """sum_k coeffs[k] * terms[k] by DenseMatrix additions."""
    if len(coeffs) != len(terms):
        raise ValueError("%d coefficients for %d terms"
                         % (len(coeffs), len(terms)))
    out = DenseMatrix([[0] * ncols for _ in range(nrows)], ncols=ncols)
    for c, t in zip(coeffs, terms):
        out = out + t.scale(c)
    return out


# ---- names only the tests use ------------------------------------------

import itertools  # noqa: E402

from ncwb.algebra import _first_difference, format_element  # noqa: E402
from ncwb.diffops import _word_operator  # noqa: E402


def act_left(m: Bimodule, f, v) -> tuple:
    """f . v for algebra coordinates f and module coordinates v."""
    return m.left_of(f).apply(v)


def act_right(m: Bimodule, v, f) -> tuple:
    """v . f for module coordinates v and algebra coordinates f."""
    return m.right_of(f).apply(v)


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


def word_index(rs, word) -> int:
    """The coordinate of a word in a RelationSearch."""
    return rs.words.index(tuple(word))


def word_columns(pair, max_len: int):
    """The words of find_relations in coordinate order, each with mu of it
    by one product per letter: the per-word oracle for the level-by-level
    search.  Flattened, these operators are the columns of the
    word-column matrix."""
    n, p = pair.algebra.dim, pair.bimodule.dim
    for k in range(max_len):
        for i in range(n):
            for mw in itertools.product(range(p), repeat=k):
                word = (("a", i),) + tuple(("m", t) for t in mw)
                yield word, _word_operator(pair, word)



# ---- per-pair checkers and the vector closure, kept as oracles ---------

from ncwb.connections import _mismatch, _pair_matches  # noqa: E402


def check_algebra_by_pairs(a) -> CheckReport:
    """check_algebra one basis pair at a time: L_{e_i e_j} against
    L_i L_j, a linear combination and a product per pair."""
    rep = CheckReport("algebra")
    n = a.dim
    names = a.basis_names
    for i in range(n):
        for j in range(n):
            lhs = a.left_mult_matrix(a.sc[i][j])
            rhs = a.lmul[i] @ a.lmul[j]
            for k in [] if lhs == rhs else (lhs - rhs).nonzero_cols():
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


def check_bimodule_by_pairs(m) -> CheckReport:
    """check_bimodule one basis pair at a time: two linear combinations
    and four products per pair, the three laws interleaved by (i, j)."""
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


def check_leibniz_by_pairs(c) -> CheckReport:
    """check_leibniz one basis pair at a time, three applies per pair."""
    rep = CheckReport("calculus")
    a = c.algebra
    names = ["m%d" % r for r in range(c.bimodule.dim)]
    dcols = cols(c.d)
    for i in range(a.dim):
        di = dcols[i]
        for j in range(a.dim):
            lhs = c.d.apply(a.sc[i][j])
            rhs = tuple(x + y for x, y in zip(
                c.bimodule.right[j].apply(di),
                c.bimodule.left[i].apply(dcols[j])))
            if lhs != rhs:
                rep.add("leibniz", (i, j), "d(%s*%s) defect %s" % (
                    a.basis_names[i], a.basis_names[j],
                    format_element(names, [x - y for x, y in zip(lhs, rhs)])))
    return rep


def check_cartan_by_pairs(p) -> CheckReport:
    """check_cartan one (e_i, X_t) at a time: a linear combination and a
    product per pair for each law."""
    rep = CheckReport("cartan pair")
    a = p.algebra
    nb = p.bimodule
    n, m = a.dim, nb.dim
    for i in range(n):
        for t in range(m):
            if p.action_of(nb.left[i].col(t)) != a.lmul[i] @ p.action[t]:
                rep.add("action-linearity", (i, t),
                        "(%s.X_%d) acts wrong" % (a.basis_names[i], t))
    # X_t(e_i e_j) = X_t(e_i) e_j + (X_t.e_i)(e_j) for all j at once: the
    # columns of X_t L_i and of L_{X_t(e_i)} + action_of(X_t.e_i)
    for t in range(m):
        at = p.action[t]
        for i in range(n):
            lhs = at @ a.lmul[i]
            rhs = a.left_mult_matrix(at.col(i)) \
                + p.action_of(nb.right[i].col(t))
            if lhs == rhs:
                continue
            defect = lhs - rhs
            for j in defect.nonzero_cols():
                rep.add("twisted-leibniz", (t, i, j),
                        "X_%d(%s*%s) defect %s" % (
                            t, a.basis_names[i], a.basis_names[j],
                            a.format(defect.col(j))))
    for t in range(m):
        if not is_zero_vector(p.action[t].apply(a.unit)):
            rep.add("unit-annihilation", (t,),
                    "X_%d(1) = %s" % (t, a.format(p.action[t].apply(a.unit))))
    return rep


def check_ccr_by_pairs(pair) -> CheckReport:
    """check_ccr one (e_i, X_t) at a time: two products and a linear
    combination per pair."""
    rep = CheckReport("canonical commutation")
    a = pair.algebra
    nb = pair.bimodule
    for i in range(a.dim):
        for t in range(nb.dim):
            if nb.left[i].col(t) != nb.right[i].col(t):
                rep.add("centrality", (i, t),
                        "%s.X%d != X%d.%s" % (a.basis_names[i], t, t,
                                              a.basis_names[i]))
            comm = pair.action[t] @ a.lmul[i] - a.lmul[i] @ pair.action[t]
            expect = a.left_mult_matrix(pair.action[t].col(i))
            if comm != expect:
                defect = comm - expect
                wit = defect.nonzero_cols()[0]
                rep.add("commutator", (i, t),
                        "([X%d, l(%s)] - l(X%d(%s)))(%s) = %s" % (
                            t, a.basis_names[i], t, a.basis_names[i],
                            a.basis_names[wit],
                            a.format(defect.col(wit))))
    return rep


def check_covariant_axioms_by_pairs(conn, pair) -> CheckReport:
    """check_covariant_axioms one (X_t, e_i) at a time, with nabla_{f.X}
    and nabla_{X.f} as linear combinations of the nabla_{X_t}."""
    if not _pair_matches(conn, pair):
        raise ValueError("pair is not derived from the connection's calculus")
    rep = CheckReport("covariant axioms")
    a = conn.calculus.algebra
    e = conn.module
    nb = pair.bimodule
    derivs = [covariant_derivative(conn, pair,
                                   tuple(1 if s == t else 0
                                         for s in range(nb.dim)))
              for t in range(nb.dim)]

    def nabla(xcoords):
        return linear_combination(xcoords, derivs, e.dim, e.dim)

    for t, dx in enumerate(derivs):
        for i in range(a.dim):
            f = a.basis_names[i]
            dfx = nabla(nb.left[i].col(t))
            scaled = e.left[i] @ dx
            if dfx != scaled:
                for a2 in (dfx - scaled).nonzero_cols():
                    rep.add("action-linearity", (i, t, a2),
                            "nabla_(%s.X_%d)(xi_%d) != %s.nabla_X_%d(xi_%d) "
                            "at module coordinates %s"
                            % (f, t, a2, f, t, a2,
                               _mismatch(dfx.col(a2), scaled.col(a2))))
            shifted = dx @ e.left[i]
            rhs = e.left_of(pair.action[t].col(i)) + nabla(nb.right[i].col(t))
            if shifted != rhs:
                for a2 in (shifted - rhs).nonzero_cols():
                    rep.add("twisted-leibniz", (t, i, a2),
                            "nabla_X_%d(%s.xi_%d) != X_%d(%s).xi_%d + "
                            "nabla_(X_%d.%s)(xi_%d) at module coordinates %s"
                            % (t, f, a2, t, f, a2, t, f, a2,
                               _mismatch(shifted.col(a2), rhs.col(a2))))
    return rep


def closure_by_vectors(seed, maps, ambient_dim: int) -> Subspace:
    """closure_under_maps by a worklist of single vectors: each vector that
    grows the span is mapped once by each map, a callable from vectors to
    vectors."""
    ech = Echelon(ambient_dim)
    work = [v for v in seed if ech.insert(v)]
    while work:
        g = work.pop()
        for m in maps:
            img = m(g)
            if ech.insert(img):
                work.append(img)
    return ech.subspace()


# ---- the workspace writer, which only the tests use ---------------------

from ncwb.workspace import (  # noqa: E402
    SCHEMA, Workspace, WorkspaceObject, algebra_decl, bimodule_decl,
    calculus_decl, canonical_text, cartan_pair_decl, matrix_rows,
    vector_strings,
)


def cols(m: Matrix) -> list:
    """The columns of m, each a tuple of Fractions."""
    return list(m.transpose().rows)


def connection_decl(conn, calculus_ref: str) -> dict:
    """Declaration of a connection on a free module of rank dim E / dim A."""
    rank_, rem = divmod(conn.module.dim, conn.calculus.algebra.dim)
    if rem:
        raise ValueError("only connections on free modules are serialized")
    return {
        "kind": "connection",
        "calculus": calculus_ref,
        "rank": rank_,
        "matrix": matrix_rows(conn.matrix),
    }


def declared_names(ws: Workspace) -> list:
    """The names the workspace file declares, in load order, without the
    dotted children of its builtins: a declared name holds no dot."""
    return [n for n in ws.objects if "." not in n]


def builtin_decl(bundle, params=()) -> dict:
    out = {"kind": "builtin", "builtin": bundle.name}
    if params:
        out["params"] = vector_strings(params)
    return out


def _decl_for(wo: WorkspaceObject, refs: dict) -> dict:
    """Declaration of one object; refs maps object identities to names."""
    if wo.kind == "builtin":
        return builtin_decl(wo.obj, wo.params)
    if wo.kind == "algebra":
        return algebra_decl(wo.obj)
    if wo.kind == "bimodule":
        return bimodule_decl(wo.obj, refs[id(wo.obj.algebra)])
    if wo.kind == "calculus":
        return calculus_decl(wo.obj, refs[id(wo.obj.algebra)],
                             refs[id(wo.obj.bimodule)])
    if wo.kind == "cartan_pair":
        return cartan_pair_decl(wo.obj, refs[id(wo.obj.algebra)],
                                refs[id(wo.obj.bimodule)])
    if wo.kind != "connection":
        raise ValueError("no declaration for an object of kind %r"
                         % (wo.kind,))
    return connection_decl(wo.obj, refs[id(wo.obj.calculus)])


def export_workspace(ws: Workspace) -> str:
    """The canonical text of a workspace file declaring the same objects
    under the same names; each reference names the first object loaded
    with that identity."""
    refs = {}
    for name, wo in ws.objects.items():
        refs.setdefault(id(wo.obj), name)
    doc = {"schema": SCHEMA, "objects": {}}
    for name in sorted(declared_names(ws)):
        doc["objects"][name] = _decl_for(ws.objects[name], refs)
    return canonical_text(doc)


# ---- builtins at their defaults -----------------------------------------

from ncwb.catalog import BUILTIN_NAMES, builtin  # noqa: E402


def all_builtins() -> list:
    """Every builtin at default parameters."""
    return [builtin(name) for name in BUILTIN_NAMES]


# ---- the argparse command line, as an oracle for the table parser -------

import argparse  # noqa: E402

from ncwb.cli import (  # noqa: E402
    _DERIVE, cmd_builtin, cmd_check, cmd_derive, cmd_report,
)


def oracle_parser() -> argparse.ArgumentParser:
    """The argparse parser ncwb's command line was read with before its
    table parser, kept as that parser's oracle."""
    p = argparse.ArgumentParser(
        prog="ncwb",
        description="Exact checks and derivations for algebras, calculi, "
                    "vector-field pairs, operator algebras and connections.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run axiom checkers over a workspace")
    c.add_argument("file")
    c.add_argument("name", nargs="?", default=None)
    c.set_defaults(func=cmd_check)

    d = sub.add_parser("derive", help="compute a derived object")
    d.add_argument("file")
    d.add_argument("name")
    d.add_argument("what", choices=tuple(_DERIVE))
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_derive)

    r = sub.add_parser("report", help="full pipeline report")
    r.add_argument("file")
    r.add_argument("--format", choices=("text", "json"), default="text")
    r.set_defaults(func=cmd_report)

    b = sub.add_parser("builtin", help="export a builtin bundle")
    b.add_argument("bundle")
    b.add_argument("params", nargs="*")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=cmd_builtin)
    return p
