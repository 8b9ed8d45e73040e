"""Left connections on a module, with respect to a differential calculus.

A connection sends the module E into the balanced tensor product M (x)_A E
and obeys the Leibniz rule nabla(f.xi) = f.nabla(xi) + df (x) xi.  Pairing
the M leg against a right dual vector field turns nabla into a covariant
derivative, one endomorphism of E per field; the two covariant-derivative
laws checked here are the Cartan pair laws carried from A to E, read from
the same identities as check_cartan's (cartan.pair_law_sides).

Contraction against the M leg is well defined on the balanced quotient
because right dual elements are right module maps; the construction still
checks that fact on the relation subspace and raises InvariantError if it
fails.
"""

from __future__ import annotations

from typing import Optional

from .linalg import (
    Matrix, Subspace, affine_solutions, block_combination, hstack,
    intertwiner_rows, kernel, kron,
)
from .algebra import (
    DualBimodule, LeftModule, TensorProductOverA, block_sum, invariant_blocks,
    restrict, tensor_over_A,
)
from .calculus import DifferentialCalculus
from .cartan import CartanPair, pair_law_sides
from .reporting import CheckReport, InvariantError, format_rational


class Connection:
    """A linear map E -> M (x)_A E in tensor-quotient coordinates."""

    def __init__(self, calculus: DifferentialCalculus, module: LeftModule,
                 tensor: TensorProductOverA, matrix: Matrix):
        if module.algebra is not calculus.algebra:
            raise ValueError("the module is not over the calculus' algebra")
        mfac, efac = tensor.factors
        if mfac is not calculus.bimodule or efac is not module:
            raise ValueError("the tensor product is not M (x)_A E for the "
                             "calculus' one-forms M and the module E")
        if (matrix.nrows, matrix.ncols) != (tensor.module.dim, module.dim):
            raise ValueError("a connection matrix must be %dx%d, not %dx%d"
                             % (tensor.module.dim, module.dim, matrix.nrows,
                                matrix.ncols))
        self.calculus = calculus
        self.module = module
        self.tensor = tensor
        self.matrix = matrix

    def __repr__(self):
        return "Connection(E dim %d, target dim %d)" % (
            self.module.dim, self.tensor.module.dim)


def contraction_matrix(dual: DualBimodule, t: TensorProductOverA,
                       xcoords) -> Matrix:
    """The map <X, .>.(.) : M (x)_A E -> E in quotient coordinates.

    On a simple tensor m (x) xi this is <X, m>.xi.  The ambient version
    must kill every balancing relation, which comes down to X being a
    right module map; checked below rather than trusted.
    """
    m, e = t.factors
    if not (isinstance(dual, DualBimodule) and dual.side == "right"
            and dual.base is m):
        raise ValueError("contraction needs the right dual of the tensor "
                         "product's first factor")
    ev = dual.eval_of(xcoords)
    # column (s, a2) is <X, m_s>.xi_a2: block s is the action of <X, m_s>
    ambient = hstack([e.left_of(ev.col(s)) for s in range(m.dim)], e.dim)
    if not (ambient @ t.relations.matrix.transpose()).is_zero():
        raise InvariantError("contraction is not balanced")
    return ambient @ t.lift


def _d_tensor(c: DifferentialCalculus, t: TensorProductOverA) -> list:
    """For each basis vector e_i, the map xi -> d(e_i) (x) xi into the
    quotient coordinates of t: the projection times d(e_i) (x) I_E, from
    block_combination."""
    return [block_combination(t.projection, di, t.factors[1].dim)
            for di in c.d.transpose().row_matrices(c.bimodule.dim, 1)]


def _mismatch(lhs, rhs) -> str:
    """The coordinates where two vectors differ, as 'k: lhs vs rhs'."""
    return ", ".join("%d: %s vs %s" % (k, format_rational(x),
                                       format_rational(y))
                     for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)


def check_connection(conn: Connection) -> CheckReport:
    """Leibniz law nabla(f.xi) = f.nabla(xi) + df (x) xi on all basis
    pairs."""
    rep = CheckReport("connection")
    a = conn.calculus.algebra
    e = conn.module
    tmod = conn.tensor.module
    for i, extra in enumerate(_d_tensor(conn.calculus, conn.tensor)):
        f = a.basis_names[i]
        shifted = conn.matrix @ e.left[i]
        # column t of extra is d(f) (x) xi_t
        scaled = tmod.left[i] @ conn.matrix + extra
        if shifted == scaled:
            continue
        for t in (shifted - scaled).nonzero_cols():
            rep.add("connection-leibniz", (i, t),
                    "nabla(%s.xi_%d) != %s.nabla(xi_%d) + d(%s) (x) xi_%d"
                    " at tensor coordinates %s"
                    % (f, t, f, t, f, t,
                       _mismatch(shifted.col(t), scaled.col(t))))
    return rep


def _pair_matches(conn: Connection, pair: CartanPair) -> bool:
    if pair.source_calculus is conn.calculus:
        return True
    c = pair.source_calculus
    return c is not None and c.algebra is conn.calculus.algebra \
        and c.bimodule is conn.calculus.bimodule \
        and c.d == conn.calculus.d


def covariant_derivative(conn: Connection, pair: CartanPair,
                         xcoords) -> Matrix:
    """The endomorphism of E obtained by pairing X against the M leg of
    nabla."""
    if not _pair_matches(conn, pair):
        raise ValueError("pair is not derived from the connection's calculus")
    return contraction_matrix(pair.bimodule, conn.tensor,
                              xcoords) @ conn.matrix


def check_covariant_axioms(conn: Connection, pair: CartanPair) -> CheckReport:
    """The covariant derivative versions of the pair laws, on all basis
    triples: direction linearity nabla_{f.X} = f.nabla_X and the twisted
    Leibniz rule nabla_X(f.xi) = X(f).xi + nabla_{X.f}(xi).

    X -> nabla_X is linear, so it is built once per basis field.  The two
    laws are the identities of check_cartan with the derivatives
    nabla_{X_t} in place of the fields and the left actions of the module
    in place of the multiplications, one per basis vector e_i
    (cartan.pair_law_sides).  The findings are listed by field t, then
    e_i, linearity first, then module basis vector."""
    if not _pair_matches(conn, pair):
        raise ValueError("pair is not derived from the connection's calculus")
    rep = CheckReport("covariant axioms")
    a = conn.calculus.algebra
    e = conn.module
    m, ed = pair.bimodule.dim, e.dim
    derivs = [covariant_derivative(conn, pair,
                                   tuple(1 if s == t else 0
                                         for s in range(m)))
              for t in range(m)]
    found = []
    for i, (dfx, scaled, shifted, rhs) in enumerate(
            pair_law_sides(pair, derivs, e.left)):
        f = a.basis_names[i]
        for col in [] if dfx == scaled else (dfx - scaled).nonzero_cols():
            t, a2 = divmod(col, ed)
            found.append(((t, i, 0, a2), "action-linearity", (i, t, a2),
                          "nabla_(%s.X_%d)(xi_%d) != %s.nabla_X_%d(xi_%d) "
                          "at module coordinates %s"
                          % (f, t, a2, f, t, a2,
                             _mismatch(dfx.col(col), scaled.col(col)))))
        for col in [] if shifted == rhs else (shifted - rhs).nonzero_cols():
            t, a2 = divmod(col, ed)
            found.append(((t, i, 1, a2), "twisted-leibniz", (t, i, a2),
                          "nabla_X_%d(%s.xi_%d) != X_%d(%s).xi_%d + "
                          "nabla_(X_%d.%s)(xi_%d) at module coordinates %s"
                          % (t, f, a2, t, f, a2, t, f, a2,
                             _mismatch(shifted.col(col), rhs.col(col)))))
    for _, law, witness, detail in sorted(found):
        rep.add(law, witness, detail)
    return rep


def trivial_connection(c: DifferentialCalculus, rank_: int = 1) -> Connection:
    """On the free module A^r: nabla(f.e_a) = df (x) e_a."""
    if rank_ < 0:
        raise ValueError("rank must be nonnegative, not %d" % rank_)
    a = c.algebra
    e = LeftModule.free(a, rank_)
    t = tensor_over_A(c.bimodule, e)
    # column blk of kron(I_r, u) is the unit in block blk; column i of
    # the projection of kron(d, g) is df (x) g for f = e_i
    gens = kron(Matrix.identity(rank_), Matrix.from_cols([a.unit], a.dim))
    mat = hstack([t.projection @ kron(c.d, g)
                  for g in gens.transpose().row_matrices(e.dim, 1)],
                 t.module.dim)
    return Connection(c, e, t, mat)


class ConnectionSpace:
    """Affine solution set of the connection Leibniz constraint."""

    def __init__(self, tensor: TensorProductOverA, exists: bool,
                 particular: Optional[Connection], homogeneous: Subspace):
        self.tensor, self.exists, self.particular = tensor, exists, particular
        self.homogeneous = homogeneous   # flattened maps E -> M (x)_A E


def connection_space(c: DifferentialCalculus, e: LeftModule) -> ConnectionSpace:
    """Solve the Leibniz constraint for all maps E -> M (x)_A E.

    The unknown matrix X (q x e.dim, q the dimension of T = M (x)_A E)
    enters linearly once the df (x) xi term B_i is moved to the right hand
    side: X L^E_i - L^T_i X = B_i for every basis vector e_i.  The
    homogeneous solutions are exactly the left module maps.

    L^E and L^T are block diagonal over their invariant blocks, so the
    system splits into one independent system per (T-block, E-block)
    pair, in the entries of X on those rows and columns: the reduced
    echelon basis of its null space is the union of the pairs' bases
    (block_sum), and the "free variables zero" solution is the pairs'
    solutions side by side; it exists when every pair is consistent.  A
    pair's null space depends only on its restricted modules, so it is
    computed once per distinct pair of them and shared across right hand
    sides, and a zero right hand side has the particular solution 0: on
    A^r, r^2 pairs cost one elimination of the rank-one system.
    """
    t = tensor_over_A(c.bimodule, e)
    tl = t.module.left
    q, ed = t.module.dim, e.dim
    extras = _d_tensor(c, t)
    eblocks = [(alpha, tuple(restrict(lm, alpha) for lm in e.left))
               for alpha in invariant_blocks(e.left, ed)]
    systems, homogeneous, solved = {}, {}, {}
    parts, sol = [], [0] * (q * ed)
    for beta in invariant_blocks(tl, q):
        tb = tuple(restrict(lm, beta) for lm in tl)
        for alpha, ea in eblocks:
            key = (tb, ea)
            if key not in systems:
                rows = []
                for ai, ti in zip(ea, tb):
                    rows.extend(intertwiner_rows(ai, ti))
                systems[key] = Matrix.from_int_rows(rows,
                                                    len(beta) * len(alpha))
            # local (r, s) of the pair is X[beta[r]][alpha[s]]
            coords = [r * ed + s for r in beta for s in alpha]
            parts.append((key, coords))
            rhs = tuple(restrict(b, beta, alpha) for b in extras)
            if all(b.is_zero() for b in rhs):
                continue
            if (key, rhs) not in solved:
                solved[key, rhs], homogeneous[key] = affine_solutions(
                    systems[key], [v for b in rhs for v in b.flatten()])
            x = solved[key, rhs]
            if x is None:
                sol = None
            elif sol is not None:
                for k, v in zip(coords, x):
                    sol[k] = v
    for key, m in systems.items():
        if key not in homogeneous:
            homogeneous[key] = kernel(m)
    homog = block_sum(q * ed, [(homogeneous[key], coords)
                               for key, coords in parts])
    if sol is None:
        return ConnectionSpace(t, False, None, homog)
    part = Connection(c, e, t, Matrix.from_flat(sol, q, ed))
    return ConnectionSpace(t, True, part, homog)
