"""Exact linear algebra over the rationals, stored densely.

The scalar type is fractions.Fraction throughout; nothing here ever rounds.
Vectors are tuples of Fractions, matrices are immutable row-major tuples of
such tuples.  Storage is dense, but the work is not, and it is done on
integers: Matrix.int_rows is the matrix as a common denominator over the
sparse integer numerators of each row, computed on first use and kept (a
Matrix never changes).  @, Matrix.apply and linear_combination accumulate
Python ints over those rows, after scaling a vector or the coefficients to
integers once, and build one Fraction per non-zero output entry; zeros are
the shared ZERO.  Subspace.coords reads the coefficients at the pivots and
tests membership by an integer residual over the basis held the same way.

Each idea has one routine: linear_combination sums scaled matrices,
intertwiner_rows writes out the system X A = B X without kron,
affine_solutions reads a particular solution from one elimination of
(m | b) and the canonical null space from a re-reduction of its r reduced
rows with the column order reversed, so the null-space vectors are never
eliminated (kernel and solve are its two halves; null_rules is that
re-reduction, giving each basis vector by its non-zero entries, and
Subspace.from_rules writes them out densely),
closure_under_maps closes a span under linear maps, and every row
reduction goes through Echelon.  Echelon holds sparse primitive integer
rows with a positive pivot and keeps them fully reduced after every
insert, so an insert touches only the stored rows at the pivots the new
row holds, each at its pivot and its non-pivot columns, and no backward
pass is left for the read: frac_rows divides each row by its pivot.

Every subspace is stored in fully reduced row echelon form, so two subspaces
are equal exactly when their stored bases are equal componentwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence

Vector = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce int, Fraction or a string like '2/3' to Fraction.  Floats are
    rejected: they have no business in an exact computation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("not an exact scalar: %r" % (x,))


def vector(xs) -> Vector:
    return tuple(frac(x) for x in xs)


def _exact(xs):
    """xs as a tuple or list of ints and Fractions, unchanged when it is one
    already; otherwise through vector (strings are parsed, floats raise
    TypeError)."""
    if not isinstance(xs, (tuple, list)):
        xs = tuple(xs)
    if all(map(isinstance, xs, repeat((int, Fraction)))):
        return xs
    return vector(xs)


def _common_denominator(xs) -> int:
    """lcm of the denominators of ints and Fractions."""
    den = 1
    for x in xs:
        d = x.denominator
        if den % d:
            den = den * d // math.gcd(den, d)
    return den


def _int_vector(xs) -> tuple:
    """(den, nums) with xs[k] == nums[k] / den, den the lcm of the
    denominators of the exact entries of xs."""
    xs = _exact(xs)
    den = _common_denominator(xs)
    if den == 1:
        return 1, [x.numerator for x in xs]
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _fractions(nums, den: int) -> Vector:
    """The Fractions nums[k] / den, zeros as the shared ZERO."""
    if den == 1:
        return tuple(Fraction(v) if v else ZERO for v in nums)
    return tuple(Fraction(v, den) if v else ZERO for v in nums)


def _sparse_int_rows(rows) -> tuple:
    """(den, rows) for rows of ints and Fractions: rows[r] holds (j, num)
    for each non-zero entry of row r, as an integer numerator over the
    common denominator den."""
    den = _common_denominator(x for r in rows for x in r)
    return den, tuple(tuple((j, x.numerator * (den // x.denominator))
                            for j, x in enumerate(r) if x) for r in rows)


def vzero(n: int) -> Vector:
    return (ZERO,) * n


def vadd(u, v) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v) -> Vector:
    c = frac(c)
    return tuple(c * a for a in v)


def is_zero_vector(v) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable exact matrix.  rows is a tuple of equal-length tuples."""

    __slots__ = ("rows", "nrows", "ncols", "_int_rows")

    def __init__(self, rows, ncols: Optional[int] = None):
        rows = tuple(tuple(frac(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            for i, r in enumerate(rows):
                if len(r) != w:
                    raise ValueError("ragged matrix: row 0 has %d entries, "
                                     "row %d has %d" % (w, i, len(r)))
            if ncols is not None and ncols != w:
                raise ValueError("rows of %d entries, but ncols=%d"
                                 % (w, ncols))
        else:
            if ncols is None:
                raise ValueError("an empty matrix needs an explicit ncols")
            w = ncols
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", w)
        object.__setattr__(self, "_int_rows", None)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                         for i in range(n)), ncols=n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(((ZERO,) * ncols,) * nrows, ncols=ncols)

    @classmethod
    def from_cols(cls, cols: Sequence[Vector], nrows: Optional[int] = None) -> "Matrix":
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("an empty column list needs an explicit "
                                 "nrows")
            nrows = len(cols[0])
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise ValueError("column %d has %d entries, expected %d"
                                 % (j, len(c), nrows))
        return cls(tuple(tuple(c[i] for c in cols) for i in range(nrows)),
                   ncols=len(cols))

    @classmethod
    def from_flat(cls, flat: Sequence, nrows: int, ncols: int) -> "Matrix":
        flat = list(flat)
        if len(flat) != nrows * ncols:
            raise ValueError("%d entries do not fill a %dx%d matrix"
                             % (len(flat), nrows, ncols))
        return cls(tuple(tuple(flat[i * ncols:(i + 1) * ncols])
                         for i in range(nrows)), ncols=ncols)

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def flatten(self) -> Vector:
        return tuple(x for r in self.rows for x in r)

    def int_rows(self) -> tuple:
        """(den, rows): rows[r] lists (j, num) for the non-zero entries of
        row r, each equal to num / den, where den is the lcm of all the
        denominators.  Built on first use and kept."""
        cached = self._int_rows
        if cached is None:
            cached = _sparse_int_rows(self.rows)
            object.__setattr__(self, "_int_rows", cached)
        return cached

    def apply(self, v: Sequence) -> Vector:
        """self v, accumulated in integers over the non-zero entries of
        self, with v scaled to integers once."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch: %s applied to a vector of "
                             "length %d" % (self, len(v)))
        dm, rows = self.int_rows()
        dv, iv = _int_vector(v)
        out = []
        for r in rows:
            s = 0
            for j, x in r:
                s += x * iv[j]
            out.append(s)
        return _fractions(out, dm * dv)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product accumulated in integers over the non-zero entries of
        both factors' int_rows.

        The work is proportional to the products of non-zero pairs, which
        pays off on 0/1 structure constants and sparse kernel vectors, and
        each output entry becomes one Fraction.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %s @ %s" % (self, other))
        da, arows = self.int_rows()
        db, brows = other.int_rows()
        den, w = da * db, other.ncols
        out = []
        for r in arows:
            acc = [0] * w
            for k, x in r:
                for j, y in brows[k]:
                    acc[j] += x * y
            out.append(_fractions(acc, den))
        return Matrix(out, ncols=w)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch: %s + %s" % (self, other))
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s))
                            for r, s in zip(self.rows, other.rows)),
                      ncols=self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(tuple(tuple(c * x for x in r) for r in self.rows),
                      ncols=self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix.from_cols(list(self.rows), nrows=self.ncols)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.ncols == other.ncols \
            and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.nrows, self.ncols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i,k),(j,l) -> (i*b.nrows+k, j*b.ncols+l).

    Nothing in the package calls it: intertwiner_rows, tensor_over_A and
    LeftModule.free write their block structure out directly.  It is kept
    for the test oracles and as a trace target of the benchmark.
    """
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            rows.append(tuple(x * y for x in ra for y in rb))
    return Matrix(tuple(rows), ncols=a.ncols * b.ncols)


def linear_combination(coeffs, terms: Iterable[Matrix], nrows: int,
                       ncols: int) -> Matrix:
    """sum_k coeffs[k] * terms[k], an nrows x ncols matrix.

    The empty sum is the zero matrix.  Terms with a zero coefficient are
    never read; the others are accumulated in integers over the lcm of
    coefficient times term denominators, non-zero entries only.
    """
    picked = [(c, t.int_rows()) for c, t in zip(_exact(coeffs), terms) if c]
    den = math.lcm(*(c.denominator * td for c, (td, _) in picked))
    acc = [[0] * ncols for _ in range(nrows)]
    for c, (td, trows) in picked:
        f = c.numerator * (den // (c.denominator * td))
        for arow, trow in zip(acc, trows):
            for j, x in trow:
                arow[j] += f * x
    return Matrix([_fractions(r, den) for r in acc], ncols=ncols)


def intertwiner_rows(a: Matrix, b: Matrix) -> list:
    """Rows of the linear system X a - b X = 0 for an unknown p x q matrix
    X, where a is q x q and b is p x p.

    X is flattened row-major (X[r][s] at r*q + s), so these are the rows
    of kron(I_p, a^T) - kron(b, I_q) in order, built without forming
    either product: row (r, s) holds a's column s in block r and -b[r][t]
    at t*q + s.
    """
    q, p = a.ncols, b.nrows
    a_cols = a.cols()
    rows = []
    for r, brow in enumerate(b.rows):
        for s in range(q):
            row = [ZERO] * (p * q)
            row[r * q:(r + 1) * q] = a_cols[s]
            for t, x in enumerate(brow):
                if x:
                    row[t * q + s] -= x
            rows.append(row)
    return rows


def _primitive(row: dict, lead: int) -> dict:
    """row divided by the gcd of its entries, signed so that its entry at
    column lead is positive."""
    g = 0
    for x in row.values():
        g = math.gcd(g, x)
    if row[lead] < 0:
        g = -g
    if g == 1:
        return row
    return {j: x // g for j, x in row.items()}


class Echelon:
    """Incremental integer reduced row echelon of a span in Q^width.

    A row is a dict from column to non-zero int.  Every stored row is
    primitive, has a positive entry at its pivot (its first column) and is
    zero at every other pivot, after every insert: it is the primitive
    integer multiple of its row of the reduced echelon form, so the stored
    rows do not depend on the order of the inserts.  A new row is reduced
    at the pivots it holds only, each stored row costing at most
    1 + width - dim entries, and its new pivot is then cleared from the
    stored rows that hold it.
    """

    def __init__(self, width: int, rows: Iterable = ()):
        self.width = width
        self._rows: dict = {}     # pivot column -> row
        for r in rows:
            self.insert(r)

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list:
        return sorted(self._rows)

    @property
    def rows(self) -> list:
        """The stored rows in increasing pivot order."""
        return [self._rows[pc] for pc in sorted(self._rows)]

    def insert(self, v) -> bool:
        """Add a vector (any entries vector() takes) to the span; True if
        the dimension grew."""
        v = _exact(v)
        if len(v) != self.width:
            raise ValueError("a vector of length %d inserted into an echelon "
                             "of width %d" % (len(v), self.width))
        return self.insert_int(
            {j: x for j, x in enumerate(_int_vector(v)[1]) if x})

    def insert_int(self, row: dict) -> bool:
        """insert for a row given as {column: int}, columns below width."""
        stored = self._rows
        hits = [(pc, c) for pc, c in row.items() if c and pc in stored]
        if hits:
            # the stored rows are zero at each other's pivots, so the
            # reductions at the hit pivots are independent: subtract
            # c / p times each stored row from the row scaled by the lcm
            # of the p / gcd(p, c)
            scale = 1
            for pc, c in hits:
                p = stored[pc][pc]
                scale = math.lcm(scale, p // math.gcd(p, c))
            acc = {j: scale * x for j, x in row.items()}
            for pc, c in hits:
                prow = stored[pc]
                m = scale * c // prow[pc]
                for j, b in prow.items():
                    acc[j] = acc.get(j, 0) - m * b
            row = acc
        row = {j: x for j, x in row.items() if x}
        if not row:
            return False
        piv = min(row)
        row = _primitive(row, piv)
        p = row[piv]
        for pc, r in list(stored.items()):
            c = r.get(piv)
            if c:
                g = math.gcd(p, c)
                f, m = p // g, c // g
                acc = {j: f * x for j, x in r.items()}
                for j, b in row.items():
                    acc[j] = acc.get(j, 0) - m * b
                stored[pc] = _primitive({j: x for j, x in acc.items() if x},
                                        pc)
        stored[piv] = row
        return True

    def frac_rows(self) -> tuple:
        """Canonical basis: the reduced rows scaled to pivot 1.

        Zero entries all share ZERO, which keeps mostly-zero bases (kernels,
        duals) small for as long as they are held.
        """
        out = []
        for pc in sorted(self._rows):
            row = self._rows[pc]
            p = row[pc]
            v = [ZERO] * self.width
            for j, x in row.items():
                v[j] = Fraction(x, p)
            out.append(tuple(v))
        return tuple(out)

    def subspace(self) -> "Subspace":
        return Subspace(self.width, self.frac_rows(), self.pivots)


class Subspace:
    """A subspace of Q^n held by its reduced-echelon basis (canonical)."""

    __slots__ = ("ambient_dim", "basis", "pivots", "_int_basis")

    def __init__(self, ambient_dim: int, basis, pivots):
        self.ambient_dim = ambient_dim
        self.basis = tuple(map(tuple, basis))
        self.pivots = tuple(pivots)
        self._int_basis = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        return Echelon(ambient_dim, vectors).subspace()

    @classmethod
    def from_rules(cls, ambient_dim: int, rules) -> "Subspace":
        """The subspace whose canonical basis null_rules gives sparsely:
        the vector of rule (f, ((q, c), ...)) is e_f + sum c e_q."""
        basis = []
        for f, terms in rules:
            v = [ZERO] * ambient_dim
            v[f] = ONE
            for q, c in terms:
                v[q] = c
            basis.append(tuple(v))
        return cls(ambient_dim, basis, [f for f, _ in rules])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim).rows,
                   range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, v) -> bool:
        return self.coords(v) is not None

    def coords(self, v) -> Optional[list]:
        """Coefficients over self.basis, or None if v lies outside.

        The basis is reduced, so the coefficients are v at the pivots, and
        v lies in the span exactly when it equals their combination of the
        basis; that residual is formed in integers.
        """
        v = _exact(v)
        if len(v) != self.ambient_dim:
            raise ValueError("shape mismatch: a vector of length %d against "
                             "%s" % (len(v), self))
        if self._int_basis is None:
            self._int_basis = _sparse_int_rows(self.basis)
        bden, brows = self._int_basis
        _, iv = _int_vector(v)
        res = [bden * x for x in iv]
        for row, pc in zip(brows, self.pivots):
            c = iv[pc]
            if c:
                for j, b in row:
                    res[j] -= c * b
        if any(res):
            return None
        return [frac(v[pc]) for pc in self.pivots]

    def element(self, coeffs) -> Vector:
        v = vzero(self.ambient_dim)
        for c, b in zip(coeffs, self.basis):
            v = vadd(v, vscale(c, b))
        return v

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) \
            and self.ambient_dim == other.ambient_dim \
            and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d in Q^%d)" % (self.dim, self.ambient_dim)


def rank(m: Matrix) -> int:
    return Echelon(m.ncols, m.rows).dim


def affine_solutions(m: Matrix, b) -> tuple:
    """All solutions of m x = b from one elimination of (m | b).

    Returns one exact solution (free variables zero), or None if there is
    none, and the null space {v : m v = 0} with canonical basis.  The rows
    of the reduced (m | b) with a pivot inside m are the reduced m; the
    null space is read off them by null_rules.
    """
    b = vector(b)
    if len(b) != m.nrows:
        raise ValueError("shape mismatch: %d right hand sides for %s"
                         % (len(b), m))
    n = m.ncols
    ech = Echelon(n + 1, (r + (bi,) for r, bi in zip(m.rows, b)))
    rows, pivots = ech.rows, ech.pivots
    if pivots and pivots[-1] == n:
        x = None
        rows = rows[:-1]
    else:
        x = [ZERO] * n
        for row, pc in zip(rows, pivots):
            if n in row:
                x[pc] = Fraction(row[n], row[pc])
        x = tuple(x)
    return x, Subspace.from_rules(n, null_rules(n, rows))


def null_rules(n: int, rows: Sequence) -> tuple:
    """The null space {v in Q^n : r v = 0 for the rows r}, sparse, read off
    integer rows given as {column: int} (only the columns below n count).

    One entry (f, ((q, c), ...)) per free column f, in increasing f, for
    the canonical basis vector e_f + sum c e_q; its q are increasing and
    all greater than f.  Subspace.from_rules writes the vectors out.

    The reduced echelon basis of a null space has its pivots at the
    columns f whose column lies in the span of the columns to their right,
    and the vector for such an f is e_f minus the coordinates of column f
    over the other columns, the "right pivots".  Both come from one
    reduction of the rows with the column order reversed: a reversed
    pivot is a right pivot, and the reduced row of right pivot q holds
    those coordinates at the reversed free columns, all left of q.
    """
    rev = Echelon(n)
    for row in rows:
        rev.insert_int({n - 1 - j: x for j, x in row.items() if j < n})
    right = {n - 1 - pc for pc in rev.pivots}
    free = [f for f in range(n) if f not in right]
    terms = {f: [] for f in free}
    # reversed pivots in decreasing order are right pivots in increasing q
    for row, pc in zip(reversed(rev.rows), reversed(rev.pivots)):
        q, p = n - 1 - pc, row[pc]
        for j, c in row.items():
            if j != pc:
                terms[n - 1 - j].append((q, Fraction(-c, p)))
    return tuple((f, tuple(terms[f])) for f in free)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0} with canonical basis."""
    return affine_solutions(m, vzero(m.nrows))[1]


def solve(m: Matrix, b) -> Optional[Vector]:
    """One exact solution of m x = b (free variables zero), or None."""
    return affine_solutions(m, b)[0]


def restrict_to_kernel(space: Subspace, m: Matrix) -> Subspace:
    """{v in space : m v = 0}."""
    if m.ncols != space.ambient_dim:
        raise ValueError("shape mismatch: %s restricted to the kernel of %s"
                         % (space, m))
    if space.is_zero():
        return space
    imgs = [m.apply(bv) for bv in space.basis]
    coeffs = kernel(Matrix.from_cols(imgs, nrows=m.nrows))
    return Subspace.from_vectors(space.ambient_dim,
                                 [space.element(c) for c in coeffs.basis])


def span_closure(seed: Iterable, step: Callable, ambient_dim: int) -> Subspace:
    """Smallest subspace containing seed and closed under the bilinear step.

    Closure under a bilinear map only needs to be checked on spanning
    vectors, so a worklist over generator pairs terminates once the
    dimension stops growing.  Nothing in the package calls it: it is kept
    as the test oracle for generate_diffop_algebra (the pair-composition
    route) and as a trace target of the benchmark.
    """
    ech = Echelon(ambient_dim)
    gens = []
    work = []
    for v in seed:
        v = vector(v)
        if ech.insert(v):
            gens.append(v)
            work.append(v)
    while work:
        g = work.pop()
        for h in list(gens):
            for prod in (step(g, h), step(h, g)):
                prod = vector(prod)
                if ech.insert(prod):
                    gens.append(prod)
                    work.append(prod)
    return ech.subspace()


def closure_under_maps(seed: Iterable, maps: Sequence[Callable],
                       ambient_dim: int) -> Subspace:
    """Smallest subspace containing seed and stable under the given linear
    maps, each a callable from vectors to vectors.

    Stability under a linear map only needs to be checked on spanning
    vectors, so each vector that grows the span is mapped once by each map.
    """
    ech = Echelon(ambient_dim)
    work = []
    for v in seed:
        v = vector(v)
        if ech.insert(v):
            work.append(v)
    while work:
        g = work.pop()
        for m in maps:
            img = m(g)
            if ech.insert(img):
                work.append(img)
    return ech.subspace()
