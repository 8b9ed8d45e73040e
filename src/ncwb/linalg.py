"""Exact linear algebra over the rationals, stored sparsely in integers.

The scalar type is fractions.Fraction; nothing here ever rounds.  Vectors
are tuples of Fractions.  A Matrix has one stored form, int_rows: a
positive common denominator over the sparse integer numerators of each
row, reduced, so equal matrices are stored identically.  Dense entries are
coerced once, at construction; rows, col, cols and flatten are views
built on request, and flat_int is the sparse flat read that
Echelon.insert_int takes.  One row kernel, _row_products, serves @ and
the block kernels below: Gustavson's row-wise product, each row of Python
ints summed in a dict, sorted at the end, or, when _dense_rows expects
the row to touch at least half its width, in a dense list read in order
(the sparse accumulator of Gilbert, Moler and Schreiber); a block kernel
builds its factor's rows only at the columns its left factor uses.
Matrix.apply and linear_combination accumulate over the stored rows.

Each idea has one routine: linear_combination sums scaled matrices,
block_combination multiplies a row of blocks [B_0 | ... | B_{n-1}] by
c (x) I and blockwise_product by I (x) R, neither forming the factor, so
a law on basis pairs is one identity of stacked matrices per basis
vector, and, as flat(L X R) = flat(X) (L^T (x) R), an action on a space
of matrices is one such product with its basis rows, hstack and column_blocks
stack and cut such rows, Subspace.coords_int, the one coordinate read
(a vector is a one-row matrix), reads and certifies all the rows of a
matrix at once, intertwiner_rows writes out the system X A = B X
without kron, null_rules reads the canonical null space off any rows in
one reduction with the column order reversed (kernel passes it a
matrix's rows as they are), affine_solutions reads a particular solution
from one elimination of (m | b) and hands its reduced rows to
null_rules, closure_under_maps closes a span of matrices under right
factors a level at a time, one product per factor and level, and
every row reduction goes through Echelon, which keeps sparse primitive
integer rows fully reduced after every insert.
A Subspace holds its reduced echelon basis as the rows of a Matrix, so
two subspaces are equal exactly when those matrices are.  The direct-sum
helpers invariant_blocks (the blocks a list of matrices keeps), restrict
(a matrix cut to a block) and block_sum (the blocks' subspaces united) sit
in algebra, next to the tensor product that uses them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from typing import Callable, Iterable, Optional, Sequence

Vector = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce int, Fraction or a string like '2/3' to Fraction.  Floats are
    rejected: they have no business in an exact computation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
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


def _sparse(rows) -> tuple:
    """(den, rows) for rows of exact scalars (anything frac takes): rows[r]
    lists (j, num) for the non-zero entries of row r in increasing j, each
    entry num / den, den the lcm of the denominators."""
    den = 1
    picked = []
    for r in rows:
        s = []
        for j, x in enumerate(r):
            if x.__class__ is int:
                if x:
                    s.append((j, x, 1))
                continue
            if x.__class__ is not Fraction:
                x = frac(x)
            num, d = x.as_integer_ratio()
            if num:
                s.append((j, num, d))
                if d != 1 and den % d:
                    den = den // math.gcd(den, d) * d
        picked.append(s)
    return den, [[(j, num * (den // d)) for j, num, d in s] for s in picked]


def _sparse_vector(v) -> tuple:
    """(den, {j: num}) for the non-zero entries of an exact vector."""
    den, (row,) = _sparse((v,))
    return den, dict(row)


def _dense_rows(arows, brows, width: int) -> bool:
    """Whether _row_products sums the rows of a product a b, or of a block
    product with b the small factor, in a dense list rather than a dict:
    when nnz(a)/rows(a) times nnz(b)/rows(b), the mean number of pairs
    summed into one row, reaches half the output width."""
    return 2 * sum(map(len, arows)) * sum(map(len, brows)) \
        >= width * len(arows) * len(brows)


def _row_products(arows, brows, ncols: int, dense: bool) -> tuple:
    """The rows of a product: row r sums x times brows[k], a sparse row of
    width ncols, over (k, x) in arows[r], in a dict or, if dense, a list,
    so the work is the non-zero pairs, plus the width of a dense row."""
    out = []
    for r in arows:
        if dense:
            acc = [0] * ncols
            for k, x in r:
                for j, y in brows[k]:
                    acc[j] += x * y
            out.append(tuple(compress(enumerate(acc), acc)))
        else:
            acc = {}
            for k, x in r:
                for j, y in brows[k]:
                    acc[j] = acc.get(j, 0) + x * y
            out.append(tuple(sorted(compress(acc.items(), acc.values())))
                       if acc else ())
    return tuple(out)


def is_zero_vector(v) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable exact matrix, stored as int_rows() gives it."""

    __slots__ = ("nrows", "ncols", "_int")

    def __init__(self, rows, ncols: Optional[int] = None):
        rows = [r if isinstance(r, (tuple, list)) else tuple(r) for r in rows]
        if rows:
            w = len(rows[0])
            for i, r in enumerate(rows):
                if len(r) != w:
                    raise ValueError("ragged matrix: row 0 has %d entries, "
                                     "row %d has %d" % (w, i, len(r)))
            if ncols is not None and ncols != w:
                raise ValueError("rows of %d entries, but ncols=%d"
                                 % (w, ncols))
        elif ncols is None:
            raise ValueError("an empty matrix needs an explicit ncols")
        den, ints = _sparse(rows)
        self._store(len(rows), w if rows else ncols, den,
                    tuple(map(tuple, ints)))

    def _store(self, nrows: int, ncols: int, den: int, rows: tuple):
        """Keep sorted non-zero (j, num) rows over den, reduced."""
        g = den
        for r in rows:
            if g == 1:
                break
            g = math.gcd(g, *(x for _, x in r))
        if g != 1:
            den //= g
            rows = tuple(tuple((j, x // g) for j, x in r) for r in rows)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_int", (den, rows))

    @classmethod
    def _of(cls, nrows: int, ncols: int, den: int, rows: tuple) -> "Matrix":
        m = object.__new__(cls)
        m._store(nrows, ncols, den, rows)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_int_rows(cls, rows, ncols: int) -> "Matrix":
        """The matrix whose row r is num / den for rows[r] = (den, row), a
        row given as {j: num} or as (j, num) pairs; zeros are dropped."""
        rows = [(d, r.items() if isinstance(r, dict) else r)
                for d, r in rows]
        den = math.lcm(*(d for d, _ in rows))
        return cls._of(len(rows), ncols, den, tuple(
            tuple(sorted((j, x * (den // d)) for j, x in r if x))
            for d, r in rows))

    @classmethod
    def from_int_cols(cls, cols, nrows: int) -> "Matrix":
        """The matrix whose column j is num / den for cols[j] = (den, col),
        as from_int_rows takes its rows."""
        return cls.from_int_rows(cols, nrows).transpose()

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, 1, tuple(((i, 1),) for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._of(nrows, ncols, 1, ((),) * nrows)

    @classmethod
    def from_cols(cls, cols: Sequence[Vector], nrows: Optional[int] = None) -> "Matrix":
        """The transpose of Matrix(cols, nrows), shapes checked alike."""
        return cls(cols, ncols=nrows).transpose()

    @classmethod
    def from_flat(cls, flat: Sequence, nrows: int, ncols: int) -> "Matrix":
        return cls([tuple(flat)]).row_matrices(nrows, ncols)[0]

    def int_rows(self) -> tuple:
        """(den, rows): rows[r] lists (j, num) for the non-zero entries of
        row r in increasing j, each equal to num / den; den is positive
        and has no common factor with all the numerators."""
        return self._int

    def flat_int(self) -> tuple:
        """(den, {r * ncols + j: num}): the non-zero entries read flat, row
        by row."""
        den, rows = self._int
        w = self.ncols
        return den, {r * w + j: x for r, row in enumerate(rows)
                     for j, x in row}

    def row_matrices(self, nrows: int, ncols: int) -> list:
        """Each row, read as a row-major nrows x ncols matrix: the inverse
        of flat_int."""
        if nrows * ncols != self.ncols:
            raise ValueError("rows of %d entries are not %dx%d matrices"
                             % (self.ncols, nrows, ncols))
        den, rows = self._int
        out = []
        for row in rows:
            split = [[] for _ in range(nrows)]
            for k, x in row:
                i, j = divmod(k, ncols)
                split[i].append((j, x))
            out.append(Matrix._of(nrows, ncols, den,
                                  tuple(map(tuple, split))))
        return out

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of row tuples, zeros the shared ZERO."""
        den, rows = self._int
        out = []
        for row in rows:
            v = [ZERO] * self.ncols
            for j, x in row:
                v[j] = Fraction(x, den)
            out.append(tuple(v))
        return tuple(out)

    def col(self, j: int) -> Vector:
        j = range(self.ncols)[j]
        den, rows = self._int
        return tuple(next((Fraction(x, den) for c, x in r if c == j), ZERO)
                     for r in rows)

    def flatten(self) -> Vector:
        return tuple(x for r in self.rows for x in r)

    def nonzero_cols(self) -> list:
        """The columns holding a non-zero entry, in increasing order."""
        return sorted({j for row in self._int[1] for j, _ in row})

    def apply(self, v: Sequence) -> Vector:
        """self v, accumulated in integers over the non-zero entries of
        self, with v scaled to integers once."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch: %s applied to a vector of "
                             "length %d" % (self, len(v)))
        dv, iv = _sparse_vector(v)
        dm, rows = self._int
        sums = (sum(x * iv[j] for j, x in row if j in iv) for row in rows)
        return tuple(Fraction(s, dm * dv) if s else ZERO for s in sums)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Gustavson's row-wise product, row k of other read at each
        non-zero self[r][k], in integers over the product of the
        denominators."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %s @ %s" % (self, other))
        da, arows = self._int
        db, brows = other._int
        ncols = other.ncols
        return Matrix._of(self.nrows, ncols, da * db, _row_products(
            arows, brows, ncols, _dense_rows(arows, brows, ncols)))

    def _plus(self, other, sign: int) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch: %s and %s" % (self, other))
        return linear_combination((1, sign), (self, other), self.nrows,
                                  self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        den, rows = self._int
        f = c.numerator
        return Matrix._of(self.nrows, self.ncols, den * c.denominator,
                          tuple(tuple((j, f * x) for j, x in r)
                                for r in rows))

    def transpose(self) -> "Matrix":
        den, rows = self._int
        cols = [[] for _ in range(self.ncols)]
        for i, r in enumerate(rows):
            for j, x in r:
                cols[j].append((i, x))
        return Matrix._of(self.ncols, self.nrows, den,
                          tuple(map(tuple, cols)))

    def is_zero(self) -> bool:
        return not any(self._int[1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.nrows == other.nrows \
            and self.ncols == other.ncols and self._int == other._int

    def __hash__(self):
        return hash((self.nrows, self.ncols, self._int))

    def __repr__(self):
        return "Matrix(%dx%d)" % (self.nrows, self.ncols)


def hstack(mats: Sequence[Matrix], nrows: int) -> Matrix:
    """The matrices side by side, each nrows tall: row r is the rows r of
    the matrices, their columns shifted past the matrices before, over the
    lcm of their denominators."""
    for m in mats:
        if m.nrows != nrows:
            raise ValueError("%s beside matrices of %d rows" % (m, nrows))
    den = math.lcm(*(m.int_rows()[0] for m in mats))
    out = [[] for _ in range(nrows)]
    width = 0
    for m in mats:
        d, rows = m.int_rows()
        s = den // d
        for acc, row in zip(out, rows):
            acc.extend((width + j, x * s) for j, x in row)
        width += m.ncols
    return Matrix._of(nrows, width, den, tuple(map(tuple, out)))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i,k),(j,l) -> (i*b.nrows+k, j*b.ncols+l).

    Row-major flattening turns X -> a X b into a product: flat(a X b) =
    flat(X) kron(a^T, b).  A product with I (x) b goes through
    blockwise_product and one with c (x) I through block_combination: the
    row kernel of @, fed the factor's rows at the columns in use only.
    """
    da, arows = a.int_rows()
    db, brows = b.int_rows()
    w = b.ncols
    return Matrix._of(a.nrows * b.nrows, a.ncols * w, da * db, tuple([
        tuple([(j * w + k, x * y) for j, x in ra for k, y in rb])
        for ra in arows for rb in brows]))


def block_combination(m: Matrix, c: Matrix, width: int) -> Matrix:
    """m (c (x) I_width) for m a row of c.nrows blocks, each width
    columns wide: block j of the result is sum_k c[k][j] times block k of
    m.  Column k width + s of m reads row k of c spread to the columns
    j width + s, built only at the columns m uses: no factor is formed."""
    if m.ncols != c.nrows * width:
        raise ValueError("shape mismatch: %s is not a row of %d blocks of "
                         "width %d" % (m, c.nrows, width))
    dm, mrows = m.int_rows()
    dc, crows = c.int_rows()
    ncols = c.ncols * width
    spread = {col: [] for r in mrows for col, _ in r}
    for col, row in spread.items():
        k, s = divmod(col, width)
        for j, y in crows[k]:
            row.append((j * width + s, y))
    return Matrix._of(m.nrows, ncols, dm * dc, _row_products(
        mrows, spread, ncols, _dense_rows(mrows, crows, ncols)))


def blockwise_product(m: Matrix, b: Matrix, count: int) -> Matrix:
    """m (I_count (x) b) for m a row of count blocks, each b.nrows columns
    wide: block j of the result is block j of m times b.  Column k q + s
    of m reads row s of b shifted by k b.ncols, built only at the columns
    m uses: no factor is formed."""
    q, w = b.nrows, b.ncols
    if m.ncols != count * q:
        raise ValueError("shape mismatch: %s is not a row of %d blocks of "
                         "width %d" % (m, count, q))
    dm, mrows = m.int_rows()
    db, brows = b.int_rows()
    ncols = count * w
    shifted = {col: [] for r in mrows for col, _ in r}
    for col, row in shifted.items():
        k, s = divmod(col, q)
        for j, y in brows[s]:
            row.append((k * w + j, y))
    return Matrix._of(m.nrows, ncols, dm * db, _row_products(
        mrows, shifted, ncols, _dense_rows(mrows, brows, ncols)))


def column_blocks(m: Matrix, width: int) -> list:
    """m cut into its blocks of width columns, the inverse of hstack."""
    den, rows = m.int_rows()
    blocks = [[[] for _ in rows] for _ in range(m.ncols // width)]
    for r, row in enumerate(rows):
        for col, x in row:
            k, s = divmod(col, width)
            blocks[k][r].append((s, x))
    return [Matrix._of(m.nrows, width, den, tuple(map(tuple, b)))
            for b in blocks]


def linear_combination(coeffs, terms: Iterable[Matrix], nrows: int,
                       ncols: int) -> Matrix:
    """sum_k coeffs[k] * terms[k], an nrows x ncols matrix.

    The empty sum is the zero matrix, and a coefficient vector whose
    length is not the number of terms raises ValueError.  Terms with a
    zero coefficient are never read; the others are accumulated in
    integers over the lcm of coefficient times term denominators, non-zero
    entries only.
    """
    coeffs = _exact(coeffs)
    if not isinstance(terms, (tuple, list)):
        terms = list(terms)
    if len(coeffs) != len(terms):
        raise ValueError("%d coefficients for %d terms"
                         % (len(coeffs), len(terms)))
    picked = [(c, t.int_rows()) for c, t in zip(coeffs, terms) if c]
    den = math.lcm(*(c.denominator * td for c, (td, _) in picked))
    acc = [{} for _ in range(nrows)]
    for c, (td, trows) in picked:
        f = c.numerator * (den // (c.denominator * td))
        for arow, trow in zip(acc, trows):
            for j, x in trow:
                arow[j] = arow.get(j, 0) + f * x
    return Matrix.from_int_rows([(den, r) for r in acc], ncols)


def intertwiner_rows(a: Matrix, b: Matrix) -> list:
    """Rows of the linear system X a - b X = 0 for an unknown p x q matrix
    X, where a is q x q and b is p x p, as Matrix.from_int_rows takes
    them: (den, {column: num}), den the product of a's and b's.

    X is flattened row-major (X[r][s] at r*q + s), so these are the rows
    of kron(I_p, a^T) - kron(b, I_q) in order, built without forming
    either product: row (r, s) holds a's column s in block r and -b[r][t]
    at t*q + s.
    """
    q = a.ncols
    da, a_cols = a.transpose().int_rows()
    db, brows = b.int_rows()
    rows = []
    for r, brow in enumerate(brows):
        for s in range(q):
            row = {r * q + t: x * db for t, x in a_cols[s]}
            for t, y in brow:
                k = t * q + s
                row[k] = row.get(k, 0) - y * da
            rows.append((da * db, row))
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
        """Add a vector (any entries vector() takes), or a Matrix read flat
        row by row, to the span; True if the dimension grew."""
        if isinstance(v, Matrix):
            if v.nrows * v.ncols != self.width:
                raise ValueError("a %s inserted into an echelon of width %d"
                                 % (v, self.width))
            return self.insert_int(v.flat_int()[1])
        v = _exact(v)
        if len(v) != self.width:
            raise ValueError("a vector of length %d inserted into an echelon "
                             "of width %d" % (len(v), self.width))
        return self.insert_int(_sparse_vector(v)[1])

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

    def subspace(self) -> "Subspace":
        """The span with its canonical basis: the reduced rows scaled to
        pivot 1."""
        pivots = self.pivots
        return Subspace(Matrix.from_int_rows(
            [(self._rows[pc][pc], self._rows[pc]) for pc in pivots],
            self.width), pivots)


class Subspace:
    """A subspace of Q^n held by its reduced-echelon basis (canonical), the
    rows of matrix, with pivots the first column of each."""

    __slots__ = ("matrix", "pivots", "ambient_dim", "dim", "_index")

    def __init__(self, matrix: Matrix, pivots):
        self.matrix = matrix
        self.pivots = tuple(pivots)
        self.ambient_dim, self.dim = matrix.ncols, matrix.nrows
        self._index = {pc: k for k, pc in enumerate(self.pivots)}

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        return Echelon(ambient_dim, vectors).subspace()

    @classmethod
    def from_rules(cls, ambient_dim: int, rules) -> "Subspace":
        """The subspace whose canonical basis null_rules gives sparsely:
        the vector of rule (f, ((q, c), ...)) is e_f + sum c e_q."""
        rows = []
        for f, terms in rules:
            den = math.lcm(*(c.denominator for _, c in terms))
            rows.append((den, ((f, den),) + tuple(
                (q, c.numerator * (den // c.denominator)) for q, c in terms)))
        return cls(Matrix.from_int_rows(rows, ambient_dim),
                   [f for f, _ in rules])

    @property
    def basis(self) -> tuple:
        return self.matrix.rows

    def is_zero(self) -> bool:
        return not self.dim

    def coords_int(self, m: Matrix) -> tuple:
        """The coordinates of all the rows of m at once: (c, None), row r
        of the matrix c the coefficients of row r of m over the basis, or
        (None, r) for the first row r of m outside the span.

        The basis is reduced, so the coefficients are the entries of m at
        the pivots, and the read is certified by c @ self.matrix == m.
        """
        if m.ncols != self.ambient_dim:
            raise ValueError("shape mismatch: %s read against %s"
                             % (m, self))
        index = self._index
        den, rows = m.int_rows()
        c = Matrix._of(m.nrows, self.dim, den, tuple(
            tuple((index[j], x) for j, x in r if j in index) for r in rows))
        back = c @ self.matrix
        if back == m:
            return c, None
        return None, next(r for r, row in enumerate((back - m).int_rows()[1])
                          if row)

    def element(self, coeffs) -> Vector:
        return self.matrix.transpose().apply(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "Subspace(dim %d in Q^%d)" % (self.dim, self.ambient_dim)


def rank(m: Matrix) -> int:
    ech = Echelon(m.ncols)
    for r in m.int_rows()[1]:
        ech.insert_int(dict(r))
    return ech.dim


def affine_solutions(m: Matrix, b) -> tuple:
    """All solutions of m x = b from one elimination of (m | b).

    Returns one exact solution (free variables zero), or None if there is
    none, and the null space {v : m v = 0} with canonical basis.  The rows
    of the reduced (m | b) with a pivot inside m are the reduced m; the
    null space is read off them by null_rules.
    """
    b = _exact(b)
    if len(b) != m.nrows:
        raise ValueError("shape mismatch: %d right hand sides for %s"
                         % (len(b), m))
    n = m.ncols
    db, brow = _sparse_vector(b)
    dm, mrows = m.int_rows()
    ech = Echelon(n + 1)
    # row r of (m | b), times dm * db
    for r, row in enumerate(mrows):
        v = {j: x * db for j, x in row}
        if r in brow:
            v[n] = brow[r] * dm
        ech.insert_int(v)
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


def null_rules(n: int, rows: Iterable) -> tuple:
    """The null space {v in Q^n : r v = 0 for the rows r}, sparse, read off
    integer rows given as {column: int} (only the columns below n count).
    The rows may be dependent, repeated or zero, in any order and at any
    scale: the one reduction below gives the canonical basis whatever
    rows span the row space.

    One entry (f, ((q, c), ...)) per free column f, in increasing f, for
    the canonical basis vector e_f + sum c e_q; its q are increasing and
    all greater than f.  Subspace.from_rules stores the vectors.

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
    """Null space {v : m v = 0} with canonical basis, read off the rows of
    m by null_rules in one elimination."""
    n = m.ncols
    return Subspace.from_rules(n, null_rules(n, map(dict, m.int_rows()[1])))


def solve(m: Matrix, b) -> Optional[Vector]:
    """One exact solution of m x = b (free variables zero), or None.

    Nothing in the package calls it: the factorizations read their
    solutions off closed forms.  It is kept for the test oracles and as a
    trace target of the benchmark.
    """
    return affine_solutions(m, b)[0]


def restrict_to_kernel(space: Subspace, m: Matrix) -> Subspace:
    """{v in space : m v = 0}."""
    if m.ncols != space.ambient_dim:
        raise ValueError("shape mismatch: %s restricted to the kernel of %s"
                         % (space, m))
    if space.is_zero():
        return space
    coeffs = kernel(m @ space.matrix.transpose())
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


def closure_under_maps(seed: Matrix, maps: Sequence[Matrix], shape: tuple,
                       dims: Optional[list] = None) -> Subspace:
    """Smallest subspace containing the rows of seed and stable under the
    given linear maps.

    Each row is an r x c matrix E read row-major, shape = (r, c), and a
    matrix m in maps (c x c) acts on the right, E -> E m; a row vector is
    the shape (1, c).

    Stability under a linear map only needs to be checked on spanning
    vectors, so the span grows a level at a time: the matrices that grew
    it at the last level are stacked one above the other (k r x c), and
    each factor takes all of them at once, one product per factor and
    level.  A row's denominator does not change its span, so each is
    inserted by its integer numerators.  dims, if given, receives the
    dimension of the span after each level that grew it, the seed being
    level 0.
    """
    r, c = shape
    if r * c != seed.ncols:
        raise ValueError("rows of %d entries are not %dx%d matrices"
                         % (seed.ncols, r, c))
    ech = Echelon(seed.ncols)
    # every row dict here holds its columns in increasing order, so the
    # stack below is built with sorted rows
    level = [dict(row) for row in seed.int_rows()[1]]
    while True:
        grown = [row for row in level if ech.insert_int(row)]
        if not grown:
            return ech.subspace()
        if dims is not None:
            dims.append(ech.dim)
        # row g r + i of the stack is row i of the g-th matrix
        tall = [[] for _ in range(len(grown) * r)]
        for g, row in enumerate(grown):
            for k, x in row.items():
                i, j = divmod(k, c)
                tall[g * r + i].append((j, x))
        tall = Matrix._of(len(tall), c, 1, tuple(map(tuple, tall)))
        level = []
        for m in maps:
            rows = (tall @ m).int_rows()[1]
            level.extend({i * c + j: x for i in range(r)
                          for j, x in rows[g * r + i]}
                         for g in range(len(grown)))
