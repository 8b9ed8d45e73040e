"""Operators generated by left multiplications and a Cartan action.

Words live in the free product of the algebra with the tensor algebra of
the pair bimodule: a word is a sequence of letters, each an algebra or a
module basis symbol, and a general element is a rational combination of
words.  Adjacent algebra letters merge through the structure constants and
a letter equal to 1 drops out; module runs stay as tensor factors.

mu realises words as operators on A (algebra letters as left
multiplication, module letters through the pair action) and is a
homomorphism from concatenation to composition.  normal_form pushes every
algebra letter to the front with the one rewriting move

    X * f   ->  (X.f) + (X(f))        (module letter, then algebra letter)

besides the merges and unit deletions, and mu sends it to an identity, so
rewriting never changes the operator.  The move f * X -> (f.X) is not
applied: a leading algebra letter stays in front of the module letters, so
on dual_numbers x*X0 is a normal form although x.X0 = 0.  mu kills
f * X - (f.X) by action linearity, so that difference lies in the kernel
of the Fock representation, and find_relations reports it as a relation.

The operator algebra generated by the left multiplications and the action
is the closure of the identity under right composition with those n + p
generators (every product of generators extends a shorter one on the
right), held as a Subspace of the n x n operators read row-major.

The order filtration.  D_k is the span of the operators l(f) X_w of the
words f * X_t1 * ... * X_tj with j <= k, so D_0 = l(A) and
D_{k+1} = D_0 + D_k X, where D X is the span of the D X_t.  No pair law
enters.  find_relations at max_len L takes the
W_L = n (1 + p + ... + p^(L-1)) words with j < L, whose operators span
D_{L-1}; the words are independent in the free product, so it finds
W_L - dim D_{L-1} relations.  Once D_{k+1} = D_k the filtration is
stable, D_j = D_k for every j > k, and order_filtration stops there.

On a pair that passes check_cartan over an algebra that passes
check_algebra, the stable piece D is the operator algebra.  Every l(f) X_w
is a product of generators, so D lies in the operator algebra; this holds
for every pair.  Conversely D holds I = l(1), and it is closed under right
composition with each X_t by construction, and with each l_g as well:
twisted Leibniz, X_t(g h) = X_t(g) h + (X_t.g)(h), reads
X_t l_g = l(X_t(g)) + X_(X_t.g), a left multiplication plus a field.  So
by induction on the length of w from the right, X_w l_g is a combination
of l(h) X_v with v no longer than w, and associativity,
l(f) l(h) = l(fh), puts l(f) X_w l_g back in D.  A subspace that holds I
and is closed under right composition with every generator holds the
closure of I, the operator algebra.  report prints the stable dimension
as the operator algebra's; generate_diffop_algebra and
derive diffops compute the closure itself, lawful pair or not.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .linalg import Matrix, Subspace, block_combination, \
    blockwise_product, closure_under_maps, frac, hstack, is_zero_vector, \
    linear_combination, null_rules
from .cartan import CartanPair
from .reporting import CheckReport


def _canonical(pair: CartanPair, terms: dict, push_actions: bool) -> dict:
    """Merge algebra letters, drop unit letters, optionally move algebra
    letters leftwards across module letters."""
    a = pair.algebra
    unit_idx = a.unit_index
    nb = pair.bimodule
    out: dict = {}
    work = list(terms.items())
    while work:
        w, c = work.pop()
        if c == 0:
            continue
        redex = None
        for k in range(len(w)):
            kind, idx = w[k]
            if kind == "a" and unit_idx is not None and idx == unit_idx:
                redex = ("unit", k)
                break
            if kind == "a" and k + 1 < len(w) and w[k + 1][0] == "a":
                redex = ("merge", k)
                break
            if push_actions and kind == "m" and k + 1 < len(w) \
                    and w[k + 1][0] == "a":
                redex = ("push", k)
                break
        if redex is None:
            out[w] = out.get(w, Fraction(0)) + c
            if out[w] == 0:
                del out[w]
            continue
        what, k = redex
        if what == "unit":
            work.append((w[:k] + w[k + 1:], c))
        elif what == "merge":
            i, j = w[k][1], w[k + 1][1]
            for t, coeff in enumerate(a.sc[i][j]):
                if coeff:
                    work.append((w[:k] + (("a", t),) + w[k + 2:], c * coeff))
        else:
            t, i = w[k][1], w[k + 1][1]
            for s, coeff in enumerate(nb.right[i].col(t)):
                if coeff:
                    work.append((w[:k] + (("m", s),) + w[k + 2:], c * coeff))
            for s, coeff in enumerate(pair.action[t].col(i)):
                if coeff:
                    work.append((w[:k] + (("a", s),) + w[k + 2:], c * coeff))
    return out


class FreeWord:
    """Rational combination of alternating words over a fixed pair."""

    def __init__(self, pair: CartanPair, terms: Optional[dict] = None):
        self.pair = pair
        self.terms = _canonical(pair, terms or {}, push_actions=False)

    @classmethod
    def algebra_letter(cls, pair, coords) -> "FreeWord":
        return cls(pair, {(("a", i),): frac(c)
                          for i, c in enumerate(coords) if c != 0})

    @classmethod
    def module_letter(cls, pair, coords) -> "FreeWord":
        return cls(pair, {(("m", t),): frac(c)
                          for t, c in enumerate(coords) if c != 0})

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if other.pair is not self.pair:
            raise ValueError("words over different pairs cannot be "
                             "multiplied")
        prod: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                prod[w] = prod.get(w, Fraction(0)) + c1 * c2
        return FreeWord(self.pair, prod)

    def __add__(self, other: "FreeWord") -> "FreeWord":
        if other.pair is not self.pair:
            raise ValueError("words over different pairs cannot be added")
        s = dict(self.terms)
        for w, c in other.terms.items():
            s[w] = s.get(w, Fraction(0)) + c
        return FreeWord(self.pair, s)

    def __rmul__(self, scalar) -> "FreeWord":
        c = frac(scalar)
        return FreeWord(self.pair, {w: c * x for w, x in self.terms.items()})

    def __sub__(self, other: "FreeWord") -> "FreeWord":
        return self + (-1) * other

    def __neg__(self) -> "FreeWord":
        return (-1) * self

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __eq__(self, other):
        return isinstance(other, FreeWord) and other.pair is self.pair \
            and other.terms == self.terms

    def __repr__(self):
        return format_word_sum(self.pair, self)


def format_word_sum(pair: CartanPair, w: FreeWord) -> str:
    names = pair.algebra.basis_names
    mnames = ["X%d" % t for t in range(pair.bimodule.dim)]
    if not w.terms:
        return "0"
    parts = []
    for word, c in w.sorted_terms():
        letters = [names[i] if kind == "a" else mnames[i]
                   for kind, i in word]
        body = "*".join(letters) if letters else "1"
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append("%s*%s" % (c, body))
    out = parts[0]
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return out


def evaluate_mu(pair: CartanPair, w) -> Matrix:
    """Realise a word combination as an operator on A."""
    if isinstance(w, FreeWord):
        if w.pair is not pair:
            raise ValueError("the word combination is over another pair")
        n = pair.algebra.dim
        return linear_combination(
            w.terms.values(), (_word_operator(pair, word) for word in w.terms),
            n, n)
    return _word_operator(pair, tuple(w))


def _word_operator(pair: CartanPair, word) -> Matrix:
    op = Matrix.identity(pair.algebra.dim)
    for kind, idx in word:
        op = op @ (pair.algebra.lmul[idx] if kind == "a"
                   else pair.action[idx])
    return op


def normal_form(w: FreeWord) -> FreeWord:
    """Rewrite to combinations of words with one leading algebra letter.

    Each move either deletes an algebra letter or moves it one module
    letter to the left, so rewriting terminates; mu is unchanged because
    the moves come from the pair laws.
    """
    return FreeWord(w.pair, _canonical(w.pair, w.terms, push_actions=True))


def generate_diffop_algebra(pair: CartanPair) -> Subspace:
    """The algebra generated by the identity, the left multiplications and
    the action, as the closure of the identity under right composition
    with the n + p generators: a Subspace of the n x n operators on A read
    row-major, its basis operators matrix.row_matrices(n, n).

    A product of generators is a shorter product composed with one more
    generator on the right, so this closure is the span of all products,
    lawful pair or not.  The closure takes the operators as n x n
    matrices, so each generator multiplies the stack of the operators new
    at the last level in one n x n product.
    """
    n = pair.algebra.dim
    seed = Matrix.from_int_rows([Matrix.identity(n).flat_int()], n * n)
    return closure_under_maps(seed, pair.algebra.lmul + pair.action,
                              shape=(n, n))


def order_filtration(pair: CartanPair) -> tuple:
    """dim D_0, dim D_1, ..., dim D_k for the first k with
    D_{k+1} = D_k, so the last entry is the stable dimension (see the
    module docstring).

    D_0 = l(A), and each level stacks the operators that were new at the
    last one into one tall matrix and multiplies it by each X_t in one
    product, into one echelon of width n^2.  No pair law is needed.  An
    algebra whose left multiplications all vanish has D_0 = 0 = D_k.
    """
    n = pair.algebra.dim
    dims = []
    closure_under_maps(
        Matrix.from_int_rows([lm.flat_int() for lm in pair.algebra.lmul],
                             n * n),
        pair.action, shape=(n, n), dims=dims)
    return tuple(dims) or (0,)


def word_count(pair: CartanPair, max_len: int) -> int:
    """W_L = n (1 + p + ... + p^(L-1)), the number of words
    find_relations takes at max_len L."""
    p = pair.bimodule.dim
    return pair.algebra.dim * sum(p ** k for k in range(max_len))


class RelationSearch:
    """Kernel of mu on the span of short normal-form words, held sparsely.

    rules has one entry (f, ((q, c), ...)) per relation, in increasing f:
    the relation words[f] + sum c words[q] = 0, that is the rewriting rule
    words[f] -> -sum c words[q], with non-zero c and increasing q > f.
    These are the vectors of the canonical (reduced echelon) basis of the
    relation space by their non-zero entries: each vector starts with a 1
    at its pivot f, and is zero at every other pivot.  The words q are the
    right pivots, those whose operator is not in the span of the operators
    of the words after them, and the operator of f is a combination of
    theirs.  len(rules) is the number of relations; space() stores the
    same basis as a Subspace.
    """

    def __init__(self, words: tuple, rules: tuple, letters: tuple):
        self.words = words        # coordinate order of the word span
        self.rules = rules        # one (f, ((q, c), ...)) per relation
        self.letters = letters    # the n algebra, then the p module letters

    def space(self) -> Subspace:
        """The relations as a subspace of Q^W, canonical basis."""
        return Subspace.from_rules(len(self.words), self.rules)

    def freeword(self, pair: CartanPair, coeffs) -> FreeWord:
        return FreeWord(pair, {w: frac(c) for c, w in zip(coeffs, self.words)
                               if c != 0})


def find_relations(pair: CartanPair, max_len: int = 4) -> RelationSearch:
    """Relations among words f * X_1 * ... * X_k of length k+1 <= max_len.

    These words are linearly independent in the free product, so the
    kernel of mu on their span is exactly the set of relations visible at
    this length.  Truncation is honest: longer relations stay unseen.

    The words of length k+1 are f * X_t1 * ... * X_tk for each algebra
    letter f and each of the p^k module words, in itertools.product order.
    Their operators come a word length at a time: H_k is the n x (p^k n)
    matrix whose block b is X_t1...X_tk for the b-th module word, so
    H_{k+1} = [X_0 H_k | ... | X_{p-1} H_k], and the operators of the
    words f * X_t1 * ... * X_tk are the blocks of l(f) H_k.  That is
    n + p products per word length, with Gustavson's row-wise product
    applied to a whole level at once, instead of one per word.  Entry
    [r][b n + j] of l(f) H_k goes into row r n + j of the word-column
    matrix, which has one row per entry of an operator on A, over one
    running common denominator.  null_rules reads the relations off those
    n^2 rows as rules in one elimination; no W-wide vector is built.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1, got %r" % (max_len,))
    n, p = pair.algebra.dim, pair.bimodule.dim
    letters = tuple([("a", i) for i in range(n)]
                    + [("m", t) for t in range(p)])
    words = []
    # row r * n + j of the word-column matrix holds entry (r, j) of every
    # word operator, over their common denominator den
    rows, den = [{} for _ in range(n * n)], 1
    h = Matrix.identity(n)
    for k in range(max_len):
        if k:
            h = hstack([x @ h for x in pair.action], n)
        tails = [tuple(letters[n + t] for t in mw)
                 for mw in itertools.product(range(p), repeat=k)]
        for f, lf in enumerate(pair.algebra.lmul):
            first = len(words)
            words.extend((letters[f],) + tail for tail in tails)
            d, op_rows = (lf @ h).int_rows()
            if den % d:
                s = d // math.gcd(den, d)
                den *= s
                rows = [{q: x * s for q, x in row.items()} for row in rows]
            s = den // d
            for r, op_row in enumerate(op_rows):
                for c, x in op_row:
                    b, j = divmod(c, n)
                    rows[r * n + j][first + b] = x * s
    return RelationSearch(tuple(words), null_rules(len(words), rows), letters)


def check_ccr(pair: CartanPair) -> CheckReport:
    """Canonical commutation: [X, f^l] = (X(f))^l and centrality f.X = X.f,
    on all basis pairs.

    With X = [X_0 | ... | X_{m-1}] and K_i the n x m matrix whose column t
    is X_t(e_i), the commutators with l_i are one identity,
    X (I_m (x) l_i) - l_i X = [l_0 | ... | l_{n-1}] (K_i (x) I_n), whose
    block t is [X_t, l_i] = l(X_t(e_i)); centrality on e_i compares the
    columns of L_i and R_i.  The findings are listed by (i, t).  This is
    exact on any pair; report reads the same findings off the pair laws
    with ccr_from_laws (the proof is in cli._report_object)."""
    rep = CheckReport("canonical commutation")
    a = pair.algebra
    nb = pair.bimodule
    n, m = a.dim, nb.dim
    big_x, big_l = hstack(pair.action, n), hstack(a.lmul, n)
    for i, (li, ki) in enumerate(zip(a.lmul, pair.field_values())):
        central = (nb.left[i] - nb.right[i]).nonzero_cols()
        comm = blockwise_product(big_x, li, m) - li @ big_x
        _add_ccr_findings(rep, a, i, central,
                          comm - block_combination(big_l, ki, n))
    return rep


def ccr_from_laws(pair: CartanPair) -> CheckReport:
    """check_ccr's report on a pair that passes check_cartan, read off the
    pair laws: there the commutator defect at e_i is

        X (I_m (x) l_i) - l_i X - [l_0 | ... | l_{n-1}] (K_i (x) I_n)
          = X ((R_i - L_i) (x) I_n),

    whose block t is the action of X_t.e_i - e_i.X_t.  So an e_i with
    L_i = R_i has no finding, every commutator witness is a centrality
    witness, and the defect is one block_combination per other e_i.  The
    proof is in cli._report_object; on a pair that breaks a pair law only
    check_ccr is exact."""
    rep = CheckReport("canonical commutation")
    a = pair.algebra
    nb = pair.bimodule
    big_x = hstack(pair.action, a.dim)
    for i, (li, ri) in enumerate(zip(nb.left, nb.right)):
        if li != ri:
            diff = ri - li
            _add_ccr_findings(rep, a, i, diff.nonzero_cols(),
                              block_combination(big_x, diff, a.dim))
    return rep


def _add_ccr_findings(rep: CheckReport, a, i: int, central,
                      defect: Matrix) -> None:
    """The findings at e_i, by t: centrality for each t in central, the
    columns where L_i and R_i differ, and commutator where block t of the
    commutator defect is non-zero, read at its first non-zero column."""
    n = a.dim
    first = {}
    for col in defect.nonzero_cols():
        first.setdefault(col // n, col)
    central = set(central)
    for t in sorted(central | set(first)):
        if t in central:
            rep.add("centrality", (i, t),
                    "%s.X%d != X%d.%s" % (a.basis_names[i], t, t,
                                          a.basis_names[i]))
        if t in first:
            col = first[t]
            rep.add("commutator", (i, t),
                    "([X%d, l(%s)] - l(X%d(%s)))(%s) = %s" % (
                        t, a.basis_names[i], t, a.basis_names[i],
                        a.basis_names[col - t * n],
                        a.format(defect.col(col))))


def fock_check(pair: CartanPair) -> CheckReport:
    """1 is a vacuum: the action kills it and left multiplication
    reproduces the multiplier."""
    rep = CheckReport("vacuum")
    a = pair.algebra
    for t in range(pair.bimodule.dim):
        img = pair.action[t].apply(a.unit)
        if not is_zero_vector(img):
            rep.add("vacuum-annihilation", (t,),
                    "X%d(1) = %s" % (t, a.format(img)))
    for i in range(a.dim):
        ei = tuple(1 if s == i else 0 for s in range(a.dim))
        if a.lmul[i].apply(a.unit) != ei:
            rep.add("vacuum-reproduction", (i,),
                    "l(%s)(1)" % a.basis_names[i])
    return rep
