"""Seeded change of basis for algebra, bimodule and calculus declarations.

The tables travel in the ncwb workspace layout (rationals as strings), so
the benchmark hands the program nothing but a generated workspace file.
The arithmetic here is plain ``fractions.Fraction`` and does not call into
ncwb, so the inputs do not depend on the code under test.

A basis change P (columns are the new basis vectors in old coordinates) is
a product L U of unit triangular integer matrices whose off-diagonal
entries are all +1 or -1.  It is unimodular, so the transported tables stay
integral, and it is dense apart from chance cancellations, so the tables
pick up many non-zero, non-unit entries.
"""

from __future__ import annotations

import random
from fractions import Fraction


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def inverse(m):
    """Exact inverse by Gauss-Jordan elimination; raises on a singular m."""
    n = len(m)
    aug = [[Fraction(x) for x in row]
           + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular basis change")
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def unimodular(n: int, rng: random.Random):
    """Integer matrix of determinant 1, mostly non-zero, drawn from rng."""
    lower = [[Fraction(1) if i == j else
              Fraction(rng.choice((-1, 1))) if j < i else Fraction(0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else
              Fraction(rng.choice((-1, 1))) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
    return matmul(lower, upper)


def _table(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _strings(rows):
    return [[str(x) for x in row] for row in rows]


def _combo(mats, coeffs):
    """sum_k coeffs[k] * mats[k]."""
    r, c = len(mats[0]), len(mats[0][0])
    out = [[Fraction(0)] * c for _ in range(r)]
    for m, k in zip(mats, coeffs):
        if k:
            for i in range(r):
                for j in range(c):
                    out[i][j] += k * m[i][j]
    return out


class BasisChange:
    """New bases for an algebra (p) and for one bimodule over it (q)."""

    def __init__(self, p, q):
        self.p, self.pinv = p, inverse(p)
        self.q, self.qinv = q, inverse(q)

    @classmethod
    def random(cls, n: int, module_dim: int, rng: random.Random):
        return cls(unimodular(n, rng), unimodular(module_dim, rng))

    def _pcol(self, i):
        return [row[i] for row in self.p]

    def algebra(self, decl: dict) -> dict:
        """e'_i e'_j = sum_kl P_ki P_lj e_k e_l, read in the new basis."""
        n = len(decl["basis"])
        sc = [[[Fraction(x) for x in v] for v in row]
              for row in decl["products"]]
        products = []
        for i in range(n):
            row = []
            for j in range(n):
                old = [Fraction(0)] * n
                for k, pki in enumerate(self._pcol(i)):
                    for l, plj in enumerate(self._pcol(j)):
                        if pki and plj:
                            for t, x in enumerate(sc[k][l]):
                                old[t] += pki * plj * x
                new = matmul(self.pinv, [[x] for x in old])
                row.append([str(v[0]) for v in new])
            products.append(row)
        unit = matmul(self.pinv, [[Fraction(x)] for x in decl["unit"]])
        return {"kind": "algebra", "basis": ["b%d" % i for i in range(n)],
                "products": products, "unit": [str(v[0]) for v in unit]}

    def bimodule(self, decl: dict, algebra_ref: str) -> dict:
        """Action of e'_i is Q^-1 (sum_k P_ki act_k) Q on both sides."""
        out = {"kind": "bimodule", "algebra": algebra_ref,
               "dim": decl["dim"]}
        for side in ("left", "right"):
            mats = [_table(m) for m in decl[side]]
            out[side] = [
                _strings(matmul(self.qinv,
                                matmul(_combo(mats, self._pcol(i)), self.q)))
                for i in range(len(mats))]
        return out

    def calculus(self, decl: dict, algebra_ref: str, module_ref: str) -> dict:
        """d' = Q^-1 d P."""
        d = matmul(self.qinv, matmul(_table(decl["d"]), self.p))
        return {"kind": "calculus", "algebra": algebra_ref,
                "module": module_ref, "d": _strings(d)}


def transport_bundle(export: dict, prefix: str, rng: random.Random) -> dict:
    """Transported algebra, calculus bimodule and calculus of one exported
    builtin bundle, as workspace declarations named <prefix>-algebra,
    <prefix>-module and <prefix>-calculus."""
    objs = export["objects"]
    n = len(objs["algebra"]["basis"])
    change = BasisChange.random(n, objs["calculus_module"]["dim"], rng)
    alg, mod = prefix + "-algebra", prefix + "-module"
    return {
        alg: change.algebra(objs["algebra"]),
        mod: change.bimodule(objs["calculus_module"], alg),
        prefix + "-calculus": change.calculus(objs["calculus"], alg, mod),
    }
