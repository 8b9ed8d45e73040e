"""Every calculus factors through the universal one; every pair maps into
the co-universal one.

The universal one-forms live inside A (x) A as the kernel of
multiplication, with du(f) = 1 (x) f - f (x) 1.  For each builtin
calculus the unique bimodule map phi with phi o du = d is computed and
certified.  Dually, the fields of a derived pair map into the right dual
of the universal one-forms, and that map is exactly the transpose of phi.
"""

from ncwb.algebra import transpose
from ncwb.calculus import factor_through_universal, universal_calculus
from ncwb.cartan import co_universal_factorization, co_universal_pair
from ncwb.catalog import BUILTIN_NAMES, builtin


def main():
    for name in BUILTIN_NAMES:
        b = builtin(name)
        a = b.algebra
        u = universal_calculus(a)
        cu = co_universal_pair(a, u)
        print("%s: dim A = %d, universal one-forms %d, co-universal "
              "fields %d" % (name, a.dim, u.bimodule.dim, cu.bimodule.dim))
        if b.calculus is None or b.pair is None \
                or b.pair.source_calculus is None:
            continue
        phi, rep = factor_through_universal(b.calculus, universal=u)
        print("  phi: %dx%d, certificate: %s"
              % (phi.matrix.nrows, phi.matrix.ncols,
                 "ok" if rep.ok else rep))
        assert phi.matrix @ u.d == b.calculus.d

        fact = co_universal_factorization(b.pair, cu)
        print("  Phi exists %s, unique %s, free directions %d"
              % (fact.exists, fact.unique, fact.homogeneous_dim))
        expected = transpose(phi, cu.bimodule, b.pair.bimodule)
        print("  Phi == transpose(phi):",
              fact.phi.matrix == expected.matrix)


if __name__ == "__main__":
    main()
