"""Words in multiplications and fields, their normal forms, and the
operator algebra they generate inside End(A).

A word alternates algebra letters f (acting by left multiplication) and
module letters X (acting through the pair).  Pushing every f to the
front with the rule X f = X(f) + (X.f) yields a normal form without
changing the realized operator.  The span of all realized words closes
into a small subalgebra of End(A), with the unit as a vacuum vector.
"""

from ncwb.catalog import builtin
from ncwb.diffops import (
    FreeWord, evaluate_mu, find_relations, fock_check,
    generate_diffop_algebra, normal_form,
)


def main():
    b = builtin("dual_numbers")
    p = b.pair
    a = p.algebra

    x = FreeWord.algebra_letter(p, (0, 1))
    X = FreeWord.module_letter(p, (1,))
    w = X * x
    print("word:        ", w)
    print("normal form: ", normal_form(w))
    print("same operator:", evaluate_mu(p, w) == evaluate_mu(p, normal_form(w)))

    ops = generate_diffop_algebra(p)
    print("\noperator algebra dimension:", ops.dim,
          "out of", a.dim * a.dim)
    print("vacuum check:", fock_check(p))

    rs = find_relations(p, max_len=3)
    print("\nrelations among words of length <= 3:", len(rs.rules))
    rel = rs.freeword(p, rs.space().basis[0])
    print("one relation, as a word combination:", rel)
    print("it realizes to zero:",
          evaluate_mu(p, rel) == evaluate_mu(p, FreeWord(p)))


if __name__ == "__main__":
    main()
