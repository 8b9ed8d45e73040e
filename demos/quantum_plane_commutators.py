"""Commutation relations degenerate classically and fail quantumly.

On commutative algebras with symmetric field modules the commutator
law [X, f] = X(f) holds on the nose.  On the truncated quantum plane
(y x = q x y) the two-sided module structure of the fields is genuinely
noncommutative: the commutator law acquires an explicit violating
witness, while the one-sided push-through rule X f = X(f) + (X.f)
continues to hold exactly on the same witness.  The two differ by the
bimodule commutator: the defect [X, l_f] - l(X(f)) is the action of
X.f - f.X, which is what report reads its commutation findings from.
"""

from ncwb.catalog import builtin
from ncwb.diffops import check_ccr


def main():
    for name in ("dual_numbers", "truncated_poly", "group_algebra_z2"):
        rep = check_ccr(builtin(name).pair)
        print("%s: %s" % (name, "clean" if rep.ok else rep))

    b = builtin("quantum_plane_trunc", (2, 2))
    p = b.pair
    a = p.algebra
    rep = check_ccr(p)
    print("\nquantum plane (q=2, degree <= 2): %d finding(s)"
          % len(rep.findings))
    for f in rep.findings:
        print(" ", f)

    for f in rep.findings:
        if f.law != "commutator":
            continue
        i, t = f.witness
        push = p.action[t] @ a.lmul[i]
        twisted = p.action_of(p.bimodule.right[i].col(t)) \
            + a.left_mult_matrix(p.action[t].col(i))
        print("\npush-through rule on the witness (f=%s, X_%d): %s"
              % (a.basis_names[i], t,
                 "holds exactly" if push == twisted else "broken"))
        defect = push - a.lmul[i] @ p.action[t] \
            - a.left_mult_matrix(p.action[t].col(i))
        commutator = p.action_of([r - l for r, l in zip(
            p.bimodule.right[i].col(t), p.bimodule.left[i].col(t))])
        print("defect = action of X_%d.%s - %s.X_%d: %s"
              % (t, a.basis_names[i], a.basis_names[i], t,
                 "holds exactly" if defect == commutator else "broken"))


if __name__ == "__main__":
    main()
