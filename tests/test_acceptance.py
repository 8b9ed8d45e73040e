"""Acceptance suite: the package's headline guarantees.

Each test prints exactly one PASS/FAIL line so a batch run reads as a
checklist.  Everything is exact rational arithmetic with zero tolerance.
"""

import hashlib
import itertools
import json
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

from ncwb.algebra import (
    Bimodule, BimoduleMap, bimodule_map_space, check_bimodule_map,
    right_dual, transpose,
)
from ncwb.calculus import check_leibniz, factor_through_universal, \
    universal_calculus
from ncwb.cartan import (
    calculus_from_pair, check_cartan, co_universal_factorization,
    co_universal_pair, pair_from_calculus,
)
from ncwb.catalog import (
    BUILTIN_NAMES, broken_connection_fixture, builtin,
    naive_derivative_fixture, vacuum_violation_fixture,
)
from ncwb.connections import (
    check_connection, check_covariant_axioms, trivial_connection,
)
from ncwb.diffops import (
    FreeWord, check_ccr, evaluate_mu, fock_check, generate_diffop_algebra,
    normal_form,
)
from ncwb.linalg import Echelon, Matrix, rank
from ncwb.workspace import SCHEMA

PARAMS = {"truncated_poly": (4,), "quantum_plane_trunc": (2, 2)}

# SHA-256 of `ncwb report` stdout on the workspace of all builtins above
REPORT_TEXT_SHA256 = \
    "e53db21ba2c95c0de610513f62af437af23bc4dd2b37cf13a9e9085df7dcdd00"
REPORT_JSON_SHA256 = \
    "02a91d71d9bb8a6376fb44e26a622b04f2a8a6e176901b68a84e812d27137797"


def bundle(name):
    return builtin(name, PARAMS.get(name, ()))


def derived_pair(name):
    """The pair of the bundle's calculus; most bundles carry it already."""
    b = bundle(name)
    if b.pair.source_calculus is b.calculus:
        return b.pair
    return pair_from_calculus(b.calculus)


def calculus_names():
    return [n for n in BUILTIN_NAMES if bundle(n).calculus is not None]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print("FAIL %s" % label)
        raise
    print("PASS %s" % label)


def test_criterion_01_duality_both_ways():
    with criterion("01 every calculus gives a lawful pair and back"):
        for name in calculus_names():
            p = derived_pair(name)
            rep = check_cartan(p)
            assert rep.ok, "%s: %s" % (name, rep)
        for name in BUILTIN_NAMES:
            c, _ = calculus_from_pair(bundle(name).pair)
            rep = check_leibniz(c)
            assert rep.ok, "%s: %s" % (name, rep)


def test_criterion_02_regular_dual_is_the_algebra():
    with criterion("02 dual of the regular bimodule is the algebra itself"):
        for name in BUILTIN_NAMES:
            a = bundle(name).algebra
            m = bundle(name).bimodules["regular"]
            d = right_dual(m)
            assert d.dim == a.dim
            ident = Matrix.from_cols(
                [d.eval_mats[t].apply(a.unit) for t in range(d.dim)],
                nrows=a.dim)
            alpha = BimoduleMap(d, m, ident)
            assert check_bimodule_map(alpha).ok, name
            assert rank(ident) == a.dim, name
            for t in range(d.dim):
                ft = ident.col(t)
                for s in range(a.dim):
                    product = a.rmul[s].apply(ft)
                    assert d.eval_mats[t].col(s) == product, (name, t, s)


def test_criterion_03_universal_calculus_dimension_and_factorization():
    with criterion("03 universal one-forms: dimension and unique factor"):
        universals = {}
        for name in BUILTIN_NAMES:
            a = bundle(name).algebra
            u = universals[name] = universal_calculus(a)
            mult_rank = Echelon(a.dim, (a.sc[i][j] for i in range(a.dim)
                                        for j in range(a.dim)))
            assert u.bimodule.dim == a.dim * a.dim - mult_rank.dim, name
        assert universals["dual_numbers"].bimodule.dim == 2
        assert universals["matrix_2"].bimodule.dim == 12
        for name in calculus_names():
            c = bundle(name).calculus
            phi, rep = factor_through_universal(c, universal=universals[name])
            assert rep.ok, "%s: %s" % (name, rep)
            assert phi.matrix @ universals[name].d == c.d, name


def test_criterion_04_couniversal_factorization_is_the_transpose():
    with criterion("04 pairs factor uniquely through the co-universal pair"):
        count = 0
        for name in BUILTIN_NAMES:
            p = bundle(name).pair
            if p.source_calculus is None:
                continue
            count += 1
            u = universal_calculus(p.algebra)
            cu = co_universal_pair(p.algebra, u)
            fact = co_universal_factorization(p, cu)
            assert fact.exists and fact.unique, name
            assert fact.report.ok, "%s: %s" % (name, fact.report)
            assert fact.homogeneous_dim == 0, name
            for t in range(p.bimodule.dim):
                image = cu.action_of(fact.phi.matrix.col(t))
                assert image == p.action[t], (name, t)
            phi, rep = factor_through_universal(p.source_calculus,
                                                universal=u)
            assert rep.ok, name
            expected = transpose(phi, cu.bimodule, p.bimodule)
            assert fact.phi.matrix == expected.matrix, name
        assert count >= 4


def test_criterion_05_transpose_preserves_bimodule_maps():
    with criterion("05 twenty sampled bimodule maps transpose exactly"):
        rng = random.Random(20250822)
        count = 0
        for name in BUILTIN_NAMES:
            b = bundle(name)
            modules = [b.bimodules["regular"], b.pair.bimodule]
            if b.calculus is not None:
                modules.append(b.calculus.bimodule)
            duals = [right_dual(m) for m in modules]
            for (m, dm), (n_, dn_) in itertools.product(
                    zip(modules, duals), repeat=2):
                space = bimodule_map_space(m, n_)
                if space.dim == 0:
                    continue
                samples = [bvec for bvec in space.basis]
                for _ in range(2):
                    coeffs = [rng.randint(-3, 3) for _ in space.basis]
                    samples.append(tuple(
                        sum(c * bvec[k]
                            for c, bvec in zip(coeffs, space.basis))
                        for k in range(len(space.basis[0]))))
                for flat in samples:
                    mat = Matrix.from_flat(flat, n_.dim, m.dim)
                    alpha = BimoduleMap(m, n_, mat)
                    assert check_bimodule_map(alpha).ok
                    tr = transpose(alpha, dm, dn_)
                    assert tr.matrix.nrows == dm.dim
                    assert tr.matrix.ncols == dn_.dim
                    assert check_bimodule_map(tr).ok, name
                    for k in range(dn_.dim):
                        composite = dn_.eval_mats[k] @ mat
                        again = dm.eval_of(tr.matrix.col(k))
                        assert composite == again, (name, k)
                    count += 1
                if count >= 60:
                    break
            if count >= 60:
                break
        assert count >= 20, count


def test_criterion_06_free_words_normalize_soundly():
    with criterion("06 word rewriting is mu-sound, idempotent, closed"):
        rng = random.Random(4096)
        for name in BUILTIN_NAMES:
            p = bundle(name).pair
            n, nm = p.algebra.dim, p.bimodule.dim
            letters = [("a", i) for i in range(n)] + \
                      [("m", t) for t in range(nm)]

            # independent word operators, built one letter at a time
            cache = {(): Matrix.identity(n)}

            def word_op(word):
                if word not in cache:
                    kind, idx = word[-1]
                    step = p.algebra.lmul[idx] if kind == "a" \
                        else p.action[idx]
                    cache[word] = word_op(word[:-1]) @ step
                return cache[word]

            def sum_op(fw):
                out = Matrix.zeros(n, n)
                for word, c in fw.terms.items():
                    out = out + word_op(word).scale(c)
                return out

            for k in range(1, 4):
                for word in itertools.product(letters, repeat=k):
                    assert evaluate_mu(p, word) == word_op(word), \
                        (name, word)
            for _ in range(10):
                u = FreeWord(p, {tuple(rng.sample(letters, rng.randint(1, 3))):
                                 Fraction(rng.randint(-4, 4))
                                 for _ in range(3)})
                v = FreeWord(p, {tuple(rng.sample(letters, rng.randint(1, 3))):
                                 Fraction(rng.randint(-4, 4))
                                 for _ in range(3)})
                assert evaluate_mu(p, u * v) == \
                    evaluate_mu(p, u) @ evaluate_mu(p, v), name
            for k in range(1, 5):
                for word in itertools.product(letters, repeat=k):
                    fw = FreeWord(p, {word: Fraction(1)})
                    nf = normal_form(fw)
                    assert sum_op(nf) == word_op(word), (name, word)
                    assert normal_form(nf) == nf, (name, word)
            ops = generate_diffop_algebra(p)
            assert ops.dim <= n * n, name
            basis = ops.matrix.row_matrices(n, n)
            prods = Matrix.from_int_rows([(b1 @ b2).flat_int()
                                          for b1 in basis for b2 in basis],
                                         n * n)
            assert ops.coords_int(prods)[1] is None, name
        p = bundle("dual_numbers").pair
        oracle = Echelon(4)
        gens = [p.algebra.lmul[i] for i in range(2)] + [p.action[0]]
        frontier = [Matrix.identity(2)] + gens
        for g in frontier:
            oracle.insert(g.flatten())
        grew = True
        while grew:
            grew = False
            current = oracle.subspace().matrix.row_matrices(2, 2)
            for x in current:
                for g in gens:
                    if oracle.insert((x @ g).flatten()):
                        grew = True
        assert generate_diffop_algebra(p).dim == oracle.dim == 3


def test_criterion_07_commutation_degenerates_only_classically():
    with criterion("07 commutation relations: clean classically, "
                   "witnessed on the quantum plane"):
        for name in ("dual_numbers", "truncated_poly", "group_algebra_z2"):
            rep = check_ccr(bundle(name).pair)
            assert rep.ok, "%s: %s" % (name, rep)
        p = bundle("quantum_plane_trunc").pair
        rep = check_ccr(p)
        witnesses = [f for f in rep.findings if f.law == "commutator"]
        assert witnesses, "no commutator witness found"
        a = p.algebra
        nb = p.bimodule
        for f in witnesses:
            i, t = f.witness
            push = p.action[t] @ a.lmul[i]
            twisted = p.action_of(nb.right[i].col(t)) \
                + a.left_mult_matrix(p.action[t].col(i))
            assert push == twisted, (i, t)
            commutator = push - a.lmul[i] @ p.action[t]
            assert commutator != a.left_mult_matrix(p.action[t].col(i))


def test_criterion_08_vacuum_representation():
    with criterion("08 unit is a vacuum: fields kill it, "
                   "multiplications create from it"):
        for name in BUILTIN_NAMES:
            p = bundle(name).pair
            a = p.algebra
            rep = fock_check(p)
            assert rep.ok, "%s: %s" % (name, rep)
            zero = tuple(Fraction(0) for _ in range(a.dim))
            for t in range(p.bimodule.dim):
                assert p.action[t].apply(a.unit) == zero
            for i in range(a.dim):
                basis_vec = tuple(Fraction(1 if k == i else 0)
                                  for k in range(a.dim))
                assert a.lmul[i].apply(a.unit) == basis_vec
        planted = vacuum_violation_fixture()
        assert not fock_check(planted).ok
        assert not check_cartan(planted).ok


def test_criterion_09_connections_contract_lawfully():
    with criterion("09 connections: lawful, relation-safe contraction, "
                   "covariant axioms, violator rejected"):
        for name in calculus_names():
            c = bundle(name).calculus
            p = derived_pair(name)
            d = p.bimodule
            for rank_ in (1, 2):
                conn = trivial_connection(c, rank_)
                assert check_connection(conn).ok, (name, rank_)
                assert check_covariant_axioms(conn, p).ok, (name, rank_)
                t = conn.tensor
                e = conn.module
                for s in range(d.dim):
                    cols = []
                    for r in range(c.bimodule.dim):
                        block = e.left_of(d.eval_mats[s].col(r))
                        for aa in range(e.dim):
                            cols.append(block.col(aa))
                    ambient = Matrix.from_cols(cols, nrows=e.dim)
                    zero = tuple(Fraction(0) for _ in range(e.dim))
                    for rel in t.relations.basis:
                        assert ambient.apply(rel) == zero, (name, rank_, s)
        bad = broken_connection_fixture()
        rep = check_connection(bad)
        assert not rep.ok
        assert rep.findings and rep.findings[0].witness


def test_criterion_10_truncation_breaks_the_naive_derivative():
    with criterion("10 naive d/dx on the truncated line fails exactly "
                   "at the top degree"):
        for n in (3, 4, 5):
            p = naive_derivative_fixture(n)
            rep = check_cartan(p)
            assert not rep.ok
            expected = {(0, i, n - i) for i in range(1, n)}
            assert {f.witness for f in rep.findings} == expected, n
            for f in rep.findings:
                assert f.law == "twisted-leibniz", n
                assert "defect -%d*x^%d" % (n, n - 1) in f.detail, f.detail


def test_criterion_11_batch_report_is_deterministic(tmp_path):
    with criterion("11 batch report over all builtins: exit 0, "
                   "byte-identical reruns"):
        objects = {}
        for name in BUILTIN_NAMES:
            decl = {"kind": "builtin", "builtin": name}
            if name in PARAMS:
                decl["params"] = list(PARAMS[name])
            objects[name] = decl
        path = tmp_path / "all.json"
        path.write_text(json.dumps({"schema": SCHEMA, "objects": objects}))
        runs = []
        for _ in range(2):
            r = subprocess.run(
                [sys.executable, "-m", "ncwb.cli", "report", str(path)],
                capture_output=True)
            assert r.returncode == 0, r.stderr.decode()
            runs.append(r.stdout)
        assert runs[0] == runs[1]
        # the bytes of both formats are pinned, not only their stability
        assert hashlib.sha256(runs[0]).hexdigest() == REPORT_TEXT_SHA256
        r = subprocess.run(
            [sys.executable, "-m", "ncwb.cli", "report", str(path),
             "--format", "json"], capture_output=True)
        assert r.returncode == 0, r.stderr.decode()
        assert hashlib.sha256(r.stdout).hexdigest() == REPORT_JSON_SHA256
        text = runs[0].decode()
        for name in BUILTIN_NAMES:
            assert "== %s: bundle %s" % (name, name) in text
        assert text.rstrip().endswith("result: ok")
