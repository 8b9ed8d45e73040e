"""The three benchmark workloads: inputs, one pass, and output checks.

Each workload has three sides:

* ``prepare(workdir, seed)`` runs in the runner before timing starts.  It
  writes the input files and returns a JSON-able spec.
* ``setup(spec)`` and ``run_pass(spec, state, workdir)`` run in a fresh
  worker process; setup is the input load a CLI user pays on every run,
  run_pass is one timed pass and returns what the checks need.
* ``ops(spec)`` names the operations of one pass.
* ``check(spec, result, seed)`` runs in the runner, outside the timed
  region, and maps each operation of the pass to its list of problems (an
  empty list means the operation succeeded).

Worker-side code reaches ncwb through module attributes (``cli.main``,
``connections.connection_space``) so that a traced pass sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from transport import matmul, transport_bundle

SCHEMA = "ncwb/1"


def _export_builtin(path: str, name: str, params) -> dict:
    """Explicit tables of a builtin bundle, through the program's own
    export command."""
    from ncwb import cli
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["builtin", name] + [str(p) for p in params]
                      + ["-o", path])
    if rc != 0:
        raise RuntimeError("ncwb builtin %s exited %d" % (name, rc))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _load_all(paths):
    from ncwb import workspace
    return {p: workspace.load_workspace(p) for p in paths}


# ---- report_builtins ---------------------------------------------------

class ReportBuiltins:
    """`ncwb report` on the workspace that declares every builtin."""

    name = "report_builtins"
    # sha256 of the report's stdout at the commit that defined this
    # benchmark; the report bytes are pinned, so any change is a failure
    DIGEST = "e53db21ba2c95c0de610513f62af437af23bc4dd2b37cf13a9e9085df7dcdd00"
    BUILTINS = (("dual_numbers", ()), ("truncated_poly", (4,)),
                ("group_algebra_z2", ()), ("upper_triangular_2", ()),
                ("matrix_2", ()), ("quantum_plane_trunc", (2, 2)))
    dominant = "cartan.co_universal_pair.total_s"

    def prepare(self, workdir: str, seed: int) -> dict:
        objects = {}
        for name, params in self.BUILTINS:
            decl = {"kind": "builtin", "builtin": name}
            if params:
                decl["params"] = list(params)
            objects[name] = decl
        path = os.path.join(workdir, "all_builtins.json")
        _write_json(path, {"schema": SCHEMA, "objects": objects})
        return {"workspace": path,
                "stdout": os.path.join(workdir, "report.txt")}

    def ops(self, spec: dict) -> list:
        return ["report"]

    def setup(self, spec: dict):
        return _load_all([spec["workspace"]])

    def run_pass(self, spec: dict, state, workdir: str) -> dict:
        from ncwb import cli
        with open(spec["stdout"], "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            rc = cli.main(["report", spec["workspace"]])
        return {"report": {"exit": rc}}

    def check(self, spec: dict, result: dict, seed: int) -> dict:
        problems = []
        if result["report"]["exit"] != 0:
            problems.append("exit code %d" % result["report"]["exit"])
        with open(spec["stdout"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != self.DIGEST:
            problems.append("report stdout digest %s" % digest)
        return {"report": problems}


# ---- relations_derive --------------------------------------------------

def _word_operators(tables: dict):
    """Left multiplications and pair actions from exported tables."""
    objs = tables["objects"]
    products = [[[Fraction(x) for x in v] for v in row]
                for row in objs["algebra"]["products"]]
    n = len(products)
    # column c of l(e_i) holds the coordinates of e_i e_c
    lmul = [[[products[i][c][r] for c in range(n)] for r in range(n)]
            for i in range(n)]
    action = [[[Fraction(x) for x in row] for row in m]
              for m in objs["pair"]["action"]]
    return lmul, action


def relation_operator(lmul, action, words, coeffs):
    """sum_w c_w mu(w), with mu(a_i m_t1 ... m_tk) = l_i X_t1 ... X_tk."""
    n = len(lmul)
    total = [[Fraction(0)] * n for _ in range(n)]
    for word, c in zip(words, coeffs):
        c = Fraction(c)
        if not c:
            continue
        op = None
        for kind, idx in word:
            m = lmul[idx] if kind == "a" else action[idx]
            op = m if op is None else matmul(op, m)
        for r in range(n):
            for s in range(n):
                total[r][s] += c * op[r][s]
    return total


class RelationsDerive:
    """`ncwb derive <ws> pair relations` on two exported builtins."""

    name = "relations_derive"
    # (file stem, builtin, params, NCWB_MAX_WORD_LEN, relations, words)
    DERIVES = (("matrix_2", "matrix_2", (), 5, 1356, 1364),
               ("truncated_poly_6", "truncated_poly", (6,), 4, 918, 936))
    SAMPLE = 8
    dominant = "diffops.find_relations.total_s"

    def prepare(self, workdir: str, seed: int) -> dict:
        derives = []
        for stem, builtin, params, max_len, rels, words in self.DERIVES:
            path = os.path.join(workdir, stem + ".json")
            _export_builtin(path, builtin, params)
            derives.append({"op": stem, "workspace": path,
                            "output": os.path.join(workdir,
                                                   stem + "_relations.json"),
                            "max_len": max_len, "relations": rels,
                            "words": words})
        return {"derives": derives}

    def ops(self, spec: dict) -> list:
        return [d["op"] for d in spec["derives"]]

    def setup(self, spec: dict):
        return _load_all([d["workspace"] for d in spec["derives"]])

    def run_pass(self, spec: dict, state, workdir: str) -> dict:
        from ncwb import cli
        out = {}
        saved = os.environ.get("NCWB_MAX_WORD_LEN")
        try:
            for d in spec["derives"]:
                os.environ["NCWB_MAX_WORD_LEN"] = str(d["max_len"])
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(["derive", d["workspace"], "pair",
                                   "relations", "-o", d["output"]])
                out[d["op"]] = {"exit": rc}
        finally:
            if saved is None:
                os.environ.pop("NCWB_MAX_WORD_LEN", None)
            else:
                os.environ["NCWB_MAX_WORD_LEN"] = saved
        return out

    def check(self, spec: dict, result: dict, seed: int) -> dict:
        return {d["op"]: self.check_derive(d, result[d["op"]], seed)
                for d in spec["derives"]}

    def check_derive(self, d: dict, res: dict, seed: int) -> list:
        if res["exit"] != 0:
            return ["exit code %d" % res["exit"]]
        with open(d["output"], encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(d["workspace"], encoding="utf-8") as fh:
            tables = json.load(fh)
        return relation_problems(doc, tables, d, seed, self.SAMPLE)


def relation_problems(doc: dict, tables: dict, d: dict, seed: int,
                      sample: int) -> list:
    """Counts, shapes, and a seeded sample of relations checked to vanish
    exactly as operators."""
    problems = []
    derived = doc.get("derived", {})
    words, basis = derived.get("words", []), derived.get("basis", [])
    if derived.get("kind") != "relation_basis":
        problems.append("derived kind %r" % derived.get("kind"))
    if derived.get("max_word_len") != d["max_len"]:
        problems.append("max_word_len %r" % derived.get("max_word_len"))
    if len(words) != d["words"]:
        problems.append("%d words, expected %d" % (len(words), d["words"]))
    if len(basis) != d["relations"]:
        problems.append("%d relations, expected %d"
                        % (len(basis), d["relations"]))
    if any(len(b) != len(words) for b in basis):
        problems.append("relation length differs from the word count")
    if problems:
        return problems
    lmul, action = _word_operators(tables)
    rng = random.Random("%d-%s" % (seed, d["op"]))
    for k in sorted(rng.sample(range(len(basis)), min(sample, len(basis)))):
        if all(Fraction(c) == 0 for c in basis[k]):
            problems.append("relation %d is zero" % k)
            continue
        op = relation_operator(lmul, action, words, basis[k])
        if any(x != 0 for row in op for x in row):
            problems.append("relation %d does not vanish" % k)
    return problems


# ---- connections_dense -------------------------------------------------

class ConnectionsDense:
    """Connections, universal calculus, co-universal pair and both
    factorizations on dense seeded copies of three builtins."""

    name = "connections_dense"
    # (prefix, builtin, params, homogeneous dim of connections on A^2)
    COPIES = (("ut2", "upper_triangular_2", (), 12),
              ("m2", "matrix_2", (), 16),
              ("tp5", "truncated_poly", (5,), 16))
    RANK = 2
    dominant = "connections.total_s"

    def prepare(self, workdir: str, seed: int) -> dict:
        objects, copies = {}, []
        for prefix, builtin, params, homog in self.COPIES:
            export = _export_builtin(
                os.path.join(workdir, prefix + "_builtin.json"), builtin,
                params)
            objects.update(transport_bundle(
                export, prefix, random.Random("%d-%s" % (seed, prefix))))
            copies.append({"op": prefix, "homogeneous_dim": homog,
                           "n": len(export["objects"]["algebra"]["basis"])})
        path = os.path.join(workdir, "dense.json")
        _write_json(path, {"schema": SCHEMA, "objects": objects})
        law_failures = transported_law_failures(path, copies)
        if law_failures:
            raise RuntimeError("transported inputs break laws: %s"
                               % "; ".join(law_failures))
        return {"workspace": path, "copies": copies, "rank": self.RANK}

    def ops(self, spec: dict) -> list:
        return [copy["op"] for copy in spec["copies"]]

    def setup(self, spec: dict):
        return _load_all([spec["workspace"]])[spec["workspace"]]

    def run_pass(self, spec: dict, ws, workdir: str) -> dict:
        from ncwb import algebra, calculus, cartan, connections
        out = {}
        for copy in spec["copies"]:
            c = ws.get(copy["op"] + "-calculus").obj
            a = c.algebra
            space = connections.connection_space(
                c, algebra.LeftModule.free(a, spec["rank"]))
            conn = connections.trivial_connection(c, spec["rank"])
            pair = cartan.pair_from_calculus(c)
            leibniz = connections.check_connection(conn)
            covariant = connections.check_covariant_axioms(conn, pair)
            u = calculus.universal_calculus(a)
            cu = cartan.co_universal_pair(a, u)
            _phi, cert = calculus.factor_through_universal(c, u)
            fact = cartan.co_universal_factorization(pair, cu)
            out[copy["op"]] = {
                "space_exists": space.exists,
                "homogeneous_dim": space.homogeneous.dim,
                "connection_ok": leibniz.ok,
                "covariant_ok": covariant.ok,
                "couniversal_dim": cu.bimodule.dim,
                "universal_factorization_ok": cert.ok,
                "couniversal_exists": fact.exists,
                "couniversal_unique": fact.unique,
            }
        return out

    def check(self, spec: dict, result: dict, seed: int) -> dict:
        return {copy["op"]: connection_problems(copy, result[copy["op"]])
                for copy in spec["copies"]}


def transported_law_failures(path: str, copies) -> list:
    """Algebra, bimodule and Leibniz checks of every transported copy."""
    from ncwb import algebra, calculus, workspace
    ws = workspace.load_workspace(path)
    failures = []
    for copy in copies:
        p = copy["op"]
        for label, check, obj in (
                ("algebra", algebra.check_algebra, p + "-algebra"),
                ("bimodule", algebra.check_bimodule, p + "-module"),
                ("leibniz", calculus.check_leibniz, p + "-calculus")):
            if not check(ws.get(obj).obj).ok:
                failures.append("%s %s" % (p, label))
    return failures


def connection_problems(copy: dict, facts: dict) -> list:
    """The facts that do not depend on the basis."""
    n = copy["n"]
    expected = {
        "space_exists": True,
        "homogeneous_dim": copy["homogeneous_dim"],
        "connection_ok": True,
        "covariant_ok": True,
        "couniversal_dim": n * (n - 1),
        "universal_factorization_ok": True,
        "couniversal_exists": True,
        "couniversal_unique": True,
    }
    return ["%s is %r, expected %r" % (k, facts.get(k), v)
            for k, v in expected.items() if facts.get(k) != v]


WORKLOADS = {w.name: w for w in (ReportBuiltins(), RelationsDerive(),
                                 ConnectionsDense())}
