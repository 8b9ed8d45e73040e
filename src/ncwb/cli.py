"""Command line front end: check, derive, report, builtin.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
usage error, or a document that could not be written because the reader of
stdout closed it early (a broken pipe; the rest of the output is dropped
silently).  Documents go to stdout (or -o), human summaries to stderr,
so derived output stays byte-stable and scriptable.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import check_algebra, check_bimodule, right_dual
from .calculus import (
    check_leibniz, factor_through_universal, is_spanned_by_differential,
    universal_calculus,
)
from .cartan import (
    calculus_from_pair, check_cartan, co_universal_factorization,
    co_universal_pair, pair_from_calculus, spanning_kernel_diagnostic,
)
from .catalog import builtin as catalog_builtin
from .connections import check_connection, check_covariant_axioms
from .diffops import check_ccr, find_relations, fock_check, \
    generate_diffop_algebra
from .linalg import ONE
from .reporting import CheckReport, InvariantError
from .workspace import (
    SCHEMA, SparseRows, WorkspaceError, algebra_decl, bimodule_decl,
    calculus_decl, canonical_parts, canonical_text, cartan_pair_decl,
    load_workspace, matrix_rows, parse_rational,
)

MAX_WORD_LEN_DEFAULT = 4


def _max_word_len() -> int:
    raw = os.environ.get("NCWB_MAX_WORD_LEN", "")
    if not raw:
        return MAX_WORD_LEN_DEFAULT
    try:
        v = int(raw)
    except ValueError:
        raise WorkspaceError("NCWB_MAX_WORD_LEN must be an integer")
    if not 1 <= v <= 8:
        raise WorkspaceError("NCWB_MAX_WORD_LEN must lie in 1..8")
    return v


def _findings_json(rep: CheckReport):
    return [{"law": f.law, "witness": list(f.witness),
             "detail": f.detail} for f in rep.findings]


def _check_lines(label: str, rep: CheckReport) -> list:
    if rep.ok:
        return ["  %s: ok" % label]
    lines = ["  %s: %d finding(s)" % (label, len(rep.findings))]
    lines += ["    " + str(f) for f in rep.findings]
    return lines


def _checks_for(kind, obj) -> dict:
    """The axiom checkers that gate the exit code, by object kind."""
    if kind == "algebra":
        return {"algebra": check_algebra(obj)}
    if kind == "bimodule":
        return {"bimodule": check_bimodule(obj)}
    if kind == "calculus":
        return {"leibniz": check_leibniz(obj)}
    if kind == "cartan_pair":
        return {"cartan": check_cartan(obj)}
    if kind == "connection":
        return {"connection": check_connection(obj)}
    return {}


def cmd_check(args) -> int:
    ws = load_workspace(args.file)
    if args.name is not None:
        if args.name not in ws.objects:
            raise WorkspaceError("unknown object %r" % args.name)
        wanted = [args.name]
        if ws.objects[args.name].kind == "builtin":
            prefix = args.name + "."
            wanted += [n for n in ws.names() if n.startswith(prefix)]
    else:
        wanted = ws.names()
    failed = False
    for name in wanted:
        wo = ws.objects[name]
        checks = _checks_for(wo.kind, wo.obj)
        if not checks:
            sys.stdout.write("%s: bundle\n" % name)
            continue
        for label, rep in checks.items():
            if rep.ok:
                sys.stdout.write("%s: %s ok\n" % (name, label))
            else:
                failed = True
                sys.stdout.write("%s: %s %d finding(s)\n"
                                 % (name, label, len(rep.findings)))
                for f in rep.findings:
                    sys.stdout.write("  %s\n" % f)
    return 1 if failed else 0


def _emit(args, doc: dict, summary: str) -> int:
    parts = canonical_parts(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)
    sys.stderr.write(summary + "\n")
    return 0


# what each derivation takes as input
_DERIVE_INPUT = {"dual": "bimodule", "pair": "calculus",
                 "calculus": "cartan_pair", "universal": "algebra",
                 "couniversal": "algebra", "diffops": "cartan_pair",
                 "relations": "cartan_pair", "factorization": "cartan_pair"}
# derivations that run on their input as given, lawful or not
_UNGATED = ("diffops", "relations")


def _law_subjects(kind, obj) -> list:
    """(kind, object) for an object, its algebra and its bimodule, whose
    laws the object relies on; a connection answers for its calculus."""
    if kind == "algebra":
        return [(kind, obj)]
    if kind == "connection":
        return _law_subjects("calculus", obj.calculus) + [(kind, obj)]
    subjects = [("algebra", obj.algebra),
                ("bimodule", obj if kind == "bimodule" else obj.bimodule)]
    if kind in ("calculus", "cartan_pair"):
        subjects.append((kind, obj))
    return subjects


def cmd_derive(args) -> int:
    ws = load_workspace(args.file)
    wo = ws.get(args.name)
    kind, obj = wo.kind, wo.obj
    what = args.what
    expected = _DERIVE_INPUT[what]
    if kind != expected:
        raise WorkspaceError("derive %s needs a %s, but %r is a %s"
                             % (what, expected, args.name, kind))
    if what not in _UNGATED:
        failed = [rep for k, o in _law_subjects(kind, obj)
                  for rep in _checks_for(k, o).values() if not rep.ok]
        if failed:
            for rep in failed:
                sys.stderr.write("%s\n" % rep)
            sys.stderr.write("derive %s: %r breaks the laws above\n"
                             % (what, args.name))
            return 1

    if what == "dual":
        d = right_dual(obj)
        doc = {"schema": SCHEMA, "objects": {
            "algebra": algebra_decl(obj.algebra),
            "dual": bimodule_decl(d.bimodule, "algebra"),
        }}
        return _emit(args, doc, "right dual of %s: dim %d"
                     % (args.name, d.dim))

    if what == "pair":
        p = pair_from_calculus(obj)
        doc = {"schema": SCHEMA, "objects": {
            "algebra": algebra_decl(obj.algebra),
            "module": bimodule_decl(p.bimodule, "algebra"),
            "pair": cartan_pair_decl(p, "algebra", "module"),
        }}
        return _emit(args, doc, "pair over the dual of %s: %d field(s)"
                     % (args.name, p.bimodule.dim))

    if what == "calculus":
        c, _ = calculus_from_pair(obj)
        doc = {"schema": SCHEMA, "objects": {
            "algebra": algebra_decl(obj.algebra),
            "module": bimodule_decl(c.bimodule, "algebra"),
            "calculus": calculus_decl(c, "algebra", "module"),
        }}
        return _emit(args, doc, "calculus from %s: one-forms dim %d"
                     % (args.name, c.bimodule.dim))

    if what == "universal":
        u = universal_calculus(obj)
        doc = {"schema": SCHEMA, "objects": {
            "algebra": algebra_decl(obj),
            "module": bimodule_decl(u.bimodule, "algebra"),
            "calculus": calculus_decl(u, "algebra", "module"),
        }}
        return _emit(args, doc, "universal one-forms of %s: dim %d"
                     % (args.name, u.bimodule.dim))

    if what == "couniversal":
        cu = co_universal_pair(obj)
        doc = {"schema": SCHEMA, "objects": {
            "algebra": algebra_decl(obj),
            "module": bimodule_decl(cu.bimodule, "algebra"),
            "pair": cartan_pair_decl(cu, "algebra", "module"),
        }}
        return _emit(args, doc, "co-universal fields of %s: dim %d"
                     % (args.name, cu.bimodule.dim))

    if what == "diffops":
        alg = generate_diffop_algebra(obj)
        n = obj.algebra.dim
        doc = {"schema": SCHEMA, "objects": {}, "derived": {
            "kind": "operator_algebra",
            "dim": alg.dim,
            "basis": [matrix_rows(b) for b in alg.basis_operators(n)],
        }}
        return _emit(args, doc, "operator algebra of %s: dim %d"
                     % (args.name, alg.dim))

    if what == "relations":
        max_len = _max_word_len()
        rs = find_relations(obj, max_len=max_len)
        doc = {"schema": SCHEMA, "objects": {}, "derived": {
            "kind": "relation_basis",
            "max_word_len": max_len,
            "words": rs.words,
            "basis": SparseRows(len(rs.words), [((f, ONE),) + terms
                                                for f, terms in rs.rules]),
        }}
        return _emit(args, doc, "relations of %s: %d among %d words"
                     % (args.name, len(rs.rules), len(rs.words)))

    # what == "factorization"
    fact = co_universal_factorization(obj)
    doc = {"schema": SCHEMA, "objects": {}, "derived": {
        "kind": "factorization",
        "exists": fact.exists,
        "unique": fact.unique,
        "homogeneous_dim": fact.homogeneous_dim,
        "matrix": matrix_rows(fact.phi.matrix) if fact.phi else None,
    }}
    return _emit(args, doc, "factorization of %s: exists %s, unique %s"
                 % (args.name, fact.exists, fact.unique))


def _prepare_report(objects):
    """Each object's own checks, run once per report, and one universal
    calculus with its co-universal pair per lawful algebra, both keyed by
    object id; objects' algebras and bimodules are included."""
    checks, universals = {}, {}
    for wo in objects:
        for kind, obj in _law_subjects(wo.kind, wo.obj):
            if id(obj) in checks:
                continue
            checks[id(obj)] = _checks_for(kind, obj)
            if kind == "algebra" and checks[id(obj)]["algebra"].ok:
                u = universal_calculus(obj)
                universals[id(obj)] = (u, co_universal_pair(obj, u))
    return checks, universals


def _report_object(wo, checks_by_id, universals, max_len):
    """(checks dict, info list, json analysis dict) for one object."""
    info = []
    analysis = {}
    kind, obj = wo.kind, wo.obj
    # the analysis runs only on an object whose own laws and whose
    # algebra's and bimodule's laws hold; the failing object is reported
    # (and fails the run) under its own name
    ok = all(rep.ok for _, o in _law_subjects(kind, obj)
             for rep in checks_by_id[id(o)].values())
    checks = dict(checks_by_id[id(obj)])
    if kind == "algebra" and ok:
        u, cu = universals[id(obj)]
        analysis["universal_dim"] = u.bimodule.dim
        analysis["couniversal_dim"] = cu.bimodule.dim
        info.append("universal one-forms dim %d" % u.bimodule.dim)
        info.append("co-universal fields dim %d" % cu.bimodule.dim)
    elif kind == "bimodule":
        analysis["dim"] = obj.dim
        analysis["symmetric"] = obj.is_symmetric()
        info.append("dim %d, symmetric %s"
                    % (obj.dim, "yes" if obj.is_symmetric() else "no"))
    elif kind == "calculus" and ok:
        spanned = is_spanned_by_differential(obj)
        u, _ = universals[id(obj.algebra)]
        _phi, cert = factor_through_universal(obj, universal=u)
        analysis["spanned_by_differentials"] = spanned
        analysis["universal_factorization_ok"] = cert.ok
        info.append("spanned by differentials: %s"
                    % ("yes" if spanned else "no"))
        info.append("factors through the universal calculus: %s"
                    % ("yes" if cert.ok else "no"))
    elif kind == "cartan_pair" and ok:
        fock = fock_check(obj)
        ccr = check_ccr(obj)
        diag = spanning_kernel_diagnostic(obj)
        _, cu = universals[id(obj.algebra)]
        fact = co_universal_factorization(obj, cu)
        ops = generate_diffop_algebra(obj)
        rs = find_relations(obj, max_len=max_len)
        analysis["fock"] = _findings_json(fock)
        analysis["ccr"] = _findings_json(ccr)
        analysis["spanned"] = diag.spanned
        analysis["action_kernel_trivial"] = diag.kernel_trivial
        analysis["factorization"] = {
            "exists": fact.exists, "unique": fact.unique,
            "homogeneous_dim": fact.homogeneous_dim,
        }
        analysis["diffop_dim"] = ops.dim
        analysis["relations"] = {"count": len(rs.rules),
                                 "words": len(rs.words),
                                 "max_word_len": max_len}
        info.append("vacuum: %s" % ("ok" if fock.ok else "violated"))
        info.extend("  " + str(f) for f in fock.findings)
        if ccr.ok:
            info.append("commutation: classical (no violations)")
        else:
            info.append("commutation: %d violation witness(es)"
                        % len(ccr.findings))
            info.extend("  " + str(f) for f in ccr.findings)
        info.append("spanned %s / action kernel trivial %s"
                    % tuple("yes" if v else "no"
                            for v in (diag.spanned, diag.kernel_trivial)))
        info.append("co-universal factorization: exists %s, unique %s"
                    % (fact.exists, fact.unique))
        info.append("operator algebra dim %d" % ops.dim)
        info.append("relations: %d among %d words (length <= %d)"
                    % (len(rs.rules), len(rs.words), max_len))
    elif kind == "connection" and ok:
        pair = pair_from_calculus(obj.calculus)
        checks["covariant-axioms"] = check_covariant_axioms(obj, pair)
        analysis["rank"] = obj.module.dim // obj.calculus.algebra.dim
    return checks, info, analysis


def cmd_report(args) -> int:
    ws = load_workspace(args.file)
    max_len = _max_word_len()
    checks_by_id, universals = _prepare_report(
        [wo for wo in ws.objects.values() if wo.kind != "builtin"])
    failed = False
    json_doc = {"schema": SCHEMA, "report": {}}
    lines = []
    for name, wo in ws.objects.items():
        if wo.kind == "builtin":
            params = ""
            if wo.params:
                params = "(%s)" % ", ".join(str(p) for p in wo.params)
            lines.append("== %s: bundle %s%s" % (name, wo.obj.name, params))
            if wo.obj.notes:
                lines.append("  %s" % wo.obj.notes)
            json_doc["report"][name] = {"kind": "builtin",
                                        "builtin": wo.obj.name,
                                        "params": [str(p) for p in wo.params]}
            continue
        checks, info, analysis = _report_object(wo, checks_by_id,
                                                universals, max_len)
        lines.append("== %s: %s" % (name, wo.kind))
        entry = {"kind": wo.kind, "checks": {}, "analysis": analysis}
        for label, rep in checks.items():
            entry["checks"][label] = {"ok": rep.ok,
                                      "findings": _findings_json(rep)}
            if not rep.ok:
                failed = True
        json_doc["report"][name] = entry
        for label, rep in checks.items():
            lines.extend(_check_lines(label, rep))
        for line in info:
            lines.append("  " + line)
    json_doc["ok"] = not failed
    if args.format == "json":
        sys.stdout.write(canonical_text(json_doc))
    else:
        for line in lines:
            sys.stdout.write(line + "\n")
        sys.stdout.write("result: %s\n" % ("FAIL" if failed else "ok"))
    return 1 if failed else 0


def cmd_builtin(args) -> int:
    params = tuple(parse_rational(v, "parameter %d" % i)
                   for i, v in enumerate(args.params))
    try:
        bundle = catalog_builtin(args.bundle, params)
    except ValueError as e:
        raise WorkspaceError(str(e))
    objects = {"algebra": algebra_decl(bundle.algebra)}
    for mod_name in sorted(bundle.bimodules):
        objects[mod_name] = bimodule_decl(bundle.bimodules[mod_name],
                                          "algebra")
    if bundle.calculus is not None:
        objects["calculus_module"] = bimodule_decl(bundle.calculus.bimodule,
                                                   "algebra")
        objects["calculus"] = calculus_decl(bundle.calculus, "algebra",
                                            "calculus_module")
    if bundle.pair is not None:
        objects["pair_module"] = bimodule_decl(bundle.pair.bimodule,
                                               "algebra")
        objects["pair"] = cartan_pair_decl(bundle.pair, "algebra",
                                           "pair_module")
    doc = {"schema": SCHEMA, "objects": objects}
    summary = "bundle %s: algebra dim %d" % (bundle.name, bundle.algebra.dim)
    return _emit(args, doc, summary)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ncwb",
        description="Exact checks and derivations for algebras, calculi, "
                    "vector-field pairs, operator algebras and connections.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run axiom checkers over a workspace")
    c.add_argument("file")
    c.add_argument("name", nargs="?", default=None)
    c.set_defaults(func=cmd_check)

    d = sub.add_parser("derive", help="compute a derived object")
    d.add_argument("file")
    d.add_argument("name")
    d.add_argument("what", choices=(
        "dual", "pair", "calculus", "universal", "couniversal", "diffops",
        "relations", "factorization"))
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_derive)

    r = sub.add_parser("report", help="full pipeline report")
    r.add_argument("file")
    r.add_argument("--format", choices=("text", "json"), default="text")
    r.set_defaults(func=cmd_report)

    b = sub.add_parser("builtin", help="export a builtin bundle")
    b.add_argument("bundle")
    b.add_argument("params", nargs="*")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=cmd_builtin)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except WorkspaceError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except InvariantError as e:
        sys.stderr.write("error: law violated during construction: %s\n"
                         % e)
        return 1
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull so
        # the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
