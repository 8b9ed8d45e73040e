"""Command line front end: check, derive, report, builtin.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
usage error, or a document that could not be written: the reader of stdout
closed it early (a broken pipe; the rest of the output is dropped
silently), the -o path cannot be written, or a value has more digits than
str() converts, in a document or a finding.  An -o document that fails
part way is removed, and an existing -o file of the user's own is
replaced by a new file rather than truncated.  Documents go to stdout (or
-o), human summaries to stderr, so derived output stays byte-stable and
scriptable.

derive runs from one table, _DERIVE, of each kind's input, law gate and
document build; builtin writes the bundle's ExampleBundle.members.

The command line is read from one table too, _COMMANDS, with argparse's
grammar and messages: a long option by any unique prefix (--form json),
--opt=value and -oVALUE, the last of a repeated option wins; options may
come anywhere and -- ends them; positionals are filled one run of them
between options at a time, so in builtin b -o x 1 the 1 is unrecognized.
-h/--help prints the help and exits 0.  Help and usage text are
argparse's own, from parsers _argparser builds from _COMMANDS only when
one is printed, so no run that succeeds imports argparse.  Two readings
differ from argparse's.  A token that starts with - and a digit is a
positional, so builtin quantum_plane_trunc -1/2 2 takes q = -1/2
(argparse took -1/2 for an unknown option, though it took -1).  Only the
first -- is dropped: argparse dropped the first -- among each
positional's arguments, so derive f n -- -- read what as [] and failed
with a traceback.
"""

from __future__ import annotations

import os
import stat
import sys
from types import SimpleNamespace

from .algebra import right_dual
from .calculus import is_spanned_by_differential, universal_calculus
from .cartan import (
    calculus_from_pair, co_universal_factorization, co_universal_pair,
    pair_from_calculus, spanning_kernel_diagnostic,
)
from .catalog import builtin as catalog_builtin, law_checks
from .connections import check_covariant_axioms
from .diffops import ccr_from_laws, find_relations, \
    generate_diffop_algebra, order_filtration, word_count
from .linalg import ONE
from .reporting import CheckReport, InvariantError, with_article
from .workspace import (
    SCHEMA, SparseRows, WordList, WorkspaceError, algebra_decl,
    bimodule_decl, calculus_decl, canonical_parts, canonical_text,
    cartan_pair_decl, load_workspace, matrix_rows, parse_rational,
    too_many_digits,
)

MAX_WORD_LEN_DEFAULT = 4

# bytes an -o document is buffered in before each write: canonical_parts
# yields one piece per matrix row, and a write per row costs more than
# the document's formatting
OUTPUT_BUFFER = 1 << 18


def _max_word_len() -> int:
    raw = os.environ.get("NCWB_MAX_WORD_LEN", "")
    if not raw:
        return MAX_WORD_LEN_DEFAULT
    # ASCII [0-9]+ only: int() also takes " 3", "+3" and other digits
    if not (raw.isascii() and raw.isdigit()):
        raise WorkspaceError("NCWB_MAX_WORD_LEN must be an integer")
    digits = raw.lstrip("0")
    if len(digits) != 1 or not "1" <= digits <= "8":
        raise WorkspaceError("NCWB_MAX_WORD_LEN must lie in 1..8")
    return int(digits)


def _findings_json(rep: CheckReport):
    return [{"law": f.law, "witness": list(f.witness),
             "detail": f.detail} for f in rep.findings]


def _check_lines(label: str, rep: CheckReport) -> list:
    if rep.ok:
        return ["  %s: ok" % label]
    lines = ["  %s: %d finding(s)" % (label, len(rep.findings))]
    lines += ["    " + str(f) for f in rep.findings]
    return lines


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
        checks = law_checks(wo.kind, wo.obj)
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


def _unlink_own_file(path: str):
    """The lstat of path, once it is unlinked, if it is a regular file
    (not a symlink) of one link, in the effective user's own user and
    group, that the user may write and that has no extended attribute (an
    ACL is one) the new file would lose; otherwise None, and path is left
    as it is."""
    try:
        st = os.lstat(path)
        if not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                and st.st_uid == os.geteuid() and st.st_gid == os.getegid()
                and os.access(path, os.W_OK) and hasattr(os, "listxattr")
                and not os.listxattr(path, follow_symlinks=False)):
            return None
        os.unlink(path)
    except OSError:
        return None
    return st


def _write_file(path: str, parts) -> None:
    """Write parts to path through one OUTPUT_BUFFER-byte buffer.

    An existing file that _unlink_own_file takes is replaced: it is
    unlinked and a new file is created for the owner alone, then given the
    old group and permission bits, so the old data is neither truncated
    nor flushed to disk first.
    Any other path is written in place: a symlink's target, a file with
    another link, a file of another user's or group's, a file with an
    extended attribute, /dev/null, a FIFO; a path that cannot be written
    in place is refused as before.  A failure once the file is open
    removes it after it is closed, so no partial document is left behind;
    a path that is not a regular file is left alone."""
    old = _unlink_own_file(path)
    if old is None:
        fh = open(path, "w", encoding="utf-8", buffering=OUTPUT_BUFFER)
    else:
        # created with the owner's bits alone, so no one else can open it
        # before it has the old group and bits
        mode = stat.S_IMODE(old.st_mode)
        fh = open(path, "x", encoding="utf-8", buffering=OUTPUT_BUFFER,
                  opener=lambda p, flags: os.open(p, flags, mode & 0o700))
    regular = False
    try:
        with fh:
            st = os.fstat(fh.fileno())
            regular = stat.S_ISREG(st.st_mode)
            if old is not None:
                if st.st_gid != old.st_gid:     # a set-group-ID directory
                    os.fchown(fh.fileno(), -1, old.st_gid)
                os.fchmod(fh.fileno(), mode)
            fh.writelines(parts)
    except BaseException:
        if regular:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


def _emit(args, doc: dict, summary: str) -> int:
    parts = canonical_parts(doc)
    path = args.output
    try:
        if path is not None:
            _write_file(path, parts)
        else:
            sys.stdout.writelines(parts)
    except BrokenPipeError:
        raise
    except OSError as e:
        raise WorkspaceError("cannot write %s: %s" % (
            "stdout" if path is None else path, e.strerror))
    except ValueError:
        # str() of a matrix entry, formatted as it is written
        raise too_many_digits("output")
    sys.stderr.write(summary + "\n")
    return 0


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


def _dual_doc(m, name: str) -> tuple:
    d = right_dual(m)
    return {"schema": SCHEMA, "objects": {
        "algebra": algebra_decl(m.algebra),
        "dual": bimodule_decl(d, "algebra"),
    }}, "right dual of %s: dim %d" % (name, d.dim)


def _on_module(make, key: str, decl, summary: str):
    """The build of a derivation whose document holds the algebra, the
    bimodule of the derived object as "module" and the object as key."""
    def build(obj, name: str) -> tuple:
        x = make(obj)
        return {"schema": SCHEMA, "objects": {
            "algebra": algebra_decl(x.algebra),
            "module": bimodule_decl(x.bimodule, "algebra"),
            key: decl(x, "algebra", "module"),
        }}, summary % (name, x.bimodule.dim)
    return build


def _derived(make):
    """The build of a derivation whose document holds no object, only the
    derived value that make returns with its summary."""
    def build(obj, name: str) -> tuple:
        derived, summary = make(obj, name)
        return {"schema": SCHEMA, "objects": {}, "derived": derived}, summary
    return build


@_derived
def _diffops_doc(pair, name: str) -> tuple:
    alg = generate_diffop_algebra(pair)
    n = pair.algebra.dim
    return {"kind": "operator_algebra", "dim": alg.dim,
            "basis": [matrix_rows(b) for b in alg.matrix.row_matrices(n, n)],
            }, "operator algebra of %s: dim %d" % (name, alg.dim)


@_derived
def _relations_doc(pair, name: str) -> tuple:
    max_len = _max_word_len()
    rs = find_relations(pair, max_len=max_len)
    code = {x: k for k, x in enumerate(rs.letters)}
    return {"kind": "relation_basis", "max_word_len": max_len,
            "words": WordList(rs.letters, [[code[x] for x in w]
                                           for w in rs.words]),
            "basis": SparseRows(len(rs.words), [((f, ONE),) + terms
                                                for f, terms in rs.rules]),
            }, "relations of %s: %d among %d words" % (
                name, len(rs.rules), len(rs.words))


@_derived
def _factorization_doc(pair, name: str) -> tuple:
    fact = co_universal_factorization(pair)
    return {"kind": "factorization", "exists": fact.exists,
            "unique": fact.unique, "homogeneous_dim": fact.homogeneous_dim,
            "matrix": matrix_rows(fact.phi.matrix) if fact.phi else None,
            }, "factorization of %s: exists %s, unique %s" % (
                name, fact.exists, fact.unique)


# what -> (the kind it takes, whether its input must pass its laws first,
# build(object, name) -> (document, summary)), in the order usage lists
# them; diffops and relations run on their input as given, lawful or not.
# Each construction is looked up when it is called, so a wrapper put on
# this module's name (a tracer, a test's stand-in) is the one that runs.
_DERIVE = {
    "dual": ("bimodule", True, _dual_doc),
    "pair": ("calculus", True, _on_module(
        lambda c: pair_from_calculus(c), "pair", cartan_pair_decl,
        "pair over the dual of %s: %d field(s)")),
    "calculus": ("cartan_pair", True, _on_module(
        lambda p: calculus_from_pair(p)[0], "calculus", calculus_decl,
        "calculus from %s: one-forms dim %d")),
    "universal": ("algebra", True, _on_module(
        lambda a: universal_calculus(a), "calculus", calculus_decl,
        "universal one-forms of %s: dim %d")),
    "couniversal": ("algebra", True, _on_module(
        lambda a: co_universal_pair(a), "pair", cartan_pair_decl,
        "co-universal fields of %s: dim %d")),
    "diffops": ("cartan_pair", False, _diffops_doc),
    "relations": ("cartan_pair", False, _relations_doc),
    "factorization": ("cartan_pair", True, _factorization_doc),
}


def cmd_derive(args) -> int:
    ws = load_workspace(args.file)
    wo = ws.get(args.name)
    kind, obj = wo.kind, wo.obj
    what = args.what
    expected, gated, build = _DERIVE[what]
    if kind != expected:
        raise WorkspaceError("derive %s needs %s, but %r is %s" % (
            what, with_article(expected), args.name, with_article(kind)))
    if gated:
        failed = [rep for k, o in _law_subjects(kind, obj)
                  for rep in law_checks(k, o).values() if not rep.ok]
        if failed:
            for rep in failed:
                sys.stderr.write("%s\n" % rep)
            sys.stderr.write("derive %s: %r breaks the laws above\n"
                             % (what, args.name))
            return 1
    doc, summary = build(obj, args.name)
    return _emit(args, doc, summary)


def _prepare_report(objects) -> dict:
    """Each object's own checks, keyed by object id; objects' algebras and
    bimodules are included.  The checks of a builtin member are the
    catalog's verdicts; every other object is checked once per report.
    Nothing else is built here: the universal and co-universal analysis
    is read from closed forms (_report_object)."""
    checks = {}
    for wo in objects:
        for kind, obj in _law_subjects(wo.kind, wo.obj):
            if id(obj) not in checks:
                checks[id(obj)] = law_checks(kind, obj)
    return checks


def _report_object(wo, checks_by_id, max_len):
    """(checks dict, info list, json analysis dict) for one object.

    The universal and co-universal part of the analysis is read from the
    closed forms proved below.  They hold only on an algebra, calculus or
    pair that passes its own checks and whose algebra and bimodule pass
    theirs, so only such an object gets that analysis; derive universal,
    couniversal and factorization build the full constructions instead.

    Algebra, of dimension n.  m: A (x) A -> A is onto, as m(1 (x) f) = f,
    so dim Omega_u = dim ker m = n^2 - n.  X_u, the right dual of
    Omega_u, is {D in End(A) : D(1) = 0} by D -> X_D: every right module
    map Omega_u -> A is X_D(sum w_ij e_i (x) e_j) = sum w_ij D(e_i) e_j
    for one such D, and D -> X_D is injective there, since
    X_D(du f) = -D(f).  D(1) = 0 is n independent conditions (1 != 0), so
    dim X_u = n^2 - n as well.

    Calculus (M, d).  phi(sum f_i (x) g_i) = sum f_i.dg_i on Omega_u is
    left linear because the left action is, and for sum f_i g_i = 0 the
    Leibniz law gives phi(w.h) = sum f_i.d(g_i h) = phi(w).h
    + (sum f_i g_i).dh = phi(w).h.  Leibniz also gives
    d1 = d(1 1) = 2 d1, so d1 = 0 and phi(du f) = df - f.d1 = df.  Any
    such map is phi on f.du(g) = f (x) g - fg (x) 1, and these span
    Omega_u (Omega_u = A.du(A)), so phi is unique: the factorization
    holds.

    Pair (N, X).  X_D acts as -D, so Phi(t) is the vector of X_u with
    D = -X_t, which lies in X_u as X_t(1) = 0, the unit-annihilation law
    of check_cartan.  X_u acts faithfully (D -> -D), so Phi is a bimodule
    map exactly when the actions agree.  Under f.D = L_f o D,
    Phi(f.t) = f.Phi(t) reads X_{f.t} = L_f o X_t, action linearity;
    under D.g = D o L_g - L_{D(g)}, Phi(t.g) = Phi(t).g reads
    X_{t.g} = X_t o L_g - L_{X_t(g)}, the twisted Leibniz law.  So Phi
    exists, and faithfulness makes it unique: no homogeneous solution.

    Vacuum.  diffops.fock_check finds vacuum-annihilation at t when
    X_t(1) != 0, the unit-annihilation finding of check_cartan at t, and
    vacuum-reproduction at i when l_i(1) = e_i 1 != e_i, the right-unit
    finding of check_algebra at i.  Both checks pass on a pair that gets
    this analysis, so 1 is a vacuum there.

    Commutation.  With X = [X_0 | ... | X_{m-1}], L_i and R_i the actions
    of e_i on N and K_i the n x m matrix whose column t is X_t(e_i),
    diffops.check_ccr compares X (I_m (x) l_i) - l_i X, whose block t is
    [X_t, l_i], with [l_0 | ... | l_{n-1}] (K_i (x) I_n), whose block t
    is l(X_t(e_i)).  The two pair laws, as cartan.pair_law_sides writes
    them out, are X (I_m (x) l_i) = [l] (K_i (x) I_n) + X (R_i (x) I_n),
    twisted Leibniz, and X (L_i (x) I_n) = l_i X, action linearity.  So
    the defect is X (R_i (x) I_n) - X (L_i (x) I_n) = X ((R_i - L_i) (x)
    I_n): its block t is X_{X_t.e_i - e_i.X_t}, the action of the
    bimodule commutator.  A central e_i (L_i = R_i) has no defect, and a
    commutator witness (i, t) needs column t of L_i - R_i non-zero, a
    centrality witness.  diffops.ccr_from_laws reads check_ccr's findings
    off this identity, one block_combination per non-central e_i.
    """
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
        dim = obj.dim * (obj.dim - 1)
        analysis["universal_dim"] = analysis["couniversal_dim"] = dim
        info.append("universal one-forms dim %d" % dim)
        info.append("co-universal fields dim %d" % dim)
    elif kind == "bimodule":
        symmetric = obj.is_symmetric()
        analysis["dim"] = obj.dim
        analysis["symmetric"] = symmetric
        info.append("dim %d, symmetric %s"
                    % (obj.dim, "yes" if symmetric else "no"))
    elif kind == "calculus" and ok:
        spanned = is_spanned_by_differential(obj)
        analysis["spanned_by_differentials"] = spanned
        analysis["universal_factorization_ok"] = True
        info.append("spanned by differentials: %s"
                    % ("yes" if spanned else "no"))
        info.append("factors through the universal calculus: yes")
    elif kind == "cartan_pair" and ok:
        ccr = ccr_from_laws(obj)
        diag = spanning_kernel_diagnostic(obj)
        # the order filtration gives the relation count at every length
        # and, on a lawful pair, the operator algebra's dimension as its
        # stable value (see the diffops module docstring)
        dims = order_filtration(obj)
        diffop_dim = dims[-1]
        words = word_count(obj, max_len)
        relations = words - dims[min(max_len, len(dims)) - 1]
        analysis["fock"] = []
        analysis["ccr"] = _findings_json(ccr)
        analysis["spanned"] = diag.spanned
        analysis["action_kernel_trivial"] = diag.kernel_trivial
        analysis["factorization"] = {"exists": True, "unique": True,
                                     "homogeneous_dim": 0}
        analysis["diffop_dim"] = diffop_dim
        analysis["relations"] = {"count": relations, "words": words,
                                 "max_word_len": max_len}
        info.append("vacuum: ok")
        if ccr.ok:
            info.append("commutation: classical (no violations)")
        else:
            info.append("commutation: %d violation witness(es)"
                        % len(ccr.findings))
            info.extend("  " + str(f) for f in ccr.findings)
        info.append("spanned %s / action kernel trivial %s"
                    % tuple("yes" if v else "no"
                            for v in (diag.spanned, diag.kernel_trivial)))
        info.append("co-universal factorization: exists True, unique True")
        info.append("operator algebra dim %d" % diffop_dim)
        info.append("relations: %d among %d words (length <= %d)"
                    % (relations, words, max_len))
    elif kind == "connection" and ok:
        pair = pair_from_calculus(obj.calculus)
        checks["covariant-axioms"] = check_covariant_axioms(obj, pair)
        analysis["rank"] = obj.module.dim // obj.calculus.algebra.dim
    return checks, info, analysis


def cmd_report(args) -> int:
    ws = load_workspace(args.file)
    max_len = _max_word_len()
    checks_by_id = _prepare_report(
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
        checks, info, analysis = _report_object(wo, checks_by_id, max_len)
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
    objects = {}
    for child, kind, obj in bundle.members():
        if kind == "algebra":
            objects[child] = algebra_decl(obj)
        elif kind == "bimodule":
            objects[child] = bimodule_decl(obj, "algebra")
        else:
            decl = calculus_decl if kind == "calculus" else cartan_pair_decl
            objects[child] = decl(obj, "algebra", child + "_module")
    doc = {"schema": SCHEMA, "objects": objects}
    summary = "bundle %s: algebra dim %d" % (bundle.name, bundle.algebra.dim)
    return _emit(args, doc, summary)


# command -> (handler, help, positionals, options), in the order usage
# lists them.  A positional is (name, arity, choices): arity 1, "?" (at
# most one) or "*" (any number).  An option is (flags, dest, choices,
# default) and takes one value.  -h/--help belongs to every command and
# to the top level.
_OUTPUT = (("-o", "--output"), "output", None, None)
_COMMANDS = {
    "check": (cmd_check, "run axiom checkers over a workspace",
              (("file", 1, None), ("name", "?", None)), ()),
    "derive": (cmd_derive, "compute a derived object",
               (("file", 1, None), ("name", 1, None),
                ("what", 1, tuple(_DERIVE))), (_OUTPUT,)),
    "report": (cmd_report, "full pipeline report", (("file", 1, None),),
               ((("--format",), "format", ("text", "json"), "text"),)),
    "builtin": (cmd_builtin, "export a builtin bundle",
                (("bundle", 1, None), ("params", "*", None)), (_OUTPUT,)),
}


def _say(stream, text: str) -> None:
    """Write help or a usage error; like argparse, drop it if the stream
    is gone or closed."""
    try:
        stream.write(text)
    except (AttributeError, OSError):
        pass


def _argparser(command):
    """argparse's parser of one command (None for the top level), built
    from _COMMANDS.  It only formats help and usage: _parse reads argv."""
    import argparse
    top = argparse.ArgumentParser(
        prog="ncwb",
        description="Exact checks and derivations for algebras, calculi, "
                    "vector-field pairs, operator algebras and connections.")
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {None: top}
    for name, (_, what, positionals, options) in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=what)
        for arg, arity, choices in positionals:
            p.add_argument(arg, nargs=None if arity == 1 else arity,
                           choices=choices)
        for flags, dest, choices, default in options:
            p.add_argument(*flags, dest=dest, choices=choices,
                           default=default)
    return parsers[command]


def _error(command, message: str):
    """argparse's usage error: the usage and the reason on stderr, exit 2.
    Not argparse's error(), which writes to stdout if stderr is None."""
    p = _argparser(command)
    _say(sys.stderr, p.format_usage() + "%s: error: %s\n" % (p.prog, message))
    raise SystemExit(2)


def _check_choice(command, name: str, value, choices) -> None:
    if choices is not None and value not in choices:
        _error(command, "argument %s: invalid choice: %r (choose from %s)"
               % (name, value, ", ".join(map(repr, choices))))


def _flags(command) -> dict:
    """flag -> its option row (None for -h/--help) in one parser, in
    argparse's order: the help flags first."""
    flags = {"-h": None, "--help": None}
    for opt in () if command is None else _COMMANDS[command][3]:
        flags.update(dict.fromkeys(opt[0], opt))
    return flags


def _read(command, flags: dict, tokens) -> list:
    """Each token as argparse classifies it: "A" a positional, "-" the
    first "--" (every token after it is "A"), else (flag, its explicit
    value or None), flag None for an option this parser lacks."""
    kinds = []
    for k, tok in enumerate(tokens):
        if tok == "--":
            return kinds + ["-"] + ["A"] * (len(tokens) - k - 1)
        kinds.append(_read_token(command, flags, tok))
    return kinds


def _read_token(command, flags: dict, tok: str):
    if tok[:1] != "-" or tok == "-":
        return "A"
    if tok in flags:
        return tok, None
    # a number is a positional: argparse reads -5 and -.5 so (but -1/2 as
    # an option); here every token that starts with - and a digit is one
    if tok[1].isdecimal() or (tok[1] == "."
                              and tok[2:].removesuffix("\n").isdecimal()):
        return "A"
    name, eq, value = tok.partition("=")
    if eq and name in flags:
        return name, value
    if tok[1] != "-":
        # a short flag and its value in one token, -oX
        hits = [(tok[:2], tok[2:])] if tok[:2] in flags else []
    else:
        # a long flag by a unique prefix, --out or --out=X
        hits = [(f, value if eq else None) for f in flags
                if f.startswith(name)]
    if len(hits) > 1:
        _error(command, "ambiguous option: %s could match %s"
               % (tok, ", ".join(f for f, _ in hits)))
    if hits:
        return hits[0]
    # argparse reads a token with a space in it as a positional
    return "A" if " " in tok else (None, None)


def _take_option(command, flags, tokens, kinds, i, ns, extras) -> int:
    """Apply the option at tokens[i], with its value; the index after
    them.  An option this parser lacks is unrecognized."""
    flag, value = kinds[i]
    if flag is None:
        extras.append(tokens[i])
        return i + 1
    taken = []
    while flags[flag] is None and value is not None:
        # -h takes no value: -hX reads X as more short flags, as argparse
        # does
        if flag[1] == "-" or "-" + value[:1] not in flags:
            _error(command, "argument -h/--help: ignored explicit "
                            "argument %r" % value)
        taken.append(None)
        flag, value = "-" + value[0], value[1:] or None
    opt = flags[flag]
    stop = i + 1
    if opt is not None and value is None:
        if stop == len(tokens) or kinds[stop] != "A":
            _error(command, "argument %s: expected one argument"
                   % "/".join(opt[0]))
        value = tokens[stop]
        stop += 1
    for opt in taken + [opt]:
        if opt is None:
            _say(sys.stdout, _argparser(command).format_help())
            raise SystemExit(0)
        _check_choice(command, "/".join(opt[0]), value, opt[2])
        setattr(ns, opt[1], value)
    return stop


def _fill(command, pending: list, run, kinds, ns, extras) -> list:
    """Fill positionals from one run of tokens between options, as
    argparse does: the most leading pending positionals the run's
    arguments satisfy, each taking all it can that leaves one argument
    for every required positional after it.  Only the first "--" is
    dropped; tokens left over are unrecognized.  The positionals still
    pending."""
    args = [tok for tok, kind in zip(run, kinds) if kind == "A"]
    need = [arity == 1 for _, arity, _ in pending]
    n = len(pending)
    while sum(need[:n]) > len(args):
        n -= 1
    used = 0
    for k, (name, arity, choices) in enumerate(pending[:n]):
        room = len(args) - used - sum(need[k + 1:n])
        values = args[used:used + (room if arity == "*" else min(room, 1))]
        used += len(values)
        for v in values:
            _check_choice(command, name, v, choices)
        setattr(ns, name, values if arity == "*"
                else values[0] if values else None)
    # the run's tokens up to the last argument taken, and a "--" after it
    end = 0
    while used:
        used -= kinds[end] == "A"
        end += 1
    if n and end < len(run) and kinds[end] == "-":
        end += 1
    extras.extend(run[end:])
    return pending[n:]


def _parse(argv) -> SimpleNamespace:
    """The command line read as argparse read it (see the module
    docstring): a namespace with command, func and the command's
    positionals and options.  -h/--help writes the help and exits 0; a
    usage error writes the usage and the reason to stderr and exits 2."""
    ns = SimpleNamespace(command=None)
    extras = []
    flags = _flags(None)
    kinds = _read(None, flags, argv)
    i = 0
    while i < len(argv) and type(kinds[i]) is tuple:
        i = _take_option(None, flags, argv, kinds, i, ns, extras)
    if i == len(argv) or kinds[i] == "-" and i + 1 == len(argv):
        _error(None, "the following arguments are required: command")
    command = ns.command = argv[i]
    _check_choice(None, "command", command, _COMMANDS)
    func, _, positionals, options = _COMMANDS[command]
    ns.func = func
    for name, _, _ in positionals:
        setattr(ns, name, None)
    for _, dest, _, default in options:
        setattr(ns, dest, default)
    tokens = argv[i + 1:]
    flags = _flags(command)
    kinds = _read(command, flags, tokens)
    pending = list(positionals)
    i = 0
    while True:
        j = i
        while j < len(tokens) and type(kinds[j]) is not tuple:
            j += 1
        pending = _fill(command, pending, tokens[i:j], kinds[i:j], ns,
                        extras)
        if j == len(tokens):
            break
        i = _take_option(command, flags, tokens, kinds, j, ns, extras)
    # argparse names a "*" positional with no default as missing too
    missing = [name for name, arity, _ in pending if arity != "?"]
    if missing:
        _error(command, "the following arguments are required: %s"
               % ", ".join(missing))
    if extras:
        _error(None, "unrecognized arguments: %s" % " ".join(extras))
    return ns


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
