"""Workspace files: named algebraic objects in a strict JSON layout.

A file carries a schema tag and a dictionary of declarations.  Rationals
travel as integers or exact strings like "-3/7"; floats are refused.
References are by name and may point at any declaration in the file,
whatever its position.  A builtin declaration expands into dotted child
names (bundle.algebra, bundle.regular, ...) that other objects may
reference.

Loading only enforces shapes and reference integrity; mathematical laws
are the business of the checkers, so a broken table still loads and can
then be reported on.  Writing gives json's own indented text, with the
SparseRows and WordList tables spliced into it (canonical_parts).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from .linalg import Matrix
from .algebra import Algebra, Bimodule, LeftModule, tensor_over_A
from .calculus import DifferentialCalculus
from .cartan import CartanPair
from .catalog import builtin
from .connections import Connection
from .reporting import (WorkspaceError, format_rational, too_many_digits,
                        with_article)

SCHEMA = "ncwb/1"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise WorkspaceError("%s: expected a rational, got a boolean" % where)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if not _RATIONAL_RE.fullmatch(v):
            raise WorkspaceError("%s: %r is not an exact rational" % (where, v))
        num, _, den = v.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:
            raise too_many_digits(where)
        if den == 0:
            raise WorkspaceError("%s: zero denominator in %r" % (where, v))
        return Fraction(num, den)
    raise WorkspaceError("%s: expected a rational, got %r" % (where, v))


def _vector_from(data, length: int, where: str):
    if not isinstance(data, list) or len(data) != length:
        raise WorkspaceError("%s: expected a list of %d rationals"
                             % (where, length))
    return tuple(parse_rational(v, where) for v in data)


def _matrix_from(data, nrows: int, ncols: int, where: str) -> Matrix:
    if not isinstance(data, list) or len(data) != nrows:
        raise WorkspaceError("%s: expected %d matrix rows" % (where, nrows))
    rows = tuple(_vector_from(r, ncols, "%s row %d" % (where, i))
                 for i, r in enumerate(data))
    return Matrix(rows, ncols=ncols)


def matrix_rows(m: Matrix) -> "SparseRows":
    """m's rows as the JSON lists of their rational strings, written from
    its sparse integer rows."""
    den, rows = m.int_rows()
    return SparseRows(m.ncols, [[(j, Fraction(x, den)) for j, x in row]
                                for row in rows])


def vector_strings(v):
    return [format_rational(x) for x in v]


class WorkspaceObject:
    def __init__(self, name: str, kind: str, obj, params: tuple = ()):
        self.name, self.kind, self.obj = name, kind, obj
        self.params = params       # builtin rows remember their parameters


class Workspace:
    def __init__(self):
        self.objects: dict = {}    # name -> WorkspaceObject, load order

    def add(self, wo: WorkspaceObject):
        if wo.name in self.objects:
            raise ValueError("the workspace already holds an object named %r"
                             % wo.name)
        self.objects[wo.name] = wo

    def get(self, name: str) -> WorkspaceObject:
        if name not in self.objects:
            raise WorkspaceError("unknown object %r" % name)
        return self.objects[name]

    def names(self):
        return list(self.objects)

    def _ref(self, decl, key: str, kind: str, where: str):
        if key not in decl:
            raise WorkspaceError("%s: missing %r reference" % (where, key))
        name = decl[key]
        if not isinstance(name, str) or name not in self.objects:
            raise WorkspaceError("%s: reference %r does not resolve"
                                 % (where, name))
        wo = self.objects[name]
        if wo.kind != kind:
            raise WorkspaceError("%s: %r is %s, expected %s" % (
                where, name, with_article(wo.kind), with_article(kind)))
        return wo.obj


def _check_keys(decl, allowed, where: str):
    extra = set(decl) - set(allowed) - {"kind", "notes"}
    if extra:
        raise WorkspaceError("%s: unknown field(s) %s"
                             % (where, ", ".join(sorted(extra))))


def _build_algebra(ws, decl, where):
    _check_keys(decl, ("basis", "products", "unit"), where)
    basis = decl.get("basis")
    if not isinstance(basis, list) or not basis \
            or not all(isinstance(s, str) for s in basis):
        raise WorkspaceError("%s: basis must be a list of names" % where)
    n = len(basis)
    prods = decl.get("products")
    if not isinstance(prods, list) or len(prods) != n \
            or any(not isinstance(row, list) or len(row) != n for row in prods):
        raise WorkspaceError("%s: products must be an %dx%d table" % (where, n, n))
    sc = [[_vector_from(prods[i][j], n, "%s products[%d][%d]" % (where, i, j))
           for j in range(n)] for i in range(n)]
    unit = _vector_from(decl.get("unit"), n, "%s unit" % where)
    try:
        return Algebra(basis, sc, unit)
    except ValueError as e:
        raise WorkspaceError("%s: %s" % (where, e))


def _build_bimodule(ws, decl, where):
    _check_keys(decl, ("algebra", "dim", "left", "right"), where)
    a = ws._ref(decl, "algebra", "algebra", where)
    dim = decl.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise WorkspaceError("%s: dim must be a nonnegative integer" % where)
    mats = {}
    for side in ("left", "right"):
        data = decl.get(side)
        if not isinstance(data, list) or len(data) != a.dim:
            raise WorkspaceError("%s: %s needs one matrix per algebra basis "
                                 "vector" % (where, side))
        mats[side] = tuple(
            _matrix_from(data[i], dim, dim, "%s %s[%d]" % (where, side, i))
            for i in range(a.dim))
    try:
        return Bimodule(a, dim, mats["left"], mats["right"])
    except ValueError as e:
        raise WorkspaceError("%s: %s" % (where, e))


def _build_calculus(ws, decl, where):
    _check_keys(decl, ("algebra", "module", "d"), where)
    a = ws._ref(decl, "algebra", "algebra", where)
    m = ws._ref(decl, "module", "bimodule", where)
    if m.algebra is not a:
        raise WorkspaceError("%s: module is over a different algebra" % where)
    d = _matrix_from(decl.get("d"), m.dim, a.dim, "%s d" % where)
    return DifferentialCalculus(a, m, d)


def _build_cartan_pair(ws, decl, where):
    _check_keys(decl, ("algebra", "module", "action"), where)
    a = ws._ref(decl, "algebra", "algebra", where)
    m = ws._ref(decl, "module", "bimodule", where)
    if m.algebra is not a:
        raise WorkspaceError("%s: module is over a different algebra" % where)
    data = decl.get("action")
    if not isinstance(data, list) or len(data) != m.dim:
        raise WorkspaceError("%s: action needs one matrix per module basis "
                             "vector" % where)
    acts = tuple(_matrix_from(data[t], a.dim, a.dim,
                              "%s action[%d]" % (where, t))
                 for t in range(m.dim))
    return CartanPair(a, m, acts)


def _build_connection(ws, decl, where):
    _check_keys(decl, ("calculus", "rank", "matrix"), where)
    c = ws._ref(decl, "calculus", "calculus", where)
    rank_ = decl.get("rank")
    if not isinstance(rank_, int) or isinstance(rank_, bool) or rank_ < 0:
        raise WorkspaceError("%s: rank must be a nonnegative integer" % where)
    # each row is n * rank wide, and tensor_over_A splits A^rank into rank
    # equal blocks, so M (x)_A A^rank has rank times the dimension of
    # M (x)_A A, lawful or not: the widths, then the row count, are
    # checked before anything of the rank's size is built
    data, width = decl.get("matrix"), c.algebra.dim * rank_
    for i, r in enumerate(data if isinstance(data, list) else ()):
        if not isinstance(r, list) or len(r) != width:
            raise WorkspaceError("%s matrix row %d: expected a list of %d "
                                 "rationals" % (where, i, width))
    q = rank_ and rank_ * tensor_over_A(
        c.bimodule, LeftModule.free(c.algebra, 1)).module.dim
    mat = _matrix_from(data, q, width, "%s matrix" % where)
    e = LeftModule.free(c.algebra, rank_)
    return Connection(c, e, tensor_over_A(c.bimodule, e), mat)


def _expand_builtin(ws, name, decl, where):
    _check_keys(decl, ("builtin", "params"), where)
    bname = decl.get("builtin")
    if not isinstance(bname, str):
        raise WorkspaceError("%s: builtin must name a bundle" % where)
    raw = decl.get("params", [])
    if not isinstance(raw, list):
        raise WorkspaceError("%s: params must be a list" % where)
    params = tuple(parse_rational(v, "%s params[%d]" % (where, i))
                   for i, v in enumerate(raw))
    try:
        bundle = builtin(bname, params)
    except ValueError as e:
        raise WorkspaceError("%s: %s" % (where, e))
    ws.add(WorkspaceObject(name, "builtin", bundle, params))
    for child, kind, obj in bundle.members():
        ws.add(WorkspaceObject("%s.%s" % (name, child), kind, obj))


_BUILDERS = {
    "algebra": _build_algebra,
    "bimodule": _build_bimodule,
    "calculus": _build_calculus,
    "cartan_pair": _build_cartan_pair,
    "connection": _build_connection,
}


def _reject_float(s):
    raise WorkspaceError("float literal %r is not allowed; use p/q strings"
                         % s)


def _reject_duplicate_keys(pairs):
    out = {}
    for k, v in pairs:
        if k in out:
            raise WorkspaceError("duplicate key %r" % k)
        out[k] = v
    return out


# Build order by dependency depth; names may reference any declaration in
# the document, so a sorted re-export always parses.
_KIND_LEVEL = {"builtin": 0, "algebra": 0, "bimodule": 1,
               "calculus": 2, "cartan_pair": 2, "connection": 3}


def parse_workspace(text: str) -> Workspace:
    try:
        doc = json.loads(text, parse_float=_reject_float,
                         parse_constant=_reject_float,
                         object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as e:
        raise WorkspaceError("not valid JSON: %s" % e)
    except ValueError:
        # an integer literal past Python's integer-string conversion limit
        raise WorkspaceError("an integer literal of more than %d digits"
                             % sys.get_int_max_str_digits())
    except RecursionError:
        raise WorkspaceError("not valid JSON: nested too deeply")
    if not isinstance(doc, dict):
        raise WorkspaceError("top level must be an object")
    extra = set(doc) - {"schema", "objects", "derived"}
    if extra:
        raise WorkspaceError("unknown top-level field(s): %s"
                             % ", ".join(sorted(extra)))
    if doc.get("schema") != SCHEMA:
        raise WorkspaceError("missing or unsupported schema, expected %r"
                             % SCHEMA)
    objects = doc.get("objects", {})
    if not isinstance(objects, dict):
        raise WorkspaceError("objects must be a dictionary")
    order = []
    for name, decl in objects.items():
        where = "object %r" % name
        if not _NAME_RE.match(name):
            raise WorkspaceError("%s: bad name (letters, digits, _, -; no "
                                 "dots)" % where)
        if not isinstance(decl, dict):
            raise WorkspaceError("%s: declaration must be an object" % where)
        kind = decl.get("kind")
        if not isinstance(kind, str) or kind not in _KIND_LEVEL:
            raise WorkspaceError("%s: unknown kind %r" % (where, kind))
        order.append((name, kind, decl, where))
    ws = Workspace()
    for level in range(4):
        for name, kind, decl, where in order:
            if _KIND_LEVEL[kind] != level:
                continue
            if kind == "builtin":
                _expand_builtin(ws, name, decl, where)
            else:
                obj = _BUILDERS[kind](ws, decl, where)
                ws.add(WorkspaceObject(name, kind, obj))
    ordered = {}
    for name, kind, decl, where in order:
        ordered[name] = ws.objects[name]
        if kind == "builtin":
            prefix = name + "."
            for child in ws.objects:
                if child.startswith(prefix):
                    ordered[child] = ws.objects[child]
    ws.objects = ordered
    return ws


def load_workspace(path: str) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise WorkspaceError("cannot read %s: %s" % (path, e))
    return parse_workspace(text)


# ---- canonical serialization ------------------------------------------

def algebra_decl(a: Algebra) -> dict:
    return {
        "kind": "algebra",
        "basis": list(a.basis_names),
        # formatted now: a value too long to write is refused before output
        "products": [SparseRows(a.dim, [[(k, format_rational(x))
                                         for k, x in enumerate(v) if x]
                                        for v in row]) for row in a.sc],
        "unit": vector_strings(a.unit),
    }


def bimodule_decl(m: Bimodule, algebra_ref: str) -> dict:
    return {
        "kind": "bimodule",
        "algebra": algebra_ref,
        "dim": m.dim,
        "left": [matrix_rows(x) for x in m.left],
        "right": [matrix_rows(x) for x in m.right],
    }


def calculus_decl(c: DifferentialCalculus, algebra_ref: str,
                  module_ref: str) -> dict:
    return {
        "kind": "calculus",
        "algebra": algebra_ref,
        "module": module_ref,
        "d": matrix_rows(c.d),
    }


def cartan_pair_decl(p: CartanPair, algebra_ref: str,
                     module_ref: str) -> dict:
    return {
        "kind": "cartan_pair",
        "algebra": algebra_ref,
        "module": module_ref,
        "action": [matrix_rows(x) for x in p.action],
    }


class SparseRows:
    """A list of rows of width exact values each, written as JSON lists of
    their strings: rows[k] holds (column, cell) pairs in increasing column
    for its non-zero cells, a cell a value or its text, and every other cell
    reads "0".  A relation basis is W entries wide with a handful of them
    non-zero, so the writer copies the zeros from one all-"0" row text."""

    def __init__(self, width: int, rows: Sequence):
        self.width, self.rows = width, rows


class WordList:
    """A list of words, each written as the JSON list of its letters:
    letters is the table of the distinct letters, each a JSON value, and
    words[w] lists the positions in that table of the letters of word w.
    A relation search has W words over n + p letters, so the writer
    formats each letter once and copies its text."""

    def __init__(self, letters: Sequence, words: Sequence):
        self.letters, self.words = letters, words


def canonical_text(doc: dict) -> str:
    """The bytes of json.dumps(doc, indent=2, sort_keys=True) + "\n", with
    each SparseRows written as the list of its dense rows and each
    WordList as the list of its words."""
    return "".join(canonical_parts(doc))


def canonical_parts(doc: dict):
    """canonical_text(doc) as an iterator of strings, for writelines: a
    large document goes out as it is formatted and is never held as one
    string.

    Documents hold dicts with string keys, lists, tuples, strings, ints,
    bools, None, SparseRows and WordList.  json formats each value with no
    SparseRows or WordList inside as one piece; the dicts and lists that
    hold one are walked here, and a SparseRows or WordList splices its
    cells into text that json formatted once.
    """
    yield from _json_parts(doc, "\n")
    yield "\n"


def _dumps(o, nl: str) -> str:
    """json's indented text of o on a line that nl (a newline plus its
    indent) starts: ensure_ascii escapes every newline inside a string,
    so each newline of the text is a line break."""
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", nl)


def _holds_table(o) -> bool:
    """Whether o is or holds a SparseRows or a WordList."""
    if isinstance(o, dict):
        return any(map(_holds_table, o.values()))
    if isinstance(o, (list, tuple)):
        return any(map(_holds_table, o))
    return isinstance(o, (SparseRows, WordList))


def _json_parts(o, nl: str):
    """o's JSON text in pieces; nl is a newline plus the indent of the line
    o starts on.  A value without SparseRows or WordList inside is one
    piece.  A key of a dict walked here that is not a string raises
    TypeError in _quote."""
    if isinstance(o, SparseRows):
        yield from _sparse_rows_parts(o, nl)
    elif isinstance(o, WordList):
        yield from _word_list_parts(o, nl)
    elif not _holds_table(o):
        yield _dumps(o, nl)
    else:
        keyed, inner = isinstance(o, dict), nl + "  "
        sep = ("{" if keyed else "[") + inner
        for k in sorted(o) if keyed else range(len(o)):
            yield (sep + _quote(k) + ": ") if keyed else sep
            yield from _json_parts(o[k], inner)
            sep = "," + inner
        yield nl + ("}" if keyed else "]")


def _sparse_rows_parts(o: SparseRows, nl: str):
    """The JSON text of o's dense rows, one piece per row: the all-"0" row
    text with the row's non-zero cells spliced in."""
    if not o.rows:
        yield "[]"
        return
    inner = nl + "  "
    cell = inner + "  "
    zeros = ("[" + cell + ("," + cell).join(['"0"'] * o.width) + inner
             + "]") if o.width else "[]"
    first, step = 1 + len(cell), 4 + len(cell)
    sep = "[" + inner
    for row in o.rows:
        pieces = [sep]
        at = 0
        for j, x in row:
            s = first + j * step
            if s < at or j >= o.width:
                raise ValueError("row columns must increase from 0 to at "
                                 "most %d, got %r" % (o.width - 1, j))
            pieces.append(zeros[at:s])
            pieces.append(_quote(str(x)))
            at = s + 3
        pieces.append(zeros[at:])
        yield "".join(pieces)
        sep = "," + inner
    yield nl + "]"


def _word_list_parts(o: WordList, nl: str):
    """The JSON text of o's words, one piece per word, from the text of
    each letter formatted once at the indent of a letter."""
    if not o.words:
        yield "[]"
        return
    inner = nl + "  "
    cell = inner + "  "
    texts = [_dumps(x, cell) for x in o.letters]
    sep, join, close = "[" + inner, "," + cell, inner + "]"
    for word in o.words:
        yield sep + ("[" + cell + join.join([texts[k] for k in word])
                     + close if word else "[]")
        sep = "," + inner
    yield nl + "]"
