"""Workspace files: named algebraic objects in a strict JSON layout.

A file carries a schema tag and a dictionary of declarations.  Rationals
travel as integers or exact strings like "-3/7"; floats are refused.
References are by name and may point at any declaration in the file,
whatever its position.  A builtin declaration expands into dotted child
names (bundle.algebra, bundle.regular, ...) that other objects may
reference.

Loading only enforces shapes and reference integrity; mathematical laws
are the business of the checkers, so a broken table still loads and can
then be reported on.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from .linalg import Matrix
from .algebra import Algebra, Bimodule, LeftModule, tensor_over_A
from .calculus import DifferentialCalculus
from .cartan import CartanPair
from .catalog import ExampleBundle, builtin
from .connections import Connection

SCHEMA = "ncwb/1"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")

_KINDS = ("algebra", "bimodule", "calculus", "cartan_pair", "connection",
          "builtin")


class WorkspaceError(Exception):
    """Malformed input: bad JSON, bad shapes, dangling references."""


def parse_rational(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise WorkspaceError("%s: expected a rational, got a boolean" % where)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if not _RATIONAL_RE.match(v):
            raise WorkspaceError("%s: %r is not an exact rational" % (where, v))
        num, _, den = v.partition("/")
        if den:
            if int(den) == 0:
                raise WorkspaceError("%s: zero denominator in %r" % (where, v))
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    raise WorkspaceError("%s: expected a rational, got %r" % (where, v))


def format_rational(x) -> str:
    return str(Fraction(x))


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


def matrix_rows(m: Matrix):
    return [[format_rational(x) for x in row] for row in m.rows]


def vector_strings(v):
    return [format_rational(x) for x in v]


@dataclass
class WorkspaceObject:
    name: str
    kind: str
    obj: object
    declared: bool                 # False for builtin expansion children
    params: tuple = ()             # builtin rows remember their parameters


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

    def declared_names(self):
        return [n for n, wo in self.objects.items() if wo.declared]

    def _ref(self, decl, key: str, kind: str, where: str):
        if key not in decl:
            raise WorkspaceError("%s: missing %r reference" % (where, key))
        name = decl[key]
        if not isinstance(name, str) or name not in self.objects:
            raise WorkspaceError("%s: reference %r does not resolve"
                                 % (where, name))
        wo = self.objects[name]
        if wo.kind != kind:
            raise WorkspaceError("%s: %r is a %s, expected a %s"
                                 % (where, name, wo.kind, kind))
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
    e = LeftModule.free(c.algebra, rank_)
    t = tensor_over_A(c.bimodule, e)
    mat = _matrix_from(decl.get("matrix"), t.module.dim, e.dim,
                       "%s matrix" % where)
    return Connection(c, e, t, mat)


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
    ws.add(WorkspaceObject(name, "builtin", bundle, True, params))
    ws.add(WorkspaceObject(name + ".algebra", "algebra", bundle.algebra,
                           False))
    for mod_name, mod in bundle.bimodules.items():
        ws.add(WorkspaceObject("%s.%s" % (name, mod_name), "bimodule", mod,
                               False))
    if bundle.calculus is not None:
        ws.add(WorkspaceObject(name + ".calculus_module", "bimodule",
                               bundle.calculus.bimodule, False))
        ws.add(WorkspaceObject(name + ".calculus", "calculus",
                               bundle.calculus, False))
    if bundle.pair is not None:
        ws.add(WorkspaceObject(name + ".pair_module", "bimodule",
                               bundle.pair.bimodule, False))
        ws.add(WorkspaceObject(name + ".pair", "cartan_pair", bundle.pair,
                               False))


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
                ws.add(WorkspaceObject(name, kind, obj, True))
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
        "products": [[vector_strings(a.sc[i][j]) for j in range(a.dim)]
                     for i in range(a.dim)],
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


def connection_decl(conn: Connection, calculus_ref: str) -> dict:
    rank_, rem = divmod(conn.module.dim, conn.calculus.algebra.dim)
    if rem:
        raise ValueError("only connections on free modules are serialized")
    return {
        "kind": "connection",
        "calculus": calculus_ref,
        "rank": rank_,
        "matrix": matrix_rows(conn.matrix),
    }


def builtin_decl(bundle: ExampleBundle, params=()) -> dict:
    out = {"kind": "builtin", "builtin": bundle.name}
    if params:
        out["params"] = vector_strings(params)
    return out


def _decl_for(wo: WorkspaceObject, refs: dict) -> dict:
    """Declaration of one object; refs maps object identities to names."""
    if wo.kind == "builtin":
        return builtin_decl(wo.obj, wo.params)
    if wo.kind == "algebra":
        return algebra_decl(wo.obj)
    if wo.kind == "bimodule":
        return bimodule_decl(wo.obj, refs[id(wo.obj.algebra)])
    if wo.kind == "calculus":
        return calculus_decl(wo.obj, refs[id(wo.obj.algebra)],
                             refs[id(wo.obj.bimodule)])
    if wo.kind == "cartan_pair":
        return cartan_pair_decl(wo.obj, refs[id(wo.obj.algebra)],
                                refs[id(wo.obj.bimodule)])
    if wo.kind != "connection":
        raise ValueError("no declaration for an object of kind %r"
                         % (wo.kind,))
    return connection_decl(wo.obj, refs[id(wo.obj.calculus)])


def _reference_names(ws: Workspace) -> dict:
    """First workspace name for each object identity, for re-export."""
    out = {}
    for name, wo in ws.objects.items():
        out.setdefault(id(wo.obj), name)
    return out


@dataclass(frozen=True)
class SparseRows:
    """A list of rows of width exact values each, written as JSON lists of
    their strings: rows[k] holds (column, value) pairs in increasing column
    for its non-zero cells, and every other cell reads "0".  A relation
    basis is W entries wide with a handful of them non-zero, so the writer
    copies the zeros from one all-"0" row text."""
    width: int
    rows: Sequence


def canonical_text(doc: dict) -> str:
    """The bytes of json.dumps(doc, indent=2, sort_keys=True) + "\n", with
    each SparseRows written as the list of its dense rows."""
    return "".join(canonical_parts(doc))


def canonical_parts(doc: dict):
    """canonical_text(doc) as an iterator of strings, for writelines: a
    large document goes out as it is formatted and is never held as one
    string.

    Documents hold dicts with string keys, lists, tuples, strings, ints,
    bools, None and SparseRows.  The stdlib's indenting encoder is pure
    Python; this writer quotes with its C string encoder and formats a
    value with no dict or SparseRows inside as one string.
    """
    yield from _json_parts(doc, "\n")
    yield "\n"


def _inline_text(o, nl: str) -> Optional[str]:
    """The JSON text of o when it is a scalar (string, None, bool, int) or
    a list or tuple of such values, nested to any depth; None when o holds
    anything else.  nl is a newline plus the indent of the line o starts
    on."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        texts = []
        for x in o:
            # strings and ints, the usual entries, without a call
            if isinstance(x, str):
                text = _quote(x)
            elif type(x) is int:
                text = int.__repr__(x)
            else:
                text = _inline_text(x, inner)
                if text is None:
                    return None
            texts.append(text)
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return None


def _json_parts(o, nl: str):
    """o's JSON text in pieces; nl is a newline plus the indent of the line
    o starts on.  A value without dicts or SparseRows inside is one
    piece."""
    text = _inline_text(o, nl)
    if text is not None:
        yield text
    elif isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            if not isinstance(k, str):
                raise TypeError("JSON keys must be str, not %r" % (k,))
            yield sep + _quote(k) + ": "
            yield from _json_parts(o[k], inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(o, SparseRows):
        yield from _sparse_rows_parts(o, nl)
    elif isinstance(o, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            yield sep
            yield from _json_parts(x, inner)
            sep = "," + inner
        yield nl + "]"
    else:
        raise TypeError("%r is not JSON serializable" % (o,))


def _sparse_rows_parts(o: SparseRows, nl: str):
    """The JSON text of o's dense rows, one piece per row: the all-"0" row
    text with the row's non-zero cells spliced in."""
    if not o.rows:
        yield "[]"
        return
    inner = nl + "  "
    cell = inner + "  "
    if o.width:
        zeros = "[" + cell + ("," + cell).join(repeat('"0"', o.width)) \
            + inner + "]"
    else:
        zeros = "[]"
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


def export_workspace(ws: Workspace) -> str:
    doc = {"schema": SCHEMA, "objects": {}}
    refs = _reference_names(ws)
    for name in sorted(ws.declared_names()):
        doc["objects"][name] = _decl_for(ws.objects[name], refs)
    return canonical_text(doc)
