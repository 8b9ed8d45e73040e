"""Workspace files: strict parsing, canonical export, round trips."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from ncwb.algebra import check_bimodule
from ncwb.cartan import check_cartan
from ncwb.catalog import BUILTIN_NAMES, builtin
from ncwb.cli import main
from ncwb.connections import check_connection, trivial_connection
from ncwb.diffops import find_relations
from ncwb.linalg import ONE, Matrix
from ncwb.workspace import (
    SCHEMA, SparseRows, WordList, WorkspaceError, _Cells, algebra_decl,
    bimodule_decl, calculus_decl, canonical_text, cartan_pair_decl,
    format_rational, parse_rational, parse_workspace, vector_strings,
)

from helpers import (cells_matrix, cells_vector, connection_decl,
                     declared_names, export_workspace)

from fractions import Fraction


def dn_doc():
    b = builtin("dual_numbers")
    conn = trivial_connection(b.calculus)
    return {"schema": SCHEMA, "objects": {
        "A": algebra_decl(b.algebra),
        "M": bimodule_decl(b.calculus.bimodule, "A"),
        "Om": calculus_decl(b.calculus, "A", "M"),
        "P": bimodule_decl(b.pair.bimodule, "A"),
        "X": cartan_pair_decl(b.pair, "A", "P"),
        "nabla": connection_decl(conn, "Om"),
    }}


def test_parse_rational_accepts_ints_and_fraction_strings():
    assert parse_rational(3, "t") == Fraction(3)
    assert parse_rational(-2, "t") == Fraction(-2)
    assert parse_rational("3/4", "t") == Fraction(3, 4)
    assert parse_rational("-7/2", "t") == Fraction(-7, 2)
    assert parse_rational("5", "t") == Fraction(5)
    assert parse_rational("9" * 4000, "t") == 10 ** 4000 - 1
    assert format_rational(Fraction(-7, 2)) == "-7/2"


def test_parse_rational_rejects_junk():
    # int() reads the last five: the first two are past Python's limit on
    # integer-string conversion, the others not all ASCII digits
    for bad in (True, False, "1.5", "1/0", "0/0", "", "a", "1/2/3", None,
                [1], " 1", "+3", "9" * 5000, "1/" + "9" * 5000, "3\n",
                "\u0663", "1/\u0663"):
        with pytest.raises(WorkspaceError):
            parse_rational(bad, "t")


def test_floats_rejected_at_json_level():
    doc = '{"schema": "ncwb/1", "objects": {"A": {"kind": "algebra", ' \
          '"basis": ["1"], "products": [[[1.5]]], "unit": [1]}}}'
    with pytest.raises(WorkspaceError):
        parse_workspace(doc)
    with pytest.raises(WorkspaceError):
        parse_workspace('{"schema": "ncwb/1", "objects": {}, "derived": NaN}')


def test_duplicate_json_keys_rejected():
    doc = '{"schema": "ncwb/1", "objects": {"A": {"kind": "builtin", ' \
          '"builtin": "dual_numbers"}, "A": {"kind": "builtin", ' \
          '"builtin": "dual_numbers"}}}'
    with pytest.raises(WorkspaceError):
        parse_workspace(doc)


def test_top_level_strictness():
    with pytest.raises(WorkspaceError):
        parse_workspace("[1, 2]")
    with pytest.raises(WorkspaceError):
        parse_workspace('{"schema": "ncwb/2", "objects": {}}')
    with pytest.raises(WorkspaceError):
        parse_workspace('{"objects": {}}')
    with pytest.raises(WorkspaceError):
        parse_workspace('{"schema": "ncwb/1", "objects": {}, "what": 1}')
    with pytest.raises(WorkspaceError):
        parse_workspace('{"schema": "ncwb/1", "objects": []}')
    with pytest.raises(WorkspaceError):
        parse_workspace("not json")


def test_name_and_kind_validation():
    def with_objects(objects):
        return json.dumps({"schema": SCHEMA, "objects": objects})
    with pytest.raises(WorkspaceError):
        parse_workspace(with_objects({"a.b": {"kind": "algebra"}}))
    with pytest.raises(WorkspaceError):
        parse_workspace(with_objects({"1st": {"kind": "algebra"}}))
    with pytest.raises(WorkspaceError):
        parse_workspace(with_objects({"A": {"kind": "nope"}}))
    with pytest.raises(WorkspaceError):
        parse_workspace(with_objects({"A": 3}))
    with pytest.raises(WorkspaceError):
        parse_workspace(with_objects({"A": {}}))


def test_declaration_shape_errors():
    b = builtin("dual_numbers")
    good = dn_doc()

    def mutate(fn):
        doc = dn_doc()
        fn(doc["objects"])
        with pytest.raises(WorkspaceError):
            parse_workspace(canonical_text(doc))

    mutate(lambda o: o["A"].update(extra=1))
    mutate(lambda o: o["A"].update(products=[[["1", "0"]]]))
    mutate(lambda o: o["A"].update(unit=["1", "0", "0"]))
    mutate(lambda o: o["A"].update(basis="x"))
    mutate(lambda o: o["M"].update(dim=-1))
    mutate(lambda o: o["M"].update(dim=True))
    mutate(lambda o: o["M"].update(left=[[["1"]]]))
    mutate(lambda o: o["M"].update(algebra="Om"))
    mutate(lambda o: o["M"].update(algebra="missing"))
    mutate(lambda o: o["Om"].update(d=[["1"]]))
    mutate(lambda o: o["X"].update(action=[]))
    mutate(lambda o: o["nabla"].update(rank="2"))
    mutate(lambda o: o["nabla"].update(matrix=[["1"]]))
    assert parse_workspace(canonical_text(good)).get("A").obj.dim == b.algebra.dim


def test_parse_builds_working_objects():
    ws = parse_workspace(canonical_text(dn_doc()))
    assert ws.names() == ["A", "M", "Om", "P", "X", "nabla"]
    assert declared_names(ws) == ws.names()
    assert check_bimodule(ws.get("M").obj).ok
    assert check_cartan(ws.get("X").obj).ok
    assert check_connection(ws.get("nabla").obj).ok
    assert ws.get("Om").obj.algebra is ws.get("A").obj
    assert ws.get("nabla").obj.calculus is ws.get("Om").obj


def test_references_may_point_forward():
    doc = dn_doc()
    names = ["nabla", "X", "Om", "P", "M", "A"]
    doc["objects"] = {n: doc["objects"][n] for n in names}
    ws = parse_workspace(canonical_text(doc))
    assert ws.get("nabla").obj.calculus is ws.get("Om").obj
    assert check_connection(ws.get("nabla").obj).ok


def test_export_round_trip_is_byte_stable():
    text1 = export_workspace(parse_workspace(canonical_text(dn_doc())))
    text2 = export_workspace(parse_workspace(text1))
    assert text1 == text2
    assert text1.endswith("\n")
    names = list(json.loads(text1)["objects"])
    assert names == sorted(names)


def test_export_lists_only_declared_objects():
    doc = {"schema": SCHEMA, "objects": {
        "dn": {"kind": "builtin", "builtin": "dual_numbers"},
    }}
    ws = parse_workspace(json.dumps(doc))
    assert set(ws.names()) == {
        "dn", "dn.algebra", "dn.regular", "dn.calculus_module",
        "dn.calculus", "dn.pair_module", "dn.pair"}
    assert declared_names(ws) == ["dn"]
    text = export_workspace(ws)
    exported = json.loads(text)["objects"]
    assert list(exported) == ["dn"]
    assert exported["dn"] == {"kind": "builtin", "builtin": "dual_numbers"}
    assert export_workspace(parse_workspace(text)) == text


def test_builtin_params_survive_export():
    doc = {"schema": SCHEMA, "objects": {
        "qp": {"kind": "builtin", "builtin": "quantum_plane_trunc",
               "params": ["5/3", 2]},
        "tr": {"kind": "builtin", "builtin": "truncated_poly",
               "params": [3]},
    }}
    text = export_workspace(parse_workspace(json.dumps(doc)))
    exported = json.loads(text)["objects"]
    assert exported["qp"]["params"] == ["5/3", "2"]
    assert exported["tr"]["params"] == ["3"]
    ws = parse_workspace(text)
    assert ws.get("qp").obj.algebra.dim == 6
    assert ws.get("tr").obj.algebra.dim == 3


def test_builtin_rejects_bad_parameters():
    doc = {"schema": SCHEMA, "objects": {
        "t": {"kind": "builtin", "builtin": "truncated_poly",
              "params": [1]}}}
    with pytest.raises(WorkspaceError):
        parse_workspace(json.dumps(doc))
    doc["objects"]["t"] = {"kind": "builtin", "builtin": "no_such"}
    with pytest.raises(WorkspaceError):
        parse_workspace(json.dumps(doc))
    doc["objects"]["t"] = {"kind": "builtin", "builtin": "dual_numbers",
                           "params": "x"}
    with pytest.raises(WorkspaceError):
        parse_workspace(json.dumps(doc))


def test_explicit_decl_may_reference_builtin_children():
    b = builtin("dual_numbers")
    conn = trivial_connection(b.calculus)
    doc = {"schema": SCHEMA, "objects": {
        "dn": {"kind": "builtin", "builtin": "dual_numbers"},
        "nabla": connection_decl(conn, "dn.calculus"),
    }}
    ws = parse_workspace(canonical_text(doc))
    assert ws.get("nabla").obj.calculus is ws.get("dn.calculus").obj
    assert check_connection(ws.get("nabla").obj).ok
    text = export_workspace(ws)
    assert json.loads(text)["objects"]["nabla"]["calculus"] == "dn.calculus"
    assert export_workspace(parse_workspace(text)) == text


def test_connection_decl_round_trip_preserves_matrix():
    b = builtin("truncated_poly", (3,))
    conn = trivial_connection(b.calculus, rank_=2)
    doc = {"schema": SCHEMA, "objects": {
        "A": algebra_decl(b.algebra),
        "M": bimodule_decl(b.calculus.bimodule, "A"),
        "Om": calculus_decl(b.calculus, "A", "M"),
        "nabla": connection_decl(conn, "Om"),
    }}
    ws = parse_workspace(canonical_text(doc))
    back = ws.get("nabla").obj
    assert back.matrix == conn.matrix
    assert back.module.dim == conn.module.dim
    assert check_connection(back).ok


def test_canonical_text_is_order_insensitive():
    d1 = {"b": 1, "a": {"y": 2, "x": 3}}
    d2 = {"a": {"x": 3, "y": 2}, "b": 1}
    assert canonical_text(d1) == canonical_text(d2)
    assert canonical_text(d1).endswith("\n")


@pytest.mark.parametrize("obj,key,ref,message", [
    ("Om", "algebra", "M", "'M' is a bimodule, expected an algebra"),
    ("Om", "module", "A", "'A' is an algebra, expected a bimodule"),
])
def test_a_reference_of_the_wrong_kind_names_both_kinds(obj, key, ref,
                                                        message):
    doc = dn_doc()
    doc["objects"][obj][key] = ref
    with pytest.raises(WorkspaceError) as e:
        parse_workspace(canonical_text(doc))
    assert str(e.value) == "object %r: %s" % (obj, message)


def test_notes_field_is_tolerated():
    doc = dn_doc()
    doc["objects"]["A"]["notes"] = "base ring of the example"
    ws = parse_workspace(canonical_text(doc))
    assert ws.get("A").obj.dim == 2


# strings with quotes, backslashes, control characters and non-ASCII text
json_strings = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001d49c'),
    st.characters()), max_size=8)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 40, 10 ** 40), json_strings)
json_docs = st.recursive(
    st.one_of(json_scalars, st.lists(json_strings, max_size=4)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(json_strings, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(json_docs)
def test_canonical_text_is_the_stdlib_encoding(doc):
    assert canonical_text(doc) \
        == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dense_rows(rows: SparseRows) -> list:
    out = []
    for row in rows.rows:
        cells = ["0"] * rows.width
        for j, x in row:
            cells[j] = str(x)
        out.append(cells)
    return out


def stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# truncated_poly 6 has relation coefficients with denominators from length 4
RELATION_CASES = [("truncated_poly", (6,), 4),
                  ("quantum_plane_trunc", (2, 2), 3), ("matrix_2", (), 3)]


@pytest.mark.parametrize("name,params,max_len", RELATION_CASES)
def test_sparse_relation_rows_write_as_the_dense_basis(name, params,
                                                       max_len):
    rs = find_relations(builtin(name, params).pair, max_len)
    rows = SparseRows(len(rs.words),
                      [((f, ONE),) + terms for f, terms in rs.rules])
    dense = [["0" if not x else str(x) for x in b]
             for b in rs.space().basis]
    assert dense_rows(rows) == dense
    assert canonical_text({"basis": rows, "n": 1}) \
        == stdlib_text({"basis": dense, "n": 1})


def test_relation_coefficients_cover_signs_and_denominators():
    coeffs = [c for name, params, max_len in RELATION_CASES
              for _, terms in find_relations(builtin(name, params).pair,
                                             max_len).rules
              for _, c in terms]
    assert any(c < 0 for c in coeffs)
    assert any(c.denominator > 1 for c in coeffs)


@pytest.mark.parametrize("rows", [
    SparseRows(4, []), SparseRows(0, []), SparseRows(0, [(), ()]),
    SparseRows(1, [((0, Fraction(-3, 7)),), ()]),
    SparseRows(3, [(), ((0, 1), (2, Fraction(1, 2)))]),
])
def test_sparse_rows_edge_shapes(rows):
    doc = {"a": [rows, {"b": rows}], "z": rows}
    dense = dense_rows(rows)
    assert canonical_text(doc) \
        == stdlib_text({"a": [dense, {"b": dense}], "z": dense})


@pytest.mark.parametrize("rows", [
    SparseRows(2, [((2, 1),)]), SparseRows(2, [((-1, 1),)]),
    SparseRows(3, [((1, 1), (0, 1))]), SparseRows(3, [((1, 1), (1, 2))]),
])
def test_sparse_rows_out_of_order_or_range_are_refused(rows):
    with pytest.raises(ValueError):
        canonical_text({"basis": rows})


@st.composite
def sparse_rows(draw):
    width = draw(st.integers(0, 6))
    values = st.fractions(max_denominator=50).filter(bool)
    # a cell is a value or its text, as in an algebra's products table
    values = st.one_of(values, values.map(format_rational))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        cols = sorted(draw(st.sets(st.integers(0, width - 1)))) \
            if width else []
        rows.append(tuple((j, draw(values)) for j in cols))
    return SparseRows(width, rows)


@settings(max_examples=200, deadline=None)
@given(sparse_rows(), st.integers(0, 3))
def test_sparse_rows_are_the_stdlib_encoding_of_dense_rows(rows, depth):
    assert_nested_stdlib_encoding(rows, depth)


def assert_nested_stdlib_encoding(rows: SparseRows, depth: int):
    doc, dense = rows, dense_rows(rows)
    for k in range(depth):
        doc, dense = {"k%d" % k: [doc, 1]}, {"k%d" % k: [dense, 1]}
    assert canonical_text({"d": doc}) == stdlib_text({"d": dense})


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("width", [0, 1, 1364])
def test_wide_sparse_rows_are_the_stdlib_encoding(width, depth):
    # 1364 is the word count of matrix_2 at length 5
    cols = sorted({0, width // 2, width - 1}) if width else []
    rows = [(), tuple((j, Fraction(-3, 7 + j)) for j in cols),
            ((width - 1, 1),) if width else ()]
    assert_nested_stdlib_encoding(SparseRows(width, rows), depth)


def dense_algebra_decl(a) -> dict:
    """An algebra's declaration with its products as the dense table of
    the strings of every cell."""
    return {"kind": "algebra", "basis": list(a.basis_names),
            "products": [[vector_strings(v) for v in row] for row in a.sc],
            "unit": vector_strings(a.unit)}


@pytest.mark.parametrize("name,params",
                         [(name, ()) for name in BUILTIN_NAMES]
                         + [("quantum_plane_trunc", (Fraction(-1, 3), 5)),
                            ("quantum_plane_trunc", (2, 6))],
                         ids=lambda v: str(v))
def test_products_tables_write_as_the_dense_table(name, params):
    a = builtin(name, params).algebra
    assert canonical_text({"A": algebra_decl(a)}) \
        == stdlib_text({"A": dense_algebra_decl(a)})


def word_texts(words: WordList) -> list:
    return [[words.letters[k] for k in w] for w in words.words]


@st.composite
def word_lists(draw):
    letters = draw(st.lists(st.one_of(
        json_scalars, st.lists(json_scalars, max_size=3),
        st.tuples(st.sampled_from("am"), st.integers(0, 9))), max_size=5))
    word = st.lists(st.integers(0, len(letters) - 1), max_size=4) \
        if letters else st.just([])
    return WordList(letters, draw(st.lists(word, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(word_lists(), st.integers(0, 3))
def test_word_lists_are_the_stdlib_encoding_of_their_words(words, depth):
    doc, plain = words, word_texts(words)
    for k in range(depth):
        doc, plain = {"k%d" % k: [doc, 1]}, {"k%d" % k: [plain, 1]}
    assert canonical_text({"d": doc}) == stdlib_text({"d": plain})


def test_word_list_letters_equal_as_values_keep_their_own_text():
    # 1 == True and hash(1) == hash(True), but they are written apart
    words = WordList([["a", 1], ["a", True], ("a", 0)],
                     [[0, 1], [1, 0, 2], []])
    assert canonical_text({"w": words}) \
        == stdlib_text({"w": word_texts(words)})


# ---- the cell reader against parse_rational + Matrix --------------------

LIMIT = sys.get_int_max_str_digits()
# texts that read as the same value in several spellings, texts that are
# refused, and values a parsed document cannot hold (floats, None, lists)
CELL_TEXTS = ("0", "-0", "0/5", "007", "-007", "1/1", "2/4", "-3/6", "1",
              "-1", "5/3", "1/0", "0/0", "-0/0", "1.5", "", "+1", " 1",
              "1/2/3", "x", "9" * LIMIT, "-" + "9" * LIMIT, "1/" + "9" * LIMIT,
              "9" * (LIMIT + 1), "1/" + "9" * (LIMIT + 1))
CELL_VALUES = (True, False, 1.5, -0.0, None, [], [1], {}, 10 ** LIMIT - 1,
               10 ** LIMIT)
cells = st.one_of(st.sampled_from(CELL_TEXTS), st.sampled_from(CELL_VALUES),
                  st.integers(-10 ** 6, 10 ** 6),
                  st.integers(-99, 99).map(str),
                  st.fractions(max_denominator=12).map(str))


def cell_outcome(read, *args):
    """What read(*args) gives: its value, or the WorkspaceError message."""
    try:
        out = read(*args)
    except WorkspaceError as e:
        return "refused", str(e)
    if isinstance(out, Matrix):
        den, rows = out.int_rows()
        assert all(x.__class__ is int for row in rows for _, x in row)
        return out.nrows, out.ncols, den, rows
    if isinstance(out, list):   # the reader's: an integral value is an int
        assert not any(x.__class__ is Fraction and x.denominator == 1
                       for x in out)
    return tuple(out)


@st.composite
def cell_tables(draw):
    """A declared matrix's cells: nrows rows of ncols cells, and now and
    then one row of the wrong length or a row that is not a list."""
    nrows, ncols = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    data = draw(st.lists(st.lists(cells, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if data and draw(st.integers(0, 9)) == 0:
        data[draw(st.integers(0, nrows - 1))] = draw(st.sampled_from(
            [[], ["0"] * (ncols + 1), "0", None]))
    return data, nrows, ncols


@settings(max_examples=300, deadline=None)
@given(st.lists(cell_tables(), min_size=1, max_size=4))
# True == 1 and hash(True) == hash(1): a bare 1 read first must not let
# True be read as 1; a refused text is refused again, in its own row
@example([([[1, 0], [0, True]], 2, 2)])
@example([([["1/0"]], 1, 1), ([["0"], ["1/0"]], 2, 1)])
def test_the_cell_reader_reads_what_parse_rational_and_matrix_read(tables):
    # one reader for all the tables, as one document shares its table of
    # cell texts between its matrices: a text read for one matrix is found
    # for the next, and a refused one is refused again, with its own where
    reader = _Cells()
    for k, (data, nrows, ncols) in enumerate(tables):
        where = "table %d" % k
        assert cell_outcome(reader.matrix, data, nrows, ncols, where) \
            == cell_outcome(cells_matrix, data, nrows, ncols, where)
        for i, row in enumerate(data):
            assert cell_outcome(reader.vector, row, ncols, where) \
                == cell_outcome(cells_vector, row, ncols, where)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["1/0", "0/0", True, 1.5, "9" * (LIMIT + 1)]),
       st.data())
def test_a_refused_cell_keeps_its_message_and_exit_two(tmp_path_factory,
                                                       cell, data):
    # a cell of the declared pair bimodule's left[1], written as a
    # document: a float is refused by the JSON reader, every other cell by
    # the cell reader with the oracle's message
    doc = json.loads(canonical_text(dn_doc()))
    table = doc["objects"]["P"]["left"][1]
    r = data.draw(st.integers(0, len(table) - 1))
    table[r][data.draw(st.integers(0, len(table[r]) - 1))] = cell
    path = tmp_path_factory.mktemp("cell") / "ws.json"
    path.write_text(json.dumps(doc))
    if isinstance(cell, float):
        message = "float literal '1.5' is not allowed; use p/q strings"
    else:
        message = cell_outcome(cells_matrix, table, len(table), len(table),
                               "object 'P' left[1]")[1]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["check", str(path)]) == 2
    assert err.getvalue() == "error: %s\n" % message

