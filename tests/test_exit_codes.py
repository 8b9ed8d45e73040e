"""The exit-code contract under hostile workspaces: every check, report and
derive ends in 0 (laws hold), 1 (a law fails) or 2 (bad input), and never
in a traceback, with or without python -O."""

import copy
import json
import os
import stat
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ncwb.cli import main

from test_cli import lawless_objects

BASES = ("dual_numbers", "group_algebra_z2", "upper_triangular_2")
DERIVE_KINDS = ("dual", "pair", "calculus", "universal", "couniversal",
                "diffops", "relations", "factorization")
RATIONALS = ("0", "1", "-1", "2/3", 3)
# what a perturbed leaf or list entry becomes
REPLACEMENTS = ("0", "1", "-1", "2/3", "1/0", "x", "", "a.b", 7, -2, 0,
                10 ** 30, True, None, [], {}, [[]], "algebra", "bimodule",
                "calculus", "cartan_pair", "connection", "builtin")


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """Each base builtin exported by the CLI, as a parsed document."""
    out = {}
    for name in BASES:
        path = tmp_path_factory.mktemp("export") / ("%s.json" % name)
        assert main(["builtin", name, "-o", str(path)]) == 0
        out[name] = json.loads(path.read_text())
    out["lawless"] = {"schema": "ncwb/1", "objects": lawless_objects()}
    return out


def _slots(node, path=()):
    """Every (container path, key) in a JSON tree, containers first."""
    if isinstance(node, dict):
        for k in sorted(node):
            yield path, k
            yield from _slots(node[k], path + (k,))
    elif isinstance(node, list):
        for i, x in enumerate(node):
            yield path, i
            yield from _slots(x, path + (i,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def hostile_documents(draw, exports):
    doc = copy.deepcopy(exports[draw(st.sampled_from(sorted(exports)))])
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(doc))
        if not slots:
            # every key was deleted: the empty document is the input
            break
        path, key = draw(st.sampled_from(slots))
        parent = _at(doc, path)
        # a rational in place of a rational keeps the file loadable and
        # (mostly) breaks a law, so it is drawn as often as the rest
        how = draw(st.sampled_from(("rational",) * 4 + (
            "replace", "delete", "duplicate", "rename")))
        if how == "rational":
            if isinstance(parent[key], (str, int)):
                parent[key] = draw(st.sampled_from(RATIONALS))
        elif how == "replace":
            parent[key] = draw(st.sampled_from(REPLACEMENTS))
        elif how == "delete":
            del parent[key]
        elif how == "duplicate":
            if isinstance(parent, list):
                parent.insert(key, copy.deepcopy(parent[key]))
            else:
                parent[key + "2"] = copy.deepcopy(parent[key])
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(("1bad", "a.b", "A", "pair",
                                         "algebra")))] = parent.pop(key)
    return doc


def _argv(draw, doc, path):
    objects = doc.get("objects")
    names = sorted(objects) if isinstance(objects, dict) else []
    name = draw(st.sampled_from(names + ["missing"]))
    command = draw(st.sampled_from(("check", "check-one", "report",
                                    "derive", "derive")))
    if command == "check":
        return ["check", path]
    if command == "check-one":
        return ["check", path, name]
    if command == "report":
        return ["report", path]
    return ["derive", path, name, draw(st.sampled_from(DERIVE_KINDS))]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_workspaces_keep_the_exit_code_contract(exports, tmp_path,
                                                        capsys, data):
    doc = data.draw(hostile_documents(exports))
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    argv = _argv(data.draw, doc, str(path))
    capsys.readouterr()
    assert main(argv) in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err


# fixed hostile inputs, replayed in a fresh interpreter with and without -O
def _ragged_products():
    objects = lawless_objects()
    objects["A"]["products"][1].pop()
    return objects


def _float_entry():
    objects = lawless_objects()
    objects["A"]["unit"][0] = 1.5
    return objects


def _dangling_reference():
    objects = lawless_objects()
    objects["M"]["algebra"] = "nowhere"
    return objects


def _list_kind():
    return {"A": {"kind": ["algebra"]}}


def _dict_kind():
    return {"A": {"kind": {"algebra": 1}}}


REPLAYS = [
    (_ragged_products, ["check"], 2),
    (_list_kind, ["check"], 2),
    (_dict_kind, ["check"], 2),
    (_float_entry, ["report"], 2),
    (_dangling_reference, ["derive", "M", "dual"], 2),
    (lawless_objects, ["report"], 1),
    (lawless_objects, ["check", "M"], 1),
]


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
@pytest.mark.parametrize("make,command,code", REPLAYS,
                         ids=[r[0].__name__ + "-" + r[1][0] for r in REPLAYS])
def test_fixed_hostile_inputs_exit_cleanly(tmp_path, optimize, make,
                                           command, code):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"schema": "ncwb/1", "objects": make()}))
    argv = command[:1] + [str(path)] + command[1:]
    r = subprocess.run([sys.executable] + optimize + ["-m", "ncwb.cli"]
                       + argv, capture_output=True, text=True)
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr


def _builtin_document(param: str) -> str:
    """A workspace of one truncated_poly builtin whose parameter is the given
    JSON text, written by hand: json.dumps cannot write an integer of more
    digits than Python's integer-string conversion allows."""
    return ('{"schema": "ncwb/1", "objects": {"T": {"kind": "builtin", '
            '"builtin": "truncated_poly", "params": [%s]}}}' % param)


LONG = "9" * 5000
RAW_DOCUMENTS = {
    "long-string": _builtin_document('"%s"' % LONG),
    "long-integer": _builtin_document(LONG),
    "deep-nesting": '{"schema": "ncwb/1", "objects": %s%s}'
                    % ("[" * 100000, "]" * 100000),
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
@pytest.mark.parametrize("name", sorted(RAW_DOCUMENTS))
def test_oversized_literals_and_nesting_exit_two(tmp_path, optimize, name):
    # a 5000-digit integer, in a string or bare, is past Python's limit on
    # integer-string conversion, and the nesting past its recursion limit
    path = tmp_path / "ws.json"
    path.write_text(RAW_DOCUMENTS[name])
    r = subprocess.run([sys.executable] + optimize
                       + ["-m", "ncwb.cli", "check", str(path)],
                       capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
@pytest.mark.parametrize("param", [LONG, "3\n", "\u0663"],
                         ids=["long", "trailing-newline", "arabic-indic-3"])
def test_builtin_parameter_outside_ascii_digits_exits_two(optimize, param):
    r = subprocess.run([sys.executable] + optimize
                       + ["-m", "ncwb.cli", "builtin", "truncated_poly",
                          param], capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


# a document larger than one stdout buffer, and one that fits in it
@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
@pytest.mark.parametrize("argv", [["builtin", "truncated_poly", "6"],
                                  ["builtin", "dual_numbers"]],
                         ids=["large", "small"])
def test_reader_closed_early_exits_two_without_traceback(optimize, argv):
    """`ncwb builtin truncated_poly 6 | head -c 10`, with the reader gone
    before the first byte: the document cannot be written, so exit 2, and
    neither main nor the flush at exit prints a traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable] + optimize + ["-m", "ncwb.cli"]
                           + argv, stdout=write, stderr=subprocess.PIPE,
                           text=True)
    finally:
        os.close(write)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "Exception ignored" not in r.stderr


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_output_path_that_cannot_be_written_exits_two(tmp_path, optimize,
                                                         where):
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" \
        else tmp_path
    r = subprocess.run([sys.executable] + optimize
                       + ["-m", "ncwb.cli", "builtin", "group_algebra_z2",
                          "-o", str(path)], capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: cannot write %s: " % path)
    assert r.stderr.count("\n") == 1
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [["builtin", "dual_numbers"],
                                  ["derive", "ws.json", "D.algebra",
                                   "universal"]], ids=["builtin", "derive"])
def test_an_empty_output_path_exits_two(tmp_path, monkeypatch, capsys, argv):
    # -o "" names a path that cannot be opened, as an unset $OUT in
    # -o "$OUT" does; it is not a request for stdout
    monkeypatch.chdir(tmp_path)
    objects = {"D": {"kind": "builtin", "builtin": "dual_numbers"}}
    (tmp_path / "ws.json").write_text(
        json.dumps({"schema": "ncwb/1", "objects": objects}))
    assert main(argv + ["-o", ""]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: cannot write : No such file or "
                              "directory\n")


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
def test_a_value_too_long_to_write_exits_two(optimize):
    # q of 4000 digits is read, but q^2 in the products has more digits
    # than str() converts
    r = subprocess.run([sys.executable] + optimize
                       + ["-m", "ncwb.cli", "builtin", "quantum_plane_trunc",
                          "7" * 4000, "3"], capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: output: an integer of more than %d " \
        "digits\n" % sys.get_int_max_str_digits()
    assert r.stdout == ""


def _long_q_workspace(tmp_path):
    """quantum_plane_trunc at degree 3 with a q of 2200 digits: q is read,
    but q^2 has more digits than str() converts."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"schema": "ncwb/1", "objects": {"Q": {
        "kind": "builtin", "builtin": "quantum_plane_trunc",
        "params": ["7" * 2200, "3"]}}}))
    return str(path)


@pytest.mark.parametrize("name, what", [("Q.regular", "dual"),
                                        ("Q.pair", "diffops")])
def test_a_derived_value_too_long_to_write_exits_two(tmp_path, capsys, name,
                                                     what):
    # q^2 is in the algebra's products (dual) and in the operators'
    # entries (diffops, formatted as they are written)
    assert main(["derive", _long_q_workspace(tmp_path), name, what]) == 2
    assert capsys.readouterr().err == "error: output: an integer of more " \
        "than %d digits\n" % sys.get_int_max_str_digits()


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_document_that_fails_mid_write_leaves_no_file(tmp_path, optimize,
                                                        existing):
    # the diffops document fails part way, at the first entry of q^2
    ws = _long_q_workspace(tmp_path)
    out = tmp_path / "d.json"
    if existing:
        out.write_text("an earlier document\n")
    r = subprocess.run([sys.executable] + optimize
                       + ["-m", "ncwb.cli", "derive", ws, "Q.pair", "diffops",
                          "-o", str(out)], capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: output: an integer of more than %d " \
        "digits\n" % sys.get_int_max_str_digits()
    assert not out.exists()


def test_a_document_that_fails_mid_write_leaves_a_fifo_in_place(tmp_path,
                                                                capsys):
    # only a regular file is removed: the reader of a FIFO has the partial
    # document already, and the FIFO itself is not the output's to remove
    ws = _long_q_workspace(tmp_path)
    fifo = tmp_path / "d.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["derive", ws, "Q.pair", "diffops", "-o", str(fifo)]) == 2
        assert os.read(reader, 1 << 16).startswith(b"{")
    finally:
        os.close(reader)
    assert capsys.readouterr().err.startswith("error: output: ")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("argv", [
    ["check"], ["check", "pair"], ["check", "pair_module"], ["report"],
    ["report", "--format", "json"], ["derive", "pair", "calculus"],
    ["derive", "pair", "factorization"]], ids=" ".join)
def test_a_finding_with_a_value_too_long_to_print_exits_two(
        tmp_path, capsys, exports, argv):
    # every non-zero entry of pair_module's actions and of the pair's
    # field becomes a q of 3000 digits: the action-product and
    # twisted-Leibniz findings hold q^2, which has more digits than str()
    # converts
    doc = copy.deepcopy(exports["dual_numbers"])
    q = "7" * 3000
    objects = doc["objects"]
    for decl, key in ((objects["pair_module"], "left"),
                      (objects["pair_module"], "right"),
                      (objects["pair"], "action")):
        decl[key] = [[[x if x == "0" else q for x in row] for row in m]
                     for m in decl[key]]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert capsys.readouterr().err == "error: output: an integer of more " \
        "than %d digits\n" % sys.get_int_max_str_digits()
