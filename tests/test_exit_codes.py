"""The exit-code contract under hostile workspaces: every check, report and
derive ends in 0 (laws hold), 1 (a law fails) or 2 (bad input), and never
in a traceback, with or without python -O."""

import copy
import json
import os
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
