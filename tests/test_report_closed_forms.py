"""report states the universal and co-universal dimensions and both
factorization verdicts in closed form; derive keeps the full
constructions.  These tests hold the closed forms against the
constructions and check that report never calls them."""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings

import ncwb.calculus
import ncwb.cartan
import ncwb.cli
from ncwb.calculus import factor_through_universal, universal_calculus
from ncwb.cartan import (
    calculus_from_pair, co_universal_factorization, co_universal_pair,
)
from ncwb.catalog import BUILTIN_NAMES, builtin
from ncwb.cli import main
from ncwb.workspace import (
    SCHEMA, algebra_decl, bimodule_decl, calculus_decl, canonical_text,
    cartan_pair_decl, load_workspace,
)

from helpers import transported_pairs
from test_acceptance import PARAMS, REPORT_JSON_SHA256, REPORT_TEXT_SHA256

CONSTRUCTIONS = ("universal_calculus", "co_universal_pair",
                 "factor_through_universal", "co_universal_factorization")

# SHA-256 of report on the workspace that `builtin matrix_2` exports: every
# member declared explicitly, so every law is checked by the report
MATRIX_2_REPORT_SHA256 = {
    "text":
        "c877c8a805babf82b1c81a7358b2ff9b55c337d127b047db5f42498bdf78a66c",
    "json":
        "1ddfcf15742400ca10f1f26996263976d0fe8389485ab81c06fbbf375d8fbc81",
}


def run(argv):
    """(exit code, stdout bytes) of the command run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("ascii")


def write_doc(directory, objects, name="ws.json"):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text({"schema": SCHEMA, "objects": objects}))
    return path


def constructed(kind, obj, universals):
    """The analysis keys of the closed forms, from the full constructions;
    one universal calculus and co-universal pair per algebra."""
    if kind not in ("algebra", "calculus", "cartan_pair"):
        return {}
    a = obj if kind == "algebra" else obj.algebra
    if id(a) not in universals:
        u = universal_calculus(a)
        universals[id(a)] = (u, co_universal_pair(a, u))
    u, cu = universals[id(a)]
    if kind == "algebra":
        return {"universal_dim": u.bimodule.dim,
                "couniversal_dim": cu.bimodule.dim}
    if kind == "calculus":
        _, cert = factor_through_universal(obj, universal=u)
        return {"universal_factorization_ok": cert.ok}
    fact = co_universal_factorization(obj, cu)
    return {"factorization": {"exists": fact.exists, "unique": fact.unique,
                              "homogeneous_dim": fact.homogeneous_dim}}


def assert_report_matches_constructions(path) -> dict:
    """Compares report's JSON analysis of every object with the full
    constructions; returns the analysis keys compared, by kind."""
    code, out = run(["report", path, "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    universals, compared = {}, {}
    for name, wo in load_workspace(path).objects.items():
        expected = constructed(wo.kind, wo.obj, universals)
        analysis = doc["report"][name].get("analysis", {})
        assert {k: analysis[k] for k in expected} == expected, name
        if expected:
            compared.setdefault(wo.kind, set()).update(expected)
    return compared


ALL_KEYS = {"algebra": {"universal_dim", "couniversal_dim"},
            "calculus": {"universal_factorization_ok"},
            "cartan_pair": {"factorization"}}


# every builtin at its defaults and at its largest documented parameters
BUILTIN_CASES = [(name, ()) for name in BUILTIN_NAMES] \
    + [("truncated_poly", (6,)), ("quantum_plane_trunc", (2, 6))]


@pytest.mark.parametrize("name,params", BUILTIN_CASES, ids=[
    "-".join([name] + [str(v) for v in params])
    for name, params in BUILTIN_CASES])
def test_report_closed_forms_match_the_constructions_on_builtins(
        tmp_path, name, params):
    path = write_doc(str(tmp_path), {"b": {
        "kind": "builtin", "builtin": name, "params": list(params)}})
    compared = assert_report_matches_constructions(path)
    expected = dict(ALL_KEYS)
    if builtin(name, params).calculus is None:
        del expected["calculus"]
    assert compared == expected


# builtin pairs over algebras of dimension <= 4, for basis-change draws
SMALL_PAIRS = [builtin(name).pair for name in BUILTIN_NAMES
               if builtin(name).algebra.dim <= 4]


@settings(max_examples=10, deadline=None)
@given(transported_pairs(SMALL_PAIRS))
def test_report_closed_forms_match_the_constructions_on_declared_pairs(p):
    # a dense basis change of a builtin pair, with the calculus it
    # induces, all declared explicitly, so the report checks every law
    c, _ = calculus_from_pair(p)
    objects = {"A": algebra_decl(p.algebra),
               "N": bimodule_decl(p.bimodule, "A"),
               "p": cartan_pair_decl(p, "A", "N"),
               "M": bimodule_decl(c.bimodule, "A"),
               "c": calculus_decl(c, "A", "M")}
    with tempfile.TemporaryDirectory() as directory:
        compared = assert_report_matches_constructions(
            write_doc(directory, objects))
    assert compared == ALL_KEYS


def test_report_closed_forms_on_a_one_dimensional_algebra(tmp_path):
    # over the ground field, Omega_u and X_u are both zero; the zero
    # calculus and the pair without fields still factor, uniquely
    objects = {"K": {"kind": "algebra", "basis": ["1"],
                     "products": [[["1"]]], "unit": ["1"]},
               "Z": {"kind": "bimodule", "algebra": "K", "dim": 0,
                     "left": [[]], "right": [[]]},
               "zero_calculus": {"kind": "calculus", "algebra": "K",
                                 "module": "Z", "d": []},
               "empty_pair": {"kind": "cartan_pair", "algebra": "K",
                              "module": "Z", "action": []}}
    path = write_doc(str(tmp_path), objects)
    assert assert_report_matches_constructions(path) == ALL_KEYS
    doc = json.loads(run(["report", path, "--format", "json"])[1])
    analysis = doc["report"]["K"]["analysis"]
    assert (analysis["universal_dim"], analysis["couniversal_dim"]) == (0, 0)


@pytest.fixture
def constructions_refused(monkeypatch):
    """Every module of the package that holds one of the four
    constructions gets a stand-in that fails the test when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("report built a universal construction")
    for module in (ncwb.cli, ncwb.calculus, ncwb.cartan):
        for attr in CONSTRUCTIONS:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)


@pytest.fixture
def generic_commutation_refused(monkeypatch):
    """diffops.check_ccr and linalg.kron get a stand-in that fails the test
    when called, under every name a module of the package holds for them:
    report reads the commutation findings off the pair laws, and no law
    check forms a kron factor."""
    def refuse(*args, **kwargs):
        raise AssertionError("report ran check_ccr or formed a kron factor")
    for name, module in list(sys.modules.items()):
        if name == "ncwb" or name.startswith("ncwb."):
            for attr in ("check_ccr", "kron"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)


def test_report_on_all_builtins_builds_no_universal_construction(
        tmp_path, constructions_refused, generic_commutation_refused):
    # the workspace of criterion 11, its objects in BUILTIN_NAMES order
    objects = {name: {"kind": "builtin", "builtin": name,
                      "params": list(PARAMS.get(name, ()))}
               for name in BUILTIN_NAMES}
    path = str(tmp_path / "all.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "objects": objects}, fh)
    code, text = run(["report", path])
    assert code == 0
    assert hashlib.sha256(text).hexdigest() == REPORT_TEXT_SHA256
    code, doc = run(["report", path, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(doc).hexdigest() == REPORT_JSON_SHA256


def test_report_on_a_declared_workspace_builds_no_universal_construction(
        tmp_path, constructions_refused, generic_commutation_refused):
    path = str(tmp_path / "m2.json")
    assert run(["builtin", "matrix_2", "-o", path])[0] == 0
    for fmt in ("text", "json"):
        code, out = run(["report", path, "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == MATRIX_2_REPORT_SHA256[fmt]
