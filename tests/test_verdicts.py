"""Each builtin's laws are checked once per process: `check`, `derive` and
`report` reuse the verdicts the catalog kept when it validated a bundle,
and check every other object, matched by identity, once."""

import copy
import json
import subprocess
import sys
from collections import Counter

import pytest

from ncwb import catalog
from ncwb.catalog import BUILTIN_NAMES, noncommuting_bimodule_fixture
from ncwb.cli import main
from ncwb.workspace import (
    SCHEMA, algebra_decl, bimodule_decl, canonical_text, load_workspace,
)

# the all-builtins workspace of the report benchmark
ALL_BUILTINS = {name: {"kind": "builtin", "builtin": name}
                for name in BUILTIN_NAMES}
ALL_BUILTINS["truncated_poly"]["params"] = [4]
ALL_BUILTINS["quantum_plane_trunc"]["params"] = [2, 2]


def write_ws(tmp_path, objects, name="ws.json"):
    path = tmp_path / name
    path.write_text(canonical_text({"schema": SCHEMA, "objects": objects}))
    return str(path)


@pytest.fixture
def checked(monkeypatch):
    """A fresh catalog whose law checkers record (label, object) for every
    call; the objects are kept, so their ids stay distinct."""
    monkeypatch.setattr(catalog, "_CACHE", {})
    calls = []
    for kind, (label, check) in list(catalog.LAW_CHECKERS.items()):
        def counted(obj, label=label, check=check):
            calls.append((label, obj))
            return check(obj)
        monkeypatch.setitem(catalog.LAW_CHECKERS, kind, (label, counted))
    return calls


def per_object(calls) -> Counter:
    return Counter((label, id(obj)) for label, obj in calls)


def member_ids(ws) -> set:
    return {id(wo.obj) for wo in ws.objects.values()
            if wo.kind != "builtin"}


def exported(name, capsys) -> dict:
    """The objects of `ncwb builtin name`, declared as explicit tables."""
    capsys.readouterr()
    assert main(["builtin", name]) == 0
    return json.loads(capsys.readouterr().out)["objects"]


def test_builtin_members_are_checked_once_at_validation(
        tmp_path, capsys, checked):
    path = write_ws(tmp_path, ALL_BUILTINS)
    ws = load_workspace(path)
    counts = per_object(checked)
    assert set(counts.values()) == {1}
    assert {i for _, i in counts} == member_ids(ws)
    checked.clear()
    assert main(["report", path]) == 0
    assert main(["report", path, "--format", "json"]) == 0
    assert main(["check", path]) == 0
    assert main(["derive", path, "matrix_2.calculus", "pair"]) == 0
    assert main(["derive", path, "quantum_plane_trunc.algebra",
                 "couniversal"]) == 0
    assert checked == []


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_the_same_tables_declared_explicitly_are_checked_once(
        tmp_path, capsys, checked, name):
    # the builtin and its export side by side: equal tables, other objects
    objects = {"b": {"kind": "builtin", "builtin": name}}
    objects.update(exported(name, capsys))
    path = write_ws(tmp_path, objects)
    load_workspace(path)
    checked.clear()
    assert main(["report", path]) == 0
    counts = per_object(checked)
    assert set(counts.values()) == {1}
    report_ids = {i for _, i in counts}
    checked.clear()
    assert main(["check", path]) == 0
    counts = per_object(checked)
    assert set(counts.values()) == {1}
    # one load per command: each run checks its own copy of the tables
    assert len(counts) == len(report_ids) == len(exported(name, capsys))
    assert sorted(label for label, _ in counts) == sorted(
        catalog.LAW_CHECKERS[decl["kind"]][0]
        for decl in exported(name, capsys).values())


def test_a_lawless_object_next_to_builtins_still_fails(
        tmp_path, capsys, checked):
    bad = noncommuting_bimodule_fixture()
    objects = dict(ALL_BUILTINS)
    objects["A"] = algebra_decl(bad.algebra)
    objects["bad"] = bimodule_decl(bad, "A")
    path = write_ws(tmp_path, objects)
    load_workspace(path)
    checked.clear()
    capsys.readouterr()
    assert main(["report", path]) == 1
    out = capsys.readouterr().out
    assert "== bad: bimodule\n  bimodule: 1 finding(s)\n" \
        "    left-action-product at (1,1)" in out
    assert out.endswith("result: FAIL\n")
    assert sorted(label for label, _ in checked) == ["algebra", "bimodule"]
    checked.clear()
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "bad: bimodule 1 finding(s)\n" in out
    assert "matrix_2.pair: cartan ok\n" in out
    assert sorted(label for label, _ in checked) == ["algebra", "bimodule"]
    checked.clear()
    assert main(["derive", path, "bad", "dual"]) == 1
    assert "breaks the laws above" in capsys.readouterr().err
    assert sorted(label for label, _ in checked) == ["algebra", "bimodule"]


def test_shared_verdicts_are_never_changed(tmp_path, capsys, monkeypatch):
    # a command that added to a verdict it was handed would change what
    # the next command prints; a fresh process shows the unchanged bytes
    monkeypatch.setattr(catalog, "_CACHE", {})
    bad = noncommuting_bimodule_fixture()
    objects = dict(ALL_BUILTINS)
    objects["A"] = algebra_decl(bad.algebra)
    objects["bad"] = bimodule_decl(bad, "A")
    path = write_ws(tmp_path, objects)
    commands = [["report", path], ["check", path],
                ["derive", path, "dual_numbers.calculus", "pair"],
                ["derive", path, "quantum_plane_trunc.pair", "calculus"],
                ["report", path, "--format", "json"], ["report", path]]
    load_workspace(path)
    kept = copy.deepcopy({key: b.verdicts
                          for key, b in catalog._CACHE.items()})
    capsys.readouterr()
    for argv in commands:
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ncwb"] + argv,
                               capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr), argv
    assert {key: b.verdicts for key, b in catalog._CACHE.items()} == kept
