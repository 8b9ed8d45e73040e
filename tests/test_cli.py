"""Command line behaviour: exit codes, derived documents, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from ncwb.catalog import BUILTIN_NAMES, unit_differential_fixture
from ncwb.cli import main
from ncwb.workspace import (
    SCHEMA, algebra_decl, bimodule_decl, calculus_decl, canonical_text,
)


def write_ws(tmp_path, objects, name="ws.json"):
    path = tmp_path / name
    path.write_text(canonical_text({"schema": SCHEMA, "objects": objects}))
    return str(path)


def dn_objects():
    return {"dn": {"kind": "builtin", "builtin": "dual_numbers"}}


def broken_calculus_objects():
    bad = unit_differential_fixture()
    return {
        "A": algebra_decl(bad.algebra),
        "M": bimodule_decl(bad.bimodule, "A"),
        "bad": calculus_decl(bad, "A", "M"),
    }


def test_check_builtin_workspace_passes(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "dn.calculus: leibniz ok" in out
    assert "dn.pair: cartan ok" in out


def test_check_single_object_and_bundle_drilldown(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    assert main(["check", path, "dn.algebra"]) == 0
    assert capsys.readouterr().out.strip() == "dn.algebra: algebra ok"
    assert main(["check", path, "dn"]) == 0
    out = capsys.readouterr().out
    assert "dn.pair: cartan ok" in out


def test_check_reports_leibniz_witness(tmp_path, capsys):
    path = write_ws(tmp_path, broken_calculus_objects())
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "bad: leibniz 1 finding(s)" in out
    assert "leibniz at (0,0): d(1*1) defect -m0" in out


def test_check_unknown_object_is_usage_error(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    assert main(["check", path, "nope"]) == 2
    assert "unknown object" in capsys.readouterr().err


def test_malformed_rational_is_input_error(tmp_path, capsys):
    objects = dn_objects()
    objects["qp"] = {"kind": "builtin", "builtin": "quantum_plane_trunc",
                    "params": ["1/0", 2]}
    path = write_ws(tmp_path, objects)
    assert main(["check", path]) == 2
    assert "1/0" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["check", "/nonexistent/ws.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_derive_couniversal_document(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    out_path = tmp_path / "couniv.json"
    assert main(["derive", path, "dn.algebra", "couniversal",
                 "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert set(doc["objects"]) == {"algebra", "module", "pair"}
    assert doc["objects"]["module"]["dim"] == 2
    capsys.readouterr()
    assert main(["check", str(out_path)]) == 0


def test_derive_diffops_document(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    assert main(["derive", path, "dn.pair", "diffops"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["derived"]["kind"] == "operator_algebra"
    assert doc["derived"]["dim"] == 3
    assert len(doc["derived"]["basis"]) == 3
    assert "dim 3" in captured.err


def test_derive_relations_respects_word_length_env(tmp_path, capsys,
                                                   monkeypatch):
    path = write_ws(tmp_path, dn_objects())
    assert main(["derive", path, "dn.pair", "relations"]) == 0
    full = json.loads(capsys.readouterr().out)["derived"]
    assert full["max_word_len"] == 4
    monkeypatch.setenv("NCWB_MAX_WORD_LEN", "2")
    assert main(["derive", path, "dn.pair", "relations"]) == 0
    short = json.loads(capsys.readouterr().out)["derived"]
    assert short["max_word_len"] == 2
    assert len(short["words"]) < len(full["words"])
    monkeypatch.setenv("NCWB_MAX_WORD_LEN", "0")
    assert main(["derive", path, "dn.pair", "relations"]) == 2
    monkeypatch.setenv("NCWB_MAX_WORD_LEN", "lots")
    assert main(["derive", path, "dn.pair", "relations"]) == 2


# SHA-256 of the stdout of derive <export> pair relations at word length 4
RELATIONS_SHA256 = {
    "matrix_2":
        "13193a9aadb5c5488cccb08b620f059725571280b7ef324f0a1c35190bfc621e",
    "truncated_poly 6":
        "d9ee7764ff3bf82a37e1131c5d9ce15d7688de72b2083949db28ed8a8263599c",
}


@pytest.mark.parametrize("spec", sorted(RELATIONS_SHA256))
def test_derive_relations_bytes_are_pinned(tmp_path, capsys, monkeypatch,
                                           spec):
    path = str(tmp_path / "ws.json")
    assert main(["builtin"] + spec.split() + ["-o", path]) == 0
    monkeypatch.setenv("NCWB_MAX_WORD_LEN", "4")
    capsys.readouterr()
    assert main(["derive", path, "pair", "relations"]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(out).hexdigest() == RELATIONS_SHA256[spec]


# (builtin, member, what, NCWB_MAX_WORD_LEN): documents smaller than the
# -o buffer, and at length 4 (1.5 MB) several buffers long
OUTPUT_CASES = {
    "relations-2": ("matrix_2", "pair", "relations", "2"),
    "relations-4": ("matrix_2", "pair", "relations", "4"),
    "couniversal": ("dual_numbers", "algebra", "couniversal", "4"),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_output_file_bytes_match_stdout(tmp_path, capsys, monkeypatch, case):
    from ncwb.cli import OUTPUT_BUFFER
    name, member, what, max_len = OUTPUT_CASES[case]
    path = str(tmp_path / "ws.json")
    out_path = tmp_path / "out.json"
    assert main(["builtin", name, "-o", path]) == 0
    monkeypatch.setenv("NCWB_MAX_WORD_LEN", max_len)
    assert main(["derive", path, member, what, "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["derive", path, member, what]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert out_path.read_bytes() == out
    if case == "relations-4":
        assert len(out) > 4 * OUTPUT_BUFFER
        assert hashlib.sha256(out).hexdigest() == RELATIONS_SHA256[name]
    else:
        assert len(out) < OUTPUT_BUFFER


def test_report_bytes_are_pinned_at_fifteen_dimensions(tmp_path):
    # quantum_plane_trunc(2, 4) has n = 15, with 210 universal one-forms
    # and co-universal fields: far beyond the builtins of criterion 11
    path = write_ws(tmp_path, {"q": {"kind": "builtin",
                                     "builtin": "quantum_plane_trunc",
                                     "params": [2, 4]}})
    r = subprocess.run([sys.executable, "-m", "ncwb.cli", "report", path],
                       capture_output=True)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == \
        "0bcbbb0fa834e01fc74b187c22da45c4de2f0e27d436c9ca2f5b6b5782d74d27"


# SHA-256 of the stdout of builtin <name>, every builtin at its defaults
BUILTIN_SHA256 = {
    "dual_numbers":
        "29b92705ec3a75bd72e636208b64c377d19daba9f1ec386d2942338b1eca7a10",
    "truncated_poly":
        "75276a89edf9aee82a6aef2b55f15aa2eff307c0c9a41664aebdf69acef08dad",
    "group_algebra_z2":
        "f7c6f461754580def899a6d95bac12d93daf2b46bf44dd65941e1701c12c7356",
    "upper_triangular_2":
        "7c9a92f0ae47b9803030ad2982173f040cca8a0070237c1fb0fad3ae3f40a9f5",
    "matrix_2":
        "5373880c9817995edf6e51369170753a1213bb1ed2606cc1be06893a5ef97c43",
    "quantum_plane_trunc":
        "96f803bd32b7cc58cf586000da23e1aaa6c20d648562b5a42231cbc493bf3545",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_export_bytes_are_pinned(capsys, name):
    capsys.readouterr()
    assert main(["builtin", name]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(out).hexdigest() == BUILTIN_SHA256[name]


# SHA-256 of the stdout of derive <ws> q.<member> <what>, the inputs in
# DECLARATION_INPUT; on quantum_plane_trunc(2, 3), n = 10, with 90
# one-forms and fields.  universal, couniversal and factorization pin the
# full constructions, which report replaces by closed forms; diffops pins
# the operator algebra, whose dimension report reads off the order
# filtration
DECLARATION_SHA256 = {
    "universal":
        "a01c18b511519d7677ce4ee8750e41337f4ca8c63b176dbec402dbe2d7163e80",
    "couniversal":
        "daedf64148e0e388ec7f064a9f210ac1d7a68aa707654005111eebc990366e74",
    "dual":
        "cbe9c3b6db89b2a94749487cdac5be4cb97da7822b66d26a56ed896460a1eb42",
    "pair":
        "49b6079cae754590c512fb82bf0e13b65d903c5a9c493a2b7a9fa0ffa301e4b4",
    "calculus":
        "cf5bee3ab3bd9caf6d6f878215418f3824d31cf657a45f0b6a8c68002df443f6",
    "factorization":
        "41c8c80df52b2232ba9d337b09208b1861218f21fba59f6cf0a92bc3f4202385",
    "diffops":
        "9d6a61d6477af3a5610fefaac63b1b7701d898b1a36e0a5bce2d19496cce4fdc",
}

# the builtin, its parameters and the bundle member each kind is derived
# from
DECLARATION_INPUT = {
    "universal": ("quantum_plane_trunc", [2, 3], "algebra"),
    "couniversal": ("quantum_plane_trunc", [2, 3], "algebra"),
    "dual": ("quantum_plane_trunc", [2, 3], "regular"),
    "pair": ("truncated_poly", [5], "calculus"),
    "calculus": ("quantum_plane_trunc", [2, 3], "pair"),
    "factorization": ("quantum_plane_trunc", [2, 3], "pair"),
    "diffops": ("quantum_plane_trunc", [2, 3], "pair"),
}


@pytest.mark.parametrize("what", sorted(DECLARATION_SHA256))
def test_derived_declaration_bytes_are_pinned(tmp_path, capsys, what):
    name, params, member = DECLARATION_INPUT[what]
    path = write_ws(tmp_path, {"q": {"kind": "builtin", "builtin": name,
                                     "params": params}})
    capsys.readouterr()
    assert main(["derive", path, "q." + member, what]) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(out).hexdigest() == DECLARATION_SHA256[what]


# the construction each derive kind runs, by its name in ncwb.cli, and the
# dual_numbers member it runs on
DERIVE_CONSTRUCTION = {
    "dual": ("right_dual", "regular"),
    "pair": ("pair_from_calculus", "calculus"),
    "calculus": ("calculus_from_pair", "pair"),
    "universal": ("universal_calculus", "algebra"),
    "couniversal": ("co_universal_pair", "algebra"),
    "diffops": ("generate_diffop_algebra", "pair"),
    "relations": ("find_relations", "pair"),
    "factorization": ("co_universal_factorization", "pair"),
}


@pytest.mark.parametrize("what", sorted(DERIVE_CONSTRUCTION))
def test_derive_runs_the_construction_named_in_the_cli_module(
        tmp_path, capsys, monkeypatch, what):
    # a wrapper put on ncwb.cli's name, as the benchmark's tracer puts
    # one, is the one that runs
    import ncwb.cli
    attr, member = DERIVE_CONSTRUCTION[what]
    original, calls = getattr(ncwb.cli, attr), []

    def recording(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(ncwb.cli, attr, recording)
    path = write_ws(tmp_path, dn_objects())
    assert main(["derive", path, "dn." + member, what]) == 0
    assert calls == [attr]


# Runs a command as its child and prints the child's peak RSS in KiB to
# stderr.  ru_maxrss of a child counts the memory of the process it was
# started from, so the command is started from this small process and not
# from the test process.
PEAK_RSS_LAUNCHER = """
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
sys.stderr.write("peak_rss_kib %d\\n"
                 % resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def test_report_at_the_largest_documented_degree(tmp_path):
    # quantum_plane_trunc(2, 6), the largest degree catalog.MAX_PARAM
    # allows: n = 28, with 756 universal one-forms and co-universal fields
    path = write_ws(tmp_path, {"q": {"kind": "builtin",
                                     "builtin": "quantum_plane_trunc",
                                     "params": [2, 6]}})
    r = subprocess.run([sys.executable, "-c", PEAK_RSS_LAUNCHER,
                        sys.executable, "-m", "ncwb", "report", path],
                       capture_output=True, timeout=600)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == \
        "6efb464176b3eb14030ae503b90f57efb523bde520f3b2573a33d37c883b243a"
    peak_kib = int(r.stderr.decode().split()[-1])
    assert peak_kib < 64 * 1024


def test_report_at_the_longest_documented_word_length(tmp_path):
    # truncated_poly(6) at NCWB_MAX_WORD_LEN=8: 585,936 words, of which
    # 585,915 are relations; report counts them from the order
    # filtration, so its size does not grow with the word count
    path = write_ws(tmp_path, {"t": {"kind": "builtin",
                                     "builtin": "truncated_poly",
                                     "params": [6]}})
    r = subprocess.run([sys.executable, "-c", PEAK_RSS_LAUNCHER,
                        sys.executable, "-m", "ncwb", "report", path],
                       capture_output=True, timeout=600,
                       env=dict(os.environ, NCWB_MAX_WORD_LEN="8"))
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == \
        "b41f1b77405c5e35375661de68e036d4247bbb0d9aefe164bf41978e21ac2f83"
    assert b"relations: 585915 among 585936 words (length <= 8)" in r.stdout
    peak_kib = int(r.stderr.decode().split()[-1])
    assert peak_kib < 64 * 1024


def test_derive_dual_of_zero_bimodule(tmp_path, capsys):
    from ncwb.algebra import Bimodule
    from ncwb.catalog import builtin
    from ncwb.linalg import Matrix
    b = builtin("dual_numbers")
    zero = Bimodule(b.algebra, 0, (Matrix.zeros(0, 0),) * 2,
                    (Matrix.zeros(0, 0),) * 2)
    path = write_ws(tmp_path, {
        "A": algebra_decl(b.algebra),
        "Z": bimodule_decl(zero, "A"),
    })
    out_path = tmp_path / "dual.json"
    assert main(["derive", path, "Z", "dual", "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["objects"]["dual"]["dim"] == 0
    capsys.readouterr()
    assert main(["check", str(out_path)]) == 0


def test_derive_kind_mismatch_is_input_error(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    assert main(["derive", path, "dn.algebra", "diffops"]) == 2
    assert "needs a cartan_pair" in capsys.readouterr().err


@pytest.mark.parametrize("name,what,message", [
    ("dn.regular", "universal",
     "derive universal needs an algebra, but 'dn.regular' is a bimodule"),
    ("dn.algebra", "dual",
     "derive dual needs a bimodule, but 'dn.algebra' is an algebra"),
])
def test_derive_kind_mismatch_writes_each_article(tmp_path, capsys, name,
                                                  what, message):
    path = write_ws(tmp_path, dn_objects())
    assert main(["derive", path, name, what]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_derive_pair_output_is_self_contained(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    out_path = tmp_path / "pair.json"
    assert main(["derive", path, "dn.calculus", "pair",
                 "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "pair: cartan ok" in out


def test_report_empty_workspace(tmp_path, capsys):
    path = write_ws(tmp_path, {})
    assert main(["report", path]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_report_text_sections(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "== dn: bundle dual_numbers" in out
    assert "universal one-forms dim 2" in out
    assert "co-universal fields dim 2" in out
    assert "vacuum: ok" in out
    assert "commutation: classical (no violations)" in out
    assert "operator algebra dim 3" in out
    assert out.rstrip().endswith("result: ok")


def test_report_quantum_plane_names_ccr_witness(tmp_path, capsys):
    path = write_ws(tmp_path, {
        "qp": {"kind": "builtin", "builtin": "quantum_plane_trunc",
               "params": [2, 2]}})
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "commutation: 2 violation witness(es)" in out
    assert "centrality at (1,1)" in out
    assert "commutator at (1,1)" in out
    assert "result: ok" in out


def test_report_flags_broken_object_but_continues(tmp_path, capsys):
    objects = broken_calculus_objects()
    objects["dn"] = dn_objects()["dn"]
    path = write_ws(tmp_path, objects)
    assert main(["report", path]) == 1
    out = capsys.readouterr().out
    assert "leibniz: 1 finding(s)" in out
    assert "== dn.pair: cartan_pair" in out
    assert out.rstrip().endswith("result: FAIL")


def test_report_json_format(tmp_path, capsys):
    path = write_ws(tmp_path, dn_objects())
    assert main(["report", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    pair = doc["report"]["dn.pair"]
    assert pair["checks"]["cartan"]["ok"] is True
    assert pair["analysis"]["diffop_dim"] == 3
    assert pair["analysis"]["factorization"]["unique"] is True
    assert doc["report"]["dn"]["kind"] == "builtin"


def test_builtin_verb_emits_loadable_document(tmp_path, capsys):
    out_path = tmp_path / "tr.json"
    assert main(["builtin", "truncated_poly", "3", "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert set(doc["objects"]) == {"algebra", "regular", "calculus_module",
                                   "calculus", "pair_module", "pair"}
    capsys.readouterr()
    assert main(["check", str(out_path)]) == 0
    assert main(["builtin", "truncated_poly", "9"]) == 2
    assert main(["builtin", "no_such_bundle"]) == 2


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derive"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_package_runs_as_module(capsys):
    assert main(["builtin", "dual_numbers"]) == 0
    expected = capsys.readouterr().out
    r = subprocess.run([sys.executable, "-m", "ncwb", "builtin",
                        "dual_numbers"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == expected


def test_console_entry_runs_as_subprocess(tmp_path):
    path = write_ws(tmp_path, dn_objects())
    r = subprocess.run([sys.executable, "-m", "ncwb.cli", "report", path],
                       capture_output=True, text=True)
    r2 = subprocess.run([sys.executable, "-m", "ncwb.cli", "report", path],
                        capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout == r2.stdout
    assert "result: ok" in r.stdout


def lawless_objects():
    # B is unital but not associative: (x*x)*x = 0, x*(x*x) = x;
    # M over the dual numbers has a right action of x that does not
    # square to zero
    return {
        "B": {"kind": "algebra", "basis": ["1", "x", "y"],
              "products": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                           [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
                           [[0, 0, 1], [0, 0, 0], [0, 0, 0]]],
              "unit": [1, 0, 0]},
        "A": {"kind": "algebra", "basis": ["1", "x"],
              "products": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
              "unit": [1, 0]},
        "M": {"kind": "bimodule", "algebra": "A", "dim": 2,
              "left": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]],
              "right": [[[1, 0], [0, 1]], [[-1, -1], [-1, -1]]]},
    }


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
@pytest.mark.parametrize("name,what,law", [
    ("B", "universal", "associativity at (1,1,1)"),
    ("B", "couniversal", "associativity at (1,1,1)"),
    ("M", "dual", "right-action-product at (1,1)"),
])
def test_derive_on_lawless_input_exits_one_with_findings(
        tmp_path, optimize, name, what, law):
    path = write_ws(tmp_path, lawless_objects())
    r = subprocess.run([sys.executable] + optimize
                       + ["-m", "ncwb.cli", "derive", path, name, what],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stdout == ""
    assert law in r.stderr
    assert "Traceback" not in r.stderr


def test_report_on_non_associative_algebra_exits_one(tmp_path, capsys):
    path = write_ws(tmp_path, {"B": lawless_objects()["B"]})
    assert main(["report", path]) == 1
    out = capsys.readouterr().out
    assert "associativity at (1,1,1)" in out
    assert out.rstrip().endswith("result: FAIL")


def test_report_skips_lawful_looking_objects_over_a_lawless_algebra(
        tmp_path, capsys):
    # the zero calculus and the pair without fields over B pass their own
    # checks trivially; the report states their factorizations in closed
    # form, which holds only over a lawful algebra, so over the
    # non-associative B it must state nothing
    objects = {"B": lawless_objects()["B"],
               "N": {"kind": "bimodule", "algebra": "B", "dim": 0,
                     "left": [[], [], []], "right": [[], [], []]},
               "zero_calculus": {"kind": "calculus", "algebra": "B",
                                 "module": "N", "d": []},
               "empty_pair": {"kind": "cartan_pair", "algebra": "B",
                              "module": "N", "action": []}}
    path = write_ws(tmp_path, objects)
    assert main(["report", path]) == 1
    out = capsys.readouterr().out
    assert "associativity at (1,1,1)" in out
    assert "  leibniz: ok" in out
    assert "  cartan: ok" in out
    assert "factors through" not in out
    assert "co-universal factorization" not in out
    assert out.rstrip().endswith("result: FAIL")
