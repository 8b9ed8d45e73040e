"""report's pair section comes from small closures and closed forms: the
relation counts and the operator algebra's dimension from the order
filtration, the spanning diagnostic without the left dual, the vacuum
from the law checks.  These tests check that report calls none of those
constructions and that its bytes are those pinned for every word
length."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

import ncwb.algebra
import ncwb.calculus
import ncwb.cartan
import ncwb.cli
import ncwb.diffops
from ncwb.algebra import Algebra, Bimodule, check_algebra
from ncwb.cartan import CartanPair, check_cartan
from ncwb.catalog import BUILTIN_NAMES, builtin, vacuum_violation_fixture
from ncwb.diffops import fock_check
from ncwb.linalg import Matrix
from ncwb.workspace import SCHEMA

from test_acceptance import PARAMS, REPORT_JSON_SHA256, REPORT_TEXT_SHA256
from test_report_closed_forms import MATRIX_2_REPORT_SHA256, run
from helpers import random_action_pairs

CONSTRUCTIONS = ("find_relations", "generate_diffop_algebra",
                 "calculus_from_pair", "left_dual", "fock_check")

# SHA-256 of report's stdout on the workspace of all six builtins (the
# one of criterion 11) at each NCWB_MAX_WORD_LEN, text and JSON; length 4,
# the default, is REPORT_TEXT_SHA256 and REPORT_JSON_SHA256
REPORT_SHA256_BY_LENGTH = {
    1: ("b6477625655d379bbee4bc67d82a812bd2f75302b18bbb28335a7cf5da046fa5",
        "6dbf9a829904fb7a97940a549c595aa808527814dd4ee92a918ce8496ab8e610"),
    2: ("3f65b04b04c58789fb71ddff11c53b5ddc8c9b2591872bd65eee84cec1217dbb",
        "7152b79139c054fd4d52277f60c707b07b2b0621c01951a24d9c135e355572d7"),
    3: ("4b1b7a1b5666ae9517ca24a84793215416bea79a1fb92566284b825ddd692145",
        "a3e49779f58c7768f16ee8ff42f038824bfd60f162e0792a35f8dfe95571f334"),
    4: (REPORT_TEXT_SHA256, REPORT_JSON_SHA256),
    5: ("5b76b1532e6d91afbfc6d89b8b281264c46468669a58cde70f40c3d927ebc843",
        "068624c88c5fce2e742be411fc67a47586d4a407e40d52b03b84595128212433"),
    6: ("3d0a041f1c34e6455e2aff0b0b7851a99bc3606acacaeaf33b9576466596839d",
        "e74be2bde066a28f1ba14db93c5d8cdee94b2e5aae162012f9c8e701a40b6d99"),
    7: ("07b454a97ca135b549c418f13cca5a165c08ef2e86675abf2b1b409a66faf09c",
        "b3bd4008afaae7674e5012821df7357118440709d17738a83fef9f60b6a9106b"),
    8: ("a22819e32c8980458256a2c522de7c099472884aa56e821ed4a1fc125ce1f939",
        "2caa5f51bd49b9251cc9fd8e8ad758b0f1081d68e5215be4daae3a59c3762fbe"),
}


@pytest.fixture
def constructions_refused(monkeypatch):
    """Every module of the package that holds one of the five
    constructions gets a stand-in that fails the test when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("report built a relation search, an operator "
                             "algebra closure, a left dual or a vacuum "
                             "check")
    for module in (ncwb.cli, ncwb.algebra, ncwb.calculus, ncwb.cartan,
                   ncwb.diffops):
        for attr in CONSTRUCTIONS:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)


@pytest.fixture
def all_builtins(tmp_path):
    """The workspace of criterion 11, its objects in BUILTIN_NAMES order."""
    objects = {name: {"kind": "builtin", "builtin": name,
                      "params": list(PARAMS.get(name, ()))}
               for name in BUILTIN_NAMES}
    path = str(tmp_path / "all.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "objects": objects}, fh)
    return path


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("length", sorted(REPORT_SHA256_BY_LENGTH))
def test_report_bytes_at_every_word_length(all_builtins, monkeypatch,
                                           constructions_refused, length):
    monkeypatch.setenv("NCWB_MAX_WORD_LEN", str(length))
    for fmt, expected in zip(("text", "json"),
                             REPORT_SHA256_BY_LENGTH[length]):
        code, out = run(["report", all_builtins, "--format", fmt])
        assert (code, digest(out)) == (0, expected)


def test_report_on_all_builtins_builds_no_large_construction(
        all_builtins, constructions_refused):
    code, text = run(["report", all_builtins])
    assert (code, digest(text)) == (0, REPORT_TEXT_SHA256)
    code, doc = run(["report", all_builtins, "--format", "json"])
    assert (code, digest(doc)) == (0, REPORT_JSON_SHA256)


def test_report_on_a_declared_workspace_builds_no_large_construction(
        tmp_path, constructions_refused):
    path = str(tmp_path / "m2.json")
    assert run(["builtin", "matrix_2", "-o", path])[0] == 0
    for fmt in ("text", "json"):
        code, out = run(["report", path, "--format", fmt])
        assert (code, digest(out)) == (0, MATRIX_2_REPORT_SHA256[fmt])


# int() reads the last three: ASCII [0-9]+ is the only form taken
@pytest.mark.parametrize("value", ["0", "9", "-1", "lots", "4.0", " 3", "+3",
                                   "\u0663"])
def test_report_refuses_a_word_length_outside_the_range(
        all_builtins, monkeypatch, constructions_refused, value):
    monkeypatch.setenv("NCWB_MAX_WORD_LEN", value)
    assert run(["report", all_builtins]) == (2, b"")


def assert_vacuum_follows_from_the_laws(pair):
    """Each fock_check finding has its law-check twin: vacuum-annihilation
    at t is check_cartan's unit-annihilation at t, vacuum-reproduction at
    i is check_algebra's right-unit at i.  So a pair that report analyses,
    one whose algebra and pair pass, has a vacuum."""
    twins = {"vacuum-annihilation": {
                 f.witness for f in check_cartan(pair).findings
                 if f.law == "unit-annihilation"},
             "vacuum-reproduction": {
                 f.witness for f in check_algebra(pair.algebra).findings
                 if f.law == "right-unit"}}
    for f in fock_check(pair).findings:
        assert f.witness in twins[f.law], f


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_vacuum_findings_on_builtins_follow_from_the_laws(name):
    pair = builtin(name).pair
    assert fock_check(pair).ok
    assert_vacuum_follows_from_the_laws(pair)


def test_vacuum_findings_on_the_planted_pair_follow_from_the_laws():
    pair = vacuum_violation_fixture()
    assert not fock_check(pair).ok
    assert_vacuum_follows_from_the_laws(pair)


@st.composite
def lawless_pairs(draw):
    """Structure constants, unit, bimodule actions and fields all drawn at
    random: the unit is seldom a right unit and X(1) seldom 0."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    entry = st.sampled_from((0, 0, 1, -1, 2))

    def matrix(size):
        return Matrix([[draw(entry) for _ in range(size)]
                       for _ in range(size)], ncols=size)

    a = Algebra(["e%d" % i for i in range(n)],
                [[[draw(entry) for _ in range(n)] for _ in range(n)]
                 for _ in range(n)], [draw(entry) for _ in range(n)])
    bimodule = Bimodule(a, m, [matrix(m) for _ in range(n)],
                        [matrix(m) for _ in range(n)])
    return CartanPair(a, bimodule, [matrix(n) for _ in range(m)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(lawless_pairs(), random_action_pairs(
    [builtin(name).pair for name in BUILTIN_NAMES])))
def test_vacuum_findings_on_lawless_pairs_follow_from_the_laws(pair):
    assert_vacuum_follows_from_the_laws(pair)
