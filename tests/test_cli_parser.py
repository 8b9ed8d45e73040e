"""The command line parser against the argparse parser it replaced.

helpers.oracle_parser is the argparse parser ncwb read its command line
with before; ncwb.cli._parse reads the same grammar from one table and
composes every error reason itself, and only the help and usage text come
from argparse, through parsers ncwb.cli._argparser builds from the same
table when one is printed.  Both are run on the same argv and must agree
on the exit code, the parsed attributes and every byte written, except
for the two documented readings (see the ncwb.cli module docstring): a
token that starts with - and a digit is always a positional, and a --
after the first is an ordinary argument.  The oracle is given a plain
word in place of each such token, which is how the new parser reads it.
Help and usage errors must also drop what a closed or missing stream
cannot take, and no run that succeeds may import argparse.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ncwb.catalog import BUILTIN_NAMES
from ncwb.cli import _COMMANDS, _parse, main
from ncwb.workspace import SCHEMA

from helpers import oracle_parser

COMMANDS = list(_COMMANDS)
VOCABULARY = COMMANDS + [
    "frobnicate", "ws.json", "a.json", "qp", "dual", "relations", "bogus",
    "-o", "-oX", "--output", "--out", "--output=X", "--format", "--form",
    "--format=json", "--form=xml", "json", "text", "xml", "-h", "--help",
    "--he", "-ho", "--", "-", "-1", "-1/2", "1/2", "-.5", "-x", "--=x", "",
]


@contextlib.contextmanager
def columns(n):
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


def outcome(parse, argv, width=80):
    """(exit code or None, parsed attributes or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with columns(width), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            attrs, code = vars(parse(list(argv))), None
        except SystemExit as e:
            attrs, code = None, e.code
    return code, attrs, out.getvalue(), err.getvalue()


def oracle_outcome(argv, width=80):
    """The oracle's outcome on argv with each token the two parsers read
    differently replaced by a plain word, and the word put back."""
    words, given, seen = {}, [], False
    for tok in argv:
        if tok[:1] == "-" and tok[1:2].isdecimal() or tok == "--" and seen:
            words["@%d@" % len(words)] = tok
            tok = "@%d@" % (len(words) - 1)
        seen = seen or tok == "--"
        given.append(tok)

    def back(x):
        if isinstance(x, str):
            for word, tok in words.items():
                x = x.replace(word, tok)
            return x
        if isinstance(x, (list, tuple)):
            return type(x)(back(y) for y in x)
        if isinstance(x, dict):
            return {k: back(v) for k, v in x.items()}
        return x
    return back(outcome(lambda a: oracle_parser().parse_args(a), given,
                        width))


ARGV = st.tuples(
    st.sampled_from(COMMANDS + ["frobnicate", None]),
    st.lists(st.sampled_from(VOCABULARY), max_size=7),
).map(lambda t: ([t[0]] if t[0] else []) + t[1])


@settings(max_examples=400, deadline=None)
@given(ARGV)
def test_the_table_parser_matches_the_argparse_oracle(argv):
    assert outcome(_parse, argv) == oracle_outcome(argv)


@pytest.mark.parametrize("width", [80, 20, 30, 200])
@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"]]
                         + [[c, "-h"] for c in COMMANDS]
                         + [[c, "--help"] for c in COMMANDS],
                         ids=" ".join)
def test_help_bytes_match_the_oracle(argv, width):
    code, attrs, out, err = outcome(_parse, argv, width)
    assert (code, attrs, err) == (0, None, "")
    assert out.startswith("usage: ncwb")
    assert (code, attrs, out, err) == oracle_outcome(argv, width)


@pytest.mark.parametrize("argv", [
    ["derive"], ["frobnicate"], [], ["report", "f", "--format", "xml"],
    ["builtin", "b", "-o", "x", "1"], ["derive", "f", "n", "dual", "-o"],
    ["--form", "report", "f"], ["check", "f", "--=x"],
], ids=" ".join)
def test_usage_errors_match_the_oracle(argv):
    code, attrs, out, err = outcome(_parse, argv)
    assert (code, attrs, out) == (2, None, "")
    assert err.startswith("usage: ncwb")
    assert ": error: " in err.splitlines()[-1]
    assert (code, attrs, out, err) == oracle_outcome(argv)


@pytest.mark.parametrize("argv,attrs", [
    (["report", "f", "--form", "json"], {"file": "f", "format": "json"}),
    (["derive", "f", "-oa", "n", "pair", "--out", "b"],
     {"file": "f", "name": "n", "what": "pair", "output": "b"}),
    (["builtin", "--output=x", "b", "1", "-1/2"],
     {"bundle": "b", "params": ["1", "-1/2"], "output": "x"}),
    (["check", "-hh", "f"], None),
    (["builtin", "b", "--", "-o", "-1"],
     {"bundle": "b", "params": ["-o", "-1"], "output": None}),
], ids=["prefix", "short-value", "equals-and-negatives", "flag-cluster",
        "separator"])
def test_the_grammar_reads_prefixes_values_and_the_separator(argv, attrs):
    code, got, _, _ = outcome(_parse, argv)
    if attrs is None:
        assert code == 0
    else:
        assert code is None
        assert {k: got[k] for k in attrs} == attrs


def test_a_negative_rational_parameter_needs_no_separator(capsys):
    assert main(["builtin", "quantum_plane_trunc", "-1/2", "2"]) == 0
    bare = capsys.readouterr()
    assert main(["builtin", "quantum_plane_trunc", "--", "-1/2", "2"]) == 0
    assert capsys.readouterr() == bare
    assert main(["builtin", "quantum_plane_trunc", "1/2", "2"]) == 0
    assert capsys.readouterr().out != bare.out


def test_a_second_separator_is_an_ordinary_argument(capsys):
    # argparse dropped the first -- among each positional's arguments, so
    # this read what = [] and derive failed with a traceback
    with pytest.raises(SystemExit) as exc:
        main(["derive", "ws.json", "pair", "--", "--"])
    assert exc.value.code == 2
    assert "invalid choice: '--'" in capsys.readouterr().err
    args = _parse(["builtin", "b", "--", "1", "--"])
    assert args.params == ["1", "--"]


class BrokenPipe:
    """A stream whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("state", [None, BrokenPipe()], ids=["none", "pipe"])
@pytest.mark.parametrize("argv,code,stream", [
    (["-h"], 0, "stdout"), (["derive", "-h"], 0, "stdout"),
    (["builtin", "b", "-o", "x", "1"], 2, "stderr"),
], ids=["help", "derive-help", "usage-error"])
def test_help_and_usage_errors_drop_what_a_gone_stream_cannot_take(
        monkeypatch, argv, code, stream, state):
    # argparse's error() writes the usage to stdout when stderr is None,
    # and print_help() writes to stderr when stdout is None: neither may
    # happen here
    other = io.StringIO()
    monkeypatch.setattr(sys, stream, state)
    monkeypatch.setattr(sys, "stderr" if stream == "stdout" else "stdout",
                        other)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert other.getvalue() == ""


def test_report_imports_neither_argparse_nor_gettext_nor_locale(tmp_path):
    # argparse imports gettext, which imports locale the first time
    # argparse asks it for a message; only help and usage errors build an
    # argparse parser, so no run that succeeds loads any of the three.
    # The records are plain classes, so no run loads dataclasses, nor the
    # inspect that dataclasses imports
    objects = {name: {"kind": "builtin", "builtin": name}
               for name in BUILTIN_NAMES}
    objects["truncated_poly"]["params"] = [4]
    objects["quantum_plane_trunc"]["params"] = [2, 2]
    path = tmp_path / "all.json"
    path.write_text(json.dumps({"schema": SCHEMA, "objects": objects}))
    out = tmp_path / "out.json"
    probe = ("import json, sys\n"
             "from ncwb.cli import main\n"
             "code = main(json.loads(sys.argv[1]))\n"
             "sys.stdout.flush()\n"
             "loaded = {'argparse', 'gettext', 'locale', 'dataclasses',\n"
             "          'inspect'} & set(sys.modules)\n"
             "sys.stderr.write('%d %s\\n' % (code, sorted(loaded)))\n")
    runs = {}
    for argv in (["report", path], ["check", path],
                 ["derive", path, "dual_numbers.pair", "relations", "-o", out],
                 ["builtin", "dual_numbers", "-o", out]):
        argv = list(map(str, argv))
        r = runs[argv[0]] = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(argv)],
            capture_output=True, text=True)
        assert r.stderr.splitlines()[-1] == "0 []", (argv, r.stderr)
    assert runs["report"].stdout.rstrip().endswith("result: ok")
    assert "dual_numbers.pair: cartan ok" in runs["check"].stdout
    assert runs["builtin"].stdout == runs["derive"].stdout == ""
    assert json.loads(out.read_text())["schema"] == SCHEMA


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys\n"
             "import ncwb.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", probe],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr
