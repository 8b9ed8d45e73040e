"""report on connections: the balanced tensor product M (x)_A E and the
free module A^r are built for each connection when the workspace loads,
and its Leibniz and covariant-derivative checks run against them.  These
tests pin the bytes of report on a workspace of lawful and unlawful
connections over two builtin calculi."""

import hashlib

import pytest

from ncwb.catalog import builtin
from ncwb.connections import trivial_connection
from ncwb.linalg import Matrix
from ncwb.workspace import matrix_rows

from helpers import connection_decl
from test_report_closed_forms import run, write_doc

# SHA-256 of the workspace file below, so that a change in how the
# trivial connections are built shows here and not only in the report
WORKSPACE_SHA256 = \
    "ed6d115a4a4cae81dc5b3a9c11275dc0a1039491802d8eea1e51e420b68cca6c"

# SHA-256 of report's stdout on that workspace; the zero connection breaks
# the Leibniz law, so report exits 1
REPORT_SHA256 = {
    "text":
        "6d0b1e2d18fba9e0e0e82be7f7c6b1634c2dbb11b58c36b4c89d54a304909dc9",
    "json":
        "1aedc124df6984f3d51a7aa6aaa1acafdbd541953e3a30edc18a8bb4c828d46f",
}


@pytest.fixture
def connections_workspace(tmp_path):
    """truncated_poly 4 and matrix_2, a trivial connection of rank 2 on
    each calculus, and the zero map of rank 1 on truncated_poly 4."""
    tp = builtin("truncated_poly", (4,)).calculus
    m2 = builtin("matrix_2").calculus
    # M (x)_A A is M, so a map A -> M (x)_A A is dim M x dim A
    zero = Matrix.zeros(tp.bimodule.dim, tp.algebra.dim)
    objects = {
        "tp": {"kind": "builtin", "builtin": "truncated_poly",
               "params": [4]},
        "m2": {"kind": "builtin", "builtin": "matrix_2", "params": []},
        "tp_trivial": connection_decl(trivial_connection(tp, 2),
                                      "tp.calculus"),
        "m2_trivial": connection_decl(trivial_connection(m2, 2),
                                      "m2.calculus"),
        "tp_zero": {"kind": "connection", "calculus": "tp.calculus",
                    "rank": 1, "matrix": matrix_rows(zero)},
    }
    return write_doc(str(tmp_path), objects)


def test_connections_workspace_bytes(connections_workspace):
    with open(connections_workspace, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == WORKSPACE_SHA256


@pytest.mark.parametrize("fmt", sorted(REPORT_SHA256))
def test_report_bytes_on_connections(connections_workspace, fmt):
    code, out = run(["report", connections_workspace, "--format", fmt])
    assert (code, hashlib.sha256(out).hexdigest()) == (1, REPORT_SHA256[fmt])
