"""Span tracer that times calls into ncwb from outside the package.

Each wrapped call records a span (name, start, end, parent, and for some
functions an amount such as the cells materialised) in memory; spans are
written out once, when the traced pass ends.  A function is
wrapped once and the wrapper is rebound under every name that any loaded
ncwb module holds for it, because the modules import each other's
functions with ``from .linalg import kernel`` and patching only the
defining module would miss those calls.
"""

from __future__ import annotations

import functools
import math
import sys
import time


def _cells(m) -> int:
    return getattr(m, "nrows", 0) * getattr(m, "ncols", 0)


def _kron_cells(args, result) -> int:
    return _cells(result)


def _kernel_cells(args, result) -> int:
    return _cells(args[0])


def _words(args, result) -> int:
    return len(result.words)


def _output_bytes(args, result) -> int:
    # canonical_text is ASCII JSON, so characters are bytes
    return len(result)


# (module, attribute, span name, amount); ``amount(args, result)`` is a
# number stored with the span and summed by ``aggregate``.  A target the
# package no longer has is an error, so it cannot read as a zero.
TARGETS = (
    ("ncwb.linalg", "kron", "linalg.kron", _kron_cells),
    ("ncwb.linalg", "kernel", "linalg.kernel", _kernel_cells),
    ("ncwb.linalg", "solve", "linalg.solve", None),
    ("ncwb.linalg", "restrict_to_kernel", "linalg.restrict_to_kernel", None),
    ("ncwb.linalg", "span_closure", "linalg.span_closure", None),
    ("ncwb.linalg", "closure_under_maps", "linalg.closure_under_maps", None),
    ("ncwb.algebra", "right_dual", "algebra.right_dual", None),
    ("ncwb.algebra", "left_dual", "algebra.left_dual", None),
    ("ncwb.algebra", "bimodule_map_space", "algebra.bimodule_map_space",
     None),
    ("ncwb.algebra", "tensor_over_A", "algebra.tensor_over_A", None),
    ("ncwb.algebra", "check_algebra", "algebra.check_algebra", None),
    ("ncwb.algebra", "check_bimodule", "algebra.check_bimodule", None),
    ("ncwb.algebra", "check_bimodule_map", "algebra.check_bimodule_map",
     None),
    ("ncwb.calculus", "universal_calculus", "calculus.universal_calculus",
     None),
    ("ncwb.calculus", "factor_through_universal",
     "calculus.factor_through_universal", None),
    ("ncwb.calculus", "is_spanned_by_differential",
     "calculus.is_spanned_by_differential", None),
    ("ncwb.calculus", "check_leibniz", "calculus.check_leibniz", None),
    ("ncwb.cartan", "co_universal_pair", "cartan.co_universal_pair", None),
    ("ncwb.cartan", "co_universal_factorization",
     "cartan.co_universal_factorization", None),
    ("ncwb.cartan", "pair_from_calculus", "cartan.pair_from_calculus", None),
    ("ncwb.cartan", "calculus_from_pair", "cartan.calculus_from_pair", None),
    ("ncwb.cartan", "spanning_kernel_diagnostic",
     "cartan.spanning_kernel_diagnostic", None),
    ("ncwb.cartan", "check_cartan", "cartan.check_cartan", None),
    ("ncwb.diffops", "find_relations", "diffops.find_relations",
     _words),
    ("ncwb.diffops", "generate_diffop_algebra",
     "diffops.generate_diffop_algebra", None),
    ("ncwb.diffops", "check_ccr", "diffops.check_ccr", None),
    ("ncwb.diffops", "fock_check", "diffops.fock_check", None),
    ("ncwb.connections", "connection_space", "connections.connection_space",
     None),
    ("ncwb.connections", "trivial_connection",
     "connections.trivial_connection", None),
    ("ncwb.connections", "check_connection", "connections.check_connection",
     None),
    ("ncwb.connections", "check_covariant_axioms",
     "connections.check_covariant_axioms", None),
    ("ncwb.connections", "contraction_matrix",
     "connections.contraction_matrix", None),
    ("ncwb.catalog", "builtin", "catalog.builtin", None),
    ("ncwb.workspace", "load_workspace", "workspace.load_workspace", None),
    ("ncwb.workspace", "canonical_text", "workspace.canonical_text",
     _output_bytes),
    ("ncwb.cli", "main", "cli.command", None),
)

# spans that also record the identity of their first argument, so that
# ``aggregate`` can count distinct arguments (reuse ratios)
DISTINCT_FIRST_ARG = ("calculus.universal_calculus",)

# spans that count towards a group total; nested members count once
GROUPS = {
    "algebra.checks": ("algebra.check_algebra", "algebra.check_bimodule",
                       "algebra.check_bimodule_map"),
    "connections": tuple(name for _, _, name, _ in TARGETS
                         if name.startswith("connections.")),
}

# every span name ``aggregate`` can report
SPAN_NAMES = frozenset([name for _, _, name, _ in TARGETS]
                       + ["linalg.matmul"] + list(GROUPS))


class Tracer:
    """In-memory spans ``[name, start, end, parent, amount, arg_id]``,
    filled by wrapped functions; parent is an index into the list (-1 for
    none), amount and arg_id are None where not recorded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self._args: list = []          # keeps recorded first args alive

    def wrap(self, name: str, fn, amount=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        keep = self._args if name in DISTINCT_FIRST_ARG else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            if keep is not None and args:
                keep.append(args[0])
                rec[5] = id(args[0])
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if amount is not None:
                rec[4] = amount(args, result)
            return result

        return traced

    def install(self):
        """Wrap every target and Matrix.__matmul__ in the loaded package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ncwb" or n.startswith("ncwb."))]
        for modname, attr, name, amount in TARGETS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                self.uninstall()
                raise LookupError("cannot trace %s: %s.%s is not loaded"
                                  % (name, modname, attr))
            wrapper = self.wrap(name, orig, amount)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        matrix = sys.modules["ncwb.linalg"].Matrix
        orig = vars(matrix)["__matmul__"]
        self._undo.append((matrix, "__matmul__", orig))
        matrix.__matmul__ = self.wrap("linalg.matmul", orig)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def aggregate(spans, groups=GROUPS, window=None) -> dict:
    """Per span name: calls, total_s, self_s, amount (sum of the recorded
    amounts) and distinct (distinct first arguments); per group: total_s.

    Only spans that lie inside ``window = (start, end)`` count, if given.
    self time is a span's duration minus the durations of its direct
    children.  total time sums only the spans with no ancestor of the same
    name (or, for a group, no ancestor inside the group), so recursion and
    nesting are not counted twice.
    """
    lo, hi = window if window is not None else (-math.inf, math.inf)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(i, members):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in members:
                return False
            p = spans[p][3]
        return True

    inside = [i for i, s in enumerate(spans) if lo <= s[1] and s[2] <= hi]
    out: dict = {}
    arg_ids: dict = {}
    for i in inside:
        name, start, end, _parent, amount, arg_id = spans[i]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "amount": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if outermost(i, (name,)):
            row["total_s"] += end - start
        if amount is not None:
            row["amount"] += amount
        if arg_id is not None:
            arg_ids.setdefault(name, set()).add(arg_id)
    for name, row in out.items():
        row["distinct"] = len(arg_ids.get(name, ()))
    for group, members in groups.items():
        total = 0.0
        for i in inside:
            name, start, end = spans[i][:3]
            if name in members and outermost(i, members):
                total += end - start
        out[group] = {"calls": 0, "total_s": total, "self_s": 0.0,
                      "amount": 0, "distinct": 0}
    return out
