"""Tests for the benchmark's own code (not part of the package suite).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import speed  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402
from transport import (  # noqa: E402
    inverse, matmul, transport_bundle, unimodular,
)

from ncwb import algebra, calculus, cli, connections, workspace  # noqa: E402


# ---- transport ---------------------------------------------------------

def _dense_workspace(tmp_path, seed):
    spec = workloads.ConnectionsDense().prepare(str(tmp_path), seed)
    return spec, workspace.load_workspace(spec["workspace"])


def _invariants(c):
    """Dimensions that no change of basis can move."""
    a = c.algebra
    return (calculus.universal_calculus(a).bimodule.dim,
            algebra.right_dual(c.bimodule).dim,
            connections.connection_space(
                c, algebra.LeftModule.free(a, 1)).homogeneous.dim,
            calculus.factor_through_universal(c)[1].ok)


def test_unimodular_is_mostly_nonzero_and_invertible_over_the_integers():
    p = unimodular(5, random.Random(7))
    assert sum(x != 0 for row in p for x in row) > 25 // 2
    pinv = inverse(p)
    assert all(x.denominator == 1 for row in pinv for x in row)
    assert matmul(p, pinv) == [[int(i == j) for j in range(5)]
                               for i in range(5)]


@pytest.mark.parametrize("seed", [1, 2])
def test_transport_keeps_laws_and_invariant_dimensions(tmp_path, seed):
    spec, ws = _dense_workspace(tmp_path, seed)
    assert workloads.transported_law_failures(spec["workspace"],
                                              spec["copies"]) == []
    for copy in spec["copies"]:
        dense = ws.get(copy["op"] + "-calculus").obj
        # the tables really are dense, with entries other than 0 and +-1
        entries = [x for row in dense.algebra.sc for v in row for x in v]
        assert any(abs(x) > 1 for x in entries)
        if copy["op"] == "tp5":
            continue        # the n=5 solves are slow; laws are checked above
        _, builtin, params, _ = next(c for c in workloads.ConnectionsDense
                                     .COPIES if c[0] == copy["op"])
        export = workloads._export_builtin(
            str(tmp_path / (copy["op"] + "_orig.json")), builtin, params)
        orig_ws = workspace.parse_workspace(json.dumps(export))
        assert _invariants(dense) == _invariants(orig_ws.get("calculus").obj)


def test_transport_depends_only_on_the_seed(tmp_path):
    export = workloads._export_builtin(str(tmp_path / "m2.json"),
                                       "matrix_2", ())
    one = transport_bundle(export, "m2", random.Random("3-m2"))
    two = transport_bundle(export, "m2", random.Random("3-m2"))
    other = transport_bundle(export, "m2", random.Random("4-m2"))
    assert one == two
    assert one != other


def test_law_failure_in_transported_input_is_caught(tmp_path):
    spec, _ = _dense_workspace(tmp_path, 1)
    with open(spec["workspace"], encoding="utf-8") as fh:
        doc = json.load(fh)
    prod = doc["objects"]["ut2-algebra"]["products"]
    prod[1][2][0] = str(int(prod[1][2][0]) + 1)
    with open(spec["workspace"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    failures = workloads.transported_law_failures(spec["workspace"],
                                                  spec["copies"])
    assert "ut2 algebra" in failures


# ---- tracer ------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_total_minus_children_on_a_synthetic_nest():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        traced_leaf(0.5)
        clock.now += 0.25

    def outer():
        clock.now += 3.0
        traced_middle()
        traced_leaf(4.0)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    agg = aggregate(tracer.spans, groups={"pair": ("middle", "leaf")})
    times = {name: (row["calls"], row["total_s"], row["self_s"])
             for name, row in agg.items()}
    assert times["outer"] == (1, 10.75, 3.0)
    assert times["middle"] == (1, 3.75, 1.25)
    assert times["leaf"] == (3, 6.5, 6.5)
    # the two leaves inside middle are not counted twice in the group
    assert agg["pair"]["total_s"] == 3.75 + 4.0
    for name in ("outer", "middle"):
        children = sum(e - s for n, s, e, p, *_ in tracer.spans
                       if p >= 0 and tracer.spans[p][0] == name)
        assert agg[name]["self_s"] == agg[name]["total_s"] - children


def test_recursive_spans_count_once_in_total():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def rec(k):
        clock.now += 1.0
        if k:
            traced(k - 1)

    traced = tracer.wrap("rec", rec)
    traced(2)
    agg = aggregate(tracer.spans, groups={})
    assert (agg["rec"]["calls"], agg["rec"]["total_s"],
            agg["rec"]["self_s"]) == (3, 3.0, 3.0)


def test_window_amounts_and_distinct_arguments():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(obj, dt):
        clock.now += dt
        return [0] * int(dt)

    traced = tracer.wrap("calculus.universal_calculus", work,
                         amount=lambda args, result: len(result))
    a, b = object(), object()
    traced(a, 1.0)                     # before the window: set-up
    start = clock.now
    traced(a, 2.0)
    traced(b, 3.0)
    traced(a, 4.0)
    window = (start, clock.now)
    traced(b, 5.0)                     # after the window
    row = aggregate(tracer.spans, groups={}, window=window)[
        "calculus.universal_calculus"]
    assert (row["calls"], row["total_s"], row["amount"], row["distinct"]) \
        == (3, 9.0, 9, 2)
    before = aggregate(tracer.spans, groups={}, window=(0.0, start))[
        "calculus.universal_calculus"]
    assert (before["calls"], before["total_s"], before["amount"]) == \
        (1, 1.0, 1)


def test_layer_metrics_split_setup_from_pass():
    # spans: [name, start, end, parent, amount, arg_id]
    trace = {"pass_window": [10.0, 20.0], "spans": [
        ["workspace.load_workspace", 1.0, 3.0, -1, None, None],
        ["catalog.builtin", 1.5, 2.5, 0, None, None],
        ["algebra.check_algebra", 2.5, 3.0, 0, None, None],
        ["workspace.load_workspace", 11.0, 12.0, -1, None, None],
        ["algebra.check_algebra", 11.0, 11.5, 3, None, None],
        ["linalg.kernel", 12.0, 18.0, -1, 40, None],
    ]}
    names = ["catalog.builtin.calls", "catalog.builtin.total_s",
             "workspace.load_workspace.total_s", "algebra.checks.total_s",
             "linalg.kernel.cells", "linalg.kernel.self_s",
             "cartan.co_universal_pair.total_s", "trace.pass_wall_s",
             "trace.dominant_share", "trace.overhead_s"]
    out = run.layer_metrics(trace, names, "linalg.kernel.self_s")
    assert out["catalog.builtin.calls"] == 1
    assert out["catalog.builtin.total_s"] == 1.0
    assert out["workspace.load_workspace.total_s"] == 2.0
    # the set-up's check_algebra is not pass work
    assert out["algebra.checks.total_s"] == 0.5
    assert out["linalg.kernel.cells"] == 40
    assert out["cartan.co_universal_pair.total_s"] == 0.0
    assert out["trace.pass_wall_s"] == 10.0
    assert out["trace.dominant_share"] == 0.6
    assert "trace.overhead_s" not in out
    with pytest.raises(KeyError):
        run.layer_metrics(trace, ["linalg.no_such.total_s"],
                          "linalg.kernel.self_s")


def test_install_refuses_a_missing_target(monkeypatch):
    import ncwb.linalg
    orig_kernel = ncwb.linalg.kernel
    monkeypatch.delattr(ncwb.linalg, "span_closure")
    tracer = Tracer()
    with pytest.raises(LookupError, match="linalg.span_closure"):
        tracer.install()
    # targets wrapped before the missing one are restored
    assert ncwb.linalg.kernel is orig_kernel


def test_install_rebinds_every_imported_name_and_uninstalls():
    import ncwb.algebra
    import ncwb.calculus
    import ncwb.linalg
    orig_kernel = ncwb.linalg.kernel
    dual_numbers = workspace.parse_workspace(json.dumps(
        {"schema": "ncwb/1", "objects": {"d": {
            "kind": "builtin", "builtin": "dual_numbers"}}})
    ).get("d.algebra").obj
    tracer = Tracer()
    tracer.install()
    try:
        # calculus imported kernel by name; both bindings are wrapped
        assert ncwb.calculus.kernel is ncwb.linalg.kernel
        assert ncwb.linalg.kernel is not orig_kernel
        u = ncwb.calculus.universal_calculus(dual_numbers)
        assert u.bimodule.dim == 2
        assert (u.d @ u.d.transpose()).nrows == 2
    finally:
        tracer.uninstall()
    assert ncwb.calculus.kernel is orig_kernel
    names = {s[0] for s in tracer.spans}
    assert {"calculus.universal_calculus", "linalg.kernel",
            "linalg.kron", "linalg.matmul"} <= names
    kernel_spans = [s for s in tracer.spans if s[0] == "linalg.kernel"]
    assert kernel_spans and all(
        tracer.spans[s[3]][0] == "calculus.universal_calculus"
        for s in kernel_spans)


# ---- core speed sampling -----------------------------------------------

def test_rate_is_the_mean_of_inverse_samples_and_scales_wall_time():
    sampler = speed.SpeedSampler()
    sampler.phases["p"] = [0.0002, 0.0004, 0.0004]
    assert sampler.rate("p") == pytest.approx((5000 + 2500 + 2500) / 3)
    # a core twice as slow as the reference core doubles the wall time
    # and halves the rate, so the normalized time is unchanged
    slow = 1 / (2 * speed.REFERENCE_S)
    assert speed.normalized(20.0, slow) == pytest.approx(10.0)


def test_sampler_samples_on_the_timer_and_restores_the_signal():
    import signal
    import time
    sampler = speed.SpeedSampler()
    sampler.start("setup")
    sampler.phase("pass")
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        speed.reference()
    sampler.stop()
    assert len(sampler.phases["setup"]) == 1
    assert len(sampler.phases["pass"]) >= 5
    assert sampler.rate("pass") > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


# ---- output checkers ---------------------------------------------------

def test_report_checker_rejects_a_changed_report(tmp_path):
    wl = workloads.ReportBuiltins()
    spec = {"stdout": str(tmp_path / "report.txt")}
    (tmp_path / "report.txt").write_text("== dual_numbers: bundle\n")
    problems = wl.check(spec, {"report": {"exit": 0}}, 1)["report"]
    assert any("digest" in p for p in problems)
    problems = wl.check(spec, {"report": {"exit": 1}}, 1)["report"]
    assert any("exit code 1" in p for p in problems)


def _small_relations(tmp_path):
    path = str(tmp_path / "m2.json")
    tables = workloads._export_builtin(path, "matrix_2", ())
    out = str(tmp_path / "rel.json")
    os.environ["NCWB_MAX_WORD_LEN"] = "3"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["derive", path, "pair", "relations",
                             "-o", out]) == 0
    finally:
        del os.environ["NCWB_MAX_WORD_LEN"]
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    d = {"op": "m2", "max_len": 3, "words": len(doc["derived"]["words"]),
         "relations": len(doc["derived"]["basis"])}
    return doc, tables, d


def test_relations_checker_accepts_real_output_and_rejects_corruption(
        tmp_path):
    doc, tables, d = _small_relations(tmp_path)
    assert d["words"] == 84 and d["relations"] == 76
    assert workloads.relation_problems(doc, tables, d, 1, 76) == []

    # word 0 is l(E11), a non-zero operator: adding it breaks every relation
    assert doc["derived"]["words"][0] == [["a", 0]]
    bad = json.loads(json.dumps(doc))
    for rel in bad["derived"]["basis"]:
        rel[0] = str(Fraction(rel[0]) + 1)
    problems = workloads.relation_problems(bad, tables, d, 1, 8)
    assert problems and all("does not vanish" in p for p in problems)

    short = json.loads(json.dumps(doc))
    short["derived"]["basis"].pop()
    assert any("relations, expected" in p for p in
               workloads.relation_problems(short, tables, d, 1, 8))

    zero = json.loads(json.dumps(doc))
    zero["derived"]["basis"][5] = ["0"] * d["words"]
    assert "relation 5 is zero" in \
        workloads.relation_problems(zero, tables, d, 1, d["relations"])


def test_connections_checker_rejects_wrong_facts():
    copy = {"op": "m2", "n": 4, "homogeneous_dim": 16}
    good = {"space_exists": True, "homogeneous_dim": 16,
            "connection_ok": True, "covariant_ok": True,
            "couniversal_dim": 12, "universal_factorization_ok": True,
            "couniversal_exists": True, "couniversal_unique": True}
    assert workloads.connection_problems(copy, good) == []
    for key, wrong in (("homogeneous_dim", 15), ("couniversal_dim", 16),
                       ("covariant_ok", False), ("couniversal_unique", False)):
        bad = dict(good, **{key: wrong})
        assert workloads.connection_problems(copy, bad) == \
            ["%s is %r, expected %r" % (key, wrong, good[key])]


# ---- runner and BENCHMARK.json -----------------------------------------

def test_benchmark_json_names_the_workloads_and_gives_setup_the_largest_bound():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_steady_summary_flags_spread_and_disagreement():
    bench = {"end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.2}]}
    steady_sets = [[10, 10.1, 9.9, 10.05], [10.1, 10, 9.95, 10.02]]
    rows = steady.summarize(bench, {"w": {"pass_s": steady_sets}})
    assert rows[0]["spread_ok"] and rows[0]["agree"]
    slower = [[10, 10.1, 9.9, 10.05], [13, 13.1, 12.9, 13.05]]
    rows = steady.summarize(bench, {"w": {"pass_s": slower}})
    assert not rows[0]["agree"]
    # a second set much faster than the first disagrees as well
    faster = [[10, 10.1, 9.9, 10.05], [7, 7.1, 6.9, 7.05]]
    rows = steady.summarize(bench, {"w": {"pass_s": faster}})
    assert not rows[0]["agree"]
    noisy = [[5, 10, 15, 20], [5, 10, 15, 20]]
    rows = steady.summarize(bench, {"w": {"pass_s": noisy}})
    assert not rows[0]["spread_ok"]
    # setup_s is held to its bound like every other metric
    setup = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    rows = steady.summarize(setup, {"w": {"setup_s": noisy}})
    assert not rows[0]["spread_ok"]
