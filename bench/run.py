"""Benchmark runner for ncwb.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner writes the workload's inputs
(from the seed) under ``.bench_work/``, then starts one fresh worker
process per sample (see worker.py) and checks every pass's outputs
outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics: the median time of
one verified pass, the median peak RSS of a pass process, and the median
set-up time (interpreter start, imports and input load, sampled at least
``SETUP_SAMPLES`` times).  Both times are wall times rescaled by the core
speed sampled during them (speed.py); the raw wall times are printed on
the summary lines.  Passes repeat while the next one is expected to end
within ``--seconds``; there is always at least one.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (span times are raw wall time);
``trace.overhead_s`` is traced minus untraced pass time.  The catalog and
workspace-load layers are taken from the spans of the traced worker's
set-up, every other layer from the spans inside its pass.

The metric names and units are those of ``BENCHMARK.json``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  fail_frac
(failed over attempted operations) is printed on the summary line; it is
not a JSON metric because it is 0 on a correct program.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from speed import normalized

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_SAMPLES = 11      # set-up is 0.1-0.4 s; its median needs many samples
RUN_LIMIT_S = 165.0        # hard stop for the workers of one run

# per-layer metrics that are not a span's calls, total_s or self_s: the
# sum of the amounts recorded with a span (see tracer.py), and the reuse
# ratio (distinct first arguments over calls)
COUNTERS = {"linalg.kron.cells": "linalg.kron",
            "linalg.kernel.cells": "linalg.kernel",
            "diffops.find_relations.words": "diffops.find_relations",
            "workspace.output_bytes": "workspace.canonical_text"}
REUSE = {"calculus.universal_calculus.reuse": "calculus.universal_calculus"}
# layers that the set-up pays for; they are taken from the spans before
# the pass, every other layer from the spans inside it
SETUP_LAYERS = ("catalog.", "workspace.load_workspace.")


class Sample:
    """One worker process: set-up and pass time (wall, and normalized to
    the reference core speed, see speed.py), peak RSS and pass result."""

    def __init__(self):
        self.setup_wall_s = None
        self.pass_wall_s = None
        self.setup_s = None
        self.pass_s = None
        self.rss_mb = None
        self.result = None
        self.error = None


def spawn(workload: str, workdir: str, mode: str, deadline: float) -> Sample:
    env = dict(os.environ)
    env.pop("NCWB_MAX_WORD_LEN", None)
    sample = Sample()
    with open(os.path.join(workdir, "worker.log"), "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, workload, workdir, mode],
            stdout=subprocess.PIPE, stderr=log, cwd=ROOT, env=env)
        buf = b""
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                sample.error = "worker exceeded the run's time limit"
                break
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            if sample.setup_wall_s is None and buf.startswith(b"ready\n"):
                sample.setup_wall_s = time.perf_counter() - start
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample.rss_mb = usage.ru_maxrss / 1024.0
    lines = buf.decode("utf-8", "replace").splitlines()
    if sample.error is None and proc.returncode != 0:
        sample.error = "worker exit code %d" % proc.returncode
        if lines and lines[-1].startswith("{"):
            sample.error += ": " + json.loads(lines[-1]).get("error", "")
    if sample.error is None:
        out = json.loads(lines[-1])
        sample.setup_s = normalized(sample.setup_wall_s,
                                    out["setup_rate"])
        if mode != "setup":
            sample.pass_wall_s = out["pass_s"]
            sample.pass_s = normalized(out["pass_s"], out["pass_rate"])
            sample.result = out["result"]
    return sample


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("%s: %s" % (op, "; ".join(problems)))

    def check_pass(self, workload, spec, sample: Sample, seed: int) -> bool:
        """Record every operation of a pass; False if the worker failed."""
        if sample.error is not None:
            for op in workload.ops(spec):
                self.record(op, [sample.error])
            return False
        for op, problems in workload.check(spec, sample.result, seed).items():
            self.record(op, problems)
        return True


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(workload, spec, workdir, seed, seconds, deadline, tally):
    setups, passes, rss, walls = [], [], [], []
    for _ in range(SETUP_SAMPLES - 1):
        s = spawn(workload.name, workdir, "setup", deadline)
        tally.record("setup", [s.error] if s.error else [])
        if s.error is None:
            setups.append(s.setup_s)
    start = time.perf_counter()
    while True:
        s = spawn(workload.name, workdir, "pass", deadline)
        if not tally.check_pass(workload, spec, s, seed):
            break
        setups.append(s.setup_s)
        passes.append(s.pass_s)
        rss.append(s.rss_mb)
        walls.append(s.pass_wall_s)
        expected = statistics.median(walls)
        now = time.perf_counter()
        if now - start + expected > seconds or now + 2 * expected > deadline:
            break
    return setups, passes, rss, walls


def layer_metrics(trace: dict, names, dominant: str) -> dict:
    """Per-layer metrics of one traced pass; the trace.* metrics other
    than trace.pass_wall_s and trace.dominant_share are left to the
    caller."""
    from tracer import SPAN_NAMES, aggregate
    start, end = trace["pass_window"]
    in_pass = aggregate(trace["spans"], window=(start, end))
    in_setup = aggregate(trace["spans"], window=(float("-inf"), start))
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0,
             "distinct": 0}

    def span_row(span, metric):
        if span not in SPAN_NAMES:
            raise KeyError("metric %s: the tracer has no span %s"
                           % (metric, span))
        agg = in_setup if metric.startswith(SETUP_LAYERS) else in_pass
        return agg.get(span, empty)

    out = {"trace.pass_wall_s": end - start}
    for name in names:
        if name in COUNTERS:
            out[name] = span_row(COUNTERS[name], name)["amount"]
        elif name in REUSE:
            row = span_row(REUSE[name], name)
            out[name] = row["distinct"] / row["calls"] if row["calls"] \
                else 0.0
        elif not name.startswith("trace."):
            span, _, field = name.rpartition(".")
            out[name] = span_row(span, name)[field]
    out["trace.dominant_share"] = out[dominant] / out["trace.pass_wall_s"]
    return out


def measure_traced(workload, spec, workdir, seed, seconds, deadline, tally,
                   names):
    untraced, traced, layers, walls = [], [], [], []
    spans_path = os.path.join(workdir, "spans.json")
    start = time.perf_counter()
    while True:
        u = spawn(workload.name, workdir, "pass", deadline)
        if not tally.check_pass(workload, spec, u, seed):
            break
        untraced.append(u.pass_s)
        t = spawn(workload.name, workdir, "trace", deadline)
        if not tally.check_pass(workload, spec, t, seed):
            break
        traced.append(t.pass_s)
        walls.append(u.pass_wall_s + t.pass_wall_s)
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        layers.append(layer_metrics(trace, names, workload.dominant))
        keep = os.path.join(WORK_ROOT, "spans-%s-seed%d.json"
                            % (workload.name, seed))
        os.replace(spans_path, keep)
        expected = statistics.median(walls)
        now = time.perf_counter()
        if now - start + expected > seconds or now + 2 * expected > deadline:
            break
    return untraced, traced, layers, walls


def _fmt(values, unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return "median %.4f %s (q1 %.4f, q3 %.4f, n=%d)" % (q2, unit, q1, q3,
                                                         len(values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncwb", "cli.py")):
        sys.stderr.write("error: no ncwb package under %s\n" % SRC)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write("error: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(WORKLOADS)))
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = os.path.join(WORK_ROOT, "%s-seed%d-pid%d"
                           % (workload.name, args.seed, os.getpid()))
    os.makedirs(workdir)
    tally = Tally()
    try:
        spec = workload.prepare(workdir, args.seed)
        with open(os.path.join(workdir, "spec.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spec, fh)
        if args.trace:
            untraced, traced, layers, walls = measure_traced(
                workload, spec, workdir, args.seed, args.seconds, deadline,
                tally, units)
        else:
            setups, passes, rss, walls = measure(
                workload, spec, workdir, args.seed, args.seconds, deadline,
                tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print("FAILED %s" % problem)
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    head = "%s seed %d:" % (workload.name, args.seed)
    if args.trace:
        if not layers:
            sys.stderr.write("error: no traced pass completed\n")
            return 1
        metrics = {name: statistics.median(row[name] for row in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = \
            statistics.median(traced) - statistics.median(untraced)
        print("%s untraced pass_s %s; traced pass_s %s"
              % (head, _fmt(untraced, "s"), _fmt(traced, "s")))
        print("  wall seconds of untraced plus traced pass %s"
              % _fmt(walls, "s"))
        for name in units:
            print("  %-45s %.6g %s" % (name, metrics[name], units[name]))
        print("  dominant %s is %.3f of the traced pass"
              % (workload.dominant, metrics["trace.dominant_share"]))
    else:
        if not passes:
            sys.stderr.write("error: no pass completed\n")
            return 1
        metrics = {"pass_s": statistics.median(passes),
                   "peak_rss_mb": statistics.median(rss),
                   "setup_s": statistics.median(setups)}
        print("%s pass_s %s" % (head, _fmt(passes, "s")))
        print("  pass wall time %s" % _fmt(walls, "s"))
        print("  peak_rss_mb %s" % _fmt(rss, "MB"))
        print("  setup_s %s" % _fmt(setups, "s"))
    print("  fail_frac %.4g ratio (%d of %d operations failed)"
          % (fail_frac, tally.failed, tally.attempted))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
