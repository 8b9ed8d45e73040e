"""Steadiness check: do repeated sets of runs of the same code agree?

    python3 bench/steady.py

Runs the command from BENCHMARK.json (with its run_seconds) ``RUNS`` times
per workload in each of ``SETS`` sets, with seeds 1, 2, ..., RUNS, so each
set sees the same inputs.  For every end-to-end metric and workload it
prints each set's median and spread (distance between the first and third
quartile, as a share of the median) and whether

* every spread is within the metric's bound (``spread_ok``), and below a
  third of it (``spread_third``, reported only);
* every later set's median differs from the first set's, either way, by
  at most the bound as a share of the first (``agree``).

It exits 0 only if every spread is within its bound and every pair of
medians agrees.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def differs_by(first: float, later: float) -> float:
    """How far later is from first, either way, as a share of first."""
    return abs(later - first) / first


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd),
                                                 proc.returncode,
                                                 proc.stderr[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise RuntimeError("%s seed %d: incorrect output\n%s"
                           % (workload, seed, proc.stdout[-2000:]))
    return {name: m["value"] for name, m in out["metrics"].items()}


def summarize(bench: dict, values: dict) -> list:
    """values[workload][metric] is a list (one per set) of value lists."""
    rows = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload, per_metric in values.items():
            sets = per_metric[name]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            rows.append({
                "workload": workload, "metric": name, "bound": bound,
                "medians": medians, "spreads": spreads,
                "spread_ok": max(spreads) <= bound,
                "spread_third": max(spreads) < bound / 3,
                "agree": all(differs_by(medians[0], m) <= bound
                             for m in medians[1:]),
            })
    return rows


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    names = [m["name"] for m in bench["end_to_end"]]
    values = {w: {n: [[] for _ in range(SETS)] for n in names}
              for w in workloads}
    for s in range(SETS):
        for seed in range(1, RUNS + 1):
            for workload in workloads:
                got = run_once(bench, workload, seed)
                print("set %d seed %d %s %s" % (
                    s + 1, seed, workload,
                    " ".join("%s=%.4f" % kv for kv in got.items())),
                    flush=True)
                for n in names:
                    values[workload][n][s].append(got[n])
    rows = summarize(bench, values)
    for r in rows:
        print("%-18s %-12s bound %.2f medians %s spreads %s%s%s%s" % (
            r["workload"], r["metric"], r["bound"],
            " ".join("%.4f" % m for m in r["medians"]),
            " ".join("%.3f" % s for s in r["spreads"]),
            "" if r["spread_ok"] else "  SPREAD>BOUND",
            "" if r["spread_third"] else "  spread>=bound/3",
            "" if r["agree"] else "  MEDIANS DISAGREE"))
    ok = all(r["spread_ok"] and r["agree"] for r in rows)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
