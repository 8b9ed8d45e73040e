"""One benchmark process: import ncwb, load the inputs, run one pass.

    python3 bench/worker.py <workload> <workdir> <setup|pass|trace>

The runner starts a fresh worker for every sample.  The worker imports the
package from the checkout's ``src``, loads the workload's inputs and writes
``ready`` on stdout.  In ``setup`` mode it stops there; otherwise it runs
one pass, timed around the pass alone.  Its last stdout line is JSON with
the mean reference rates during the set-up and the pass (see speed.py),
and the pass time and result.  In ``trace`` mode the tracer is installed
before the input load; the spans and the pass's start and end go to
``<workdir>/spans.json``, so the runner can tell set-up spans from pass
spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from speed import SpeedSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv) -> int:
    name, workdir, mode = argv
    sampler = SpeedSampler()
    sampler.start("setup")
    sys.path.insert(0, SRC)
    import ncwb.cli  # every layer, as a CLI run imports them
    if not os.path.abspath(ncwb.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("ncwb imported from %s, not %s"
                           % (ncwb.cli.__file__, SRC))
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    with open(os.path.join(workdir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    state = workload.setup(spec)
    print("ready", flush=True)
    out = {"setup_rate": sampler.rate("setup")}
    if mode == "setup":
        sampler.stop()
        print(json.dumps(out), flush=True)
        return 0

    sampler.phase("pass")
    start = time.perf_counter()
    result = workload.run_pass(spec, state, workdir)
    end = time.perf_counter()
    sampler.stop()
    out.update(pass_s=end - start, pass_rate=sampler.rate("pass"),
               result=result)
    if tracer is not None:
        tracer.uninstall()
        with open(os.path.join(workdir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans,
                       "pass_window": [start, end]}, fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}), flush=True)
        sys.exit(1)
