"""Every package function the benchmark's tracer wraps must exist under the
name it looks up, or the traced benchmark refuses to run."""

import importlib
import importlib.util
import os

from ncwb.linalg import Matrix

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "tracer.py")


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr, _, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert not missing
    assert "__matmul__" in vars(Matrix)
