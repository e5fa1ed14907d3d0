"""The per-layer tracer of the benchmark harness wraps entry points by name,
so moving or renaming one breaks it.  Install it once here, read-only, so
such a refactor fails in this suite and not only in the benchmark's own."""

import importlib.util
import os

from confspace import algebra
from confspace.exactlinalg import QQ

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores():
    tracer = _load_tracer()
    cls = algebra.TruncatedFreeCDGA
    before = (cls.__dict__["multiply"], cls.__dict__["d_basis"],
              algebra.cohomology)
    carrier = algebra.TruncatedFreeCDGA("xu", QQ, [("x", 2), ("u", 3)],
                                        {"u": [(("x", "x"), 1)]}, 7)
    with tracer.Tracer().installed() as t:
        algebra.cohomology(carrier, 3)
    assert t.counts["algebra.cohomology.calls"] == 1
    assert t.counts["algebra.multiply.calls"] > 0
    assert t.counts["algebra.d_basis.calls"] > 0
    assert (cls.__dict__["multiply"], cls.__dict__["d_basis"],
            algebra.cohomology) == before
