"""The per-layer tracer of the benchmark harness wraps entry points by name,
so moving or renaming one breaks it.  Install it once here, read-only, so
such a refactor fails in this suite and not only in the benchmark's own."""

import importlib.util
import os

from confspace import algebra, catalog
from confspace.ctcomplex import CTComplex
from confspace.duality import Pairing, theorem1_check
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


def test_tracer_reaches_the_tensor_side():
    # the hooks read CTComplex._quot, ambient_dim and _blocks, and wrap
    # _build_ambient, quotient, r_quotient, relation_vectors, d1_key and
    # Pairing.matrix: each must exist and be reached.  d1_matrix on a new
    # complex asks for block quotients not made yet, which the hook on
    # quotient counts independent relations of
    tracer = _load_tracer()
    wrapped = [(CTComplex, name) for name in (
        "_build_ambient", "quotient", "r_quotient", "relation_vectors",
        "d1_key")] + [(Pairing, "matrix")]
    before = [owner.__dict__[name] for owner, name in wrapped]
    with tracer.Tracer().installed() as t:
        theorem1_check(catalog.load("t2"), 3)
        ct = CTComplex(catalog.load("s2"), 4)
        for (p, h) in ct.blocks():
            ct.d1_matrix(p, h)
    for name in ("ctcomplex.ambient.calls", "ctcomplex.quotient.calls",
                 "ctcomplex.r_quotient.calls",
                 "ctcomplex.relation_vectors.calls",
                 "ctcomplex.d1_key.calls", "duality.matrix.calls",
                 "ctcomplex.ambient_keys", "ctcomplex.relations",
                 "ctcomplex.relations_independent"):
        assert t.counts[name] > 0, name
    assert [owner.__dict__[name] for owner, name in wrapped] == before
