"""Per-layer tracing of confspace from outside the package.

``Tracer.installed()`` wraps each layer's public entry points for the
duration of a ``with`` block and restores them afterwards; nothing under
``src/`` is edited.  A span records its call count and its self time: its
duration minus the time its child spans cover.  Some entry points are only
counted, because they are too small and too frequent to time.

Functions are replaced in every ``confspace`` module that binds them, since
several modules import ``solve``, ``rank``, ``kernel_basis`` or
``quotient_basis`` by name at import time and look them up in their own
namespace.  Methods are replaced on their class.

Counts (integers) and timings are kept apart: counts must repeat exactly
from run to run and from seed to seed, timings do not.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager

from confspace import (algebra, bgcomplex, catalog, ctcomplex, duality,
                       exactlinalg, graphs, massey, spectral)


def _graphs_scanned(counts, args, result):
    n = args[0]
    counts["graphs.enumerate.returned"] += len(result)
    counts["graphs.enumerate.scanned"] += 2 ** (n * (n - 1) // 2)


def _basis_keys(counts, args, result):
    counts["bgcomplex.keys"] += len(args[0].block_of)


def _ambient_keys(counts, args, result):
    counts["ctcomplex.ambient_keys"] += sum(
        len(b) for b in args[0]._blocks.values())


def _relations(counts, args, result):
    counts["ctcomplex.relations"] += len(result)


def _quotient_fresh(args):
    ct, p, h = args
    return (p, h) not in ct._quot


def _independent_relations(counts, args, result, fresh):
    # relation_vectors runs only when the block quotient is not cached
    if fresh:
        ct, p, h = args
        counts["ctcomplex.relations_independent"] += (
            ct.ambient_dim(p, h) - len(result[0]))


def _pair_nonzero(counts, args, result):
    if result:
        counts["duality.pair_keys.nonzero"] += 1


def _span_grew(counts, args, result):
    if result:
        counts["exactlinalg.span_insert.grew"] += 1


# (owner, attribute, span, call counter, after): span is the name self time
# is kept under, or None for an entry point that is only counted; the call
# counter defaults to "<span>.calls"; after(counts, args, result) adds the
# counters derived from one call.
_FUNCTIONS = [
    (catalog, "load", "catalog.load", None, None),
    (algebra, "cohomology", "algebra.cohomology", None, None),
    (graphs, "enumerate_graphs", "graphs.enumerate", None, _graphs_scanned),
    (graphs, "add_edge", None, "graphs.add_edge.calls", None),
    (massey, "triple_massey", "massey.triple_massey", None, None),
    (massey, "d2_zigzag", "massey.d2_zigzag", None, None),
    (massey, "thm3_detector", "massey.thm3_detector", None, None),
    (exactlinalg, "solve", "exactlinalg.solve", None, None),
    (exactlinalg, "rank", "exactlinalg.rank", None, None),
    (exactlinalg, "kernel_basis", "exactlinalg.kernel_basis", None, None),
    (exactlinalg, "quotient_basis", "exactlinalg.quotient_basis", None, None),
]

_METHODS = [
    (algebra.TruncatedFreeCDGA, "multiply", None, "algebra.multiply.calls",
     None),
    (algebra.TruncatedFreeCDGA, "d_basis", None, "algebra.d_basis.calls",
     None),
    (bgcomplex.Bicomplex, "_build_basis", "bgcomplex.basis", None,
     _basis_keys),
    (bgcomplex.Bicomplex, "dprime_key", "bgcomplex.dkey",
     "bgcomplex.dprime_key.calls", None),
    (bgcomplex.Bicomplex, "dsecond_key", "bgcomplex.dkey",
     "bgcomplex.dsecond_key.calls", None),
    (spectral.SpectralSequence, "z_basis", "spectral.z_basis", None, None),
    (spectral.SpectralSequence, "e_block", "spectral.e_block", None, None),
    (spectral.SpectralSequence, "d_matrix", "spectral.d_matrix", None, None),
    (spectral.SpectralSequence, "project_class", "spectral.project_class",
     None, None),
    (ctcomplex.CTComplex, "_build_ambient", "ctcomplex.ambient", None,
     _ambient_keys),
    (ctcomplex.CTComplex, "relation_vectors", "ctcomplex.relation_vectors",
     None, _relations),
    (ctcomplex.CTComplex, "d1_key", None, "ctcomplex.d1_key.calls", None),
    (ctcomplex.CTComplex, "r_quotient", "ctcomplex.r_quotient", None, None),
    (duality.Pairing, "pair_keys", "duality.pair_keys", None, _pair_nonzero),
    (duality.Pairing, "matrix", "duality.matrix", None, None),
    (exactlinalg.SpanReducer, "insert", "exactlinalg.span_insert", None,
     _span_grew),
]


# Per-layer metrics, in report order.  A name ending in ".self_s" is the
# self time of that span in seconds; a name in _RATIOS is a ratio of sums of
# counters; every other name is a counter.
LAYER_METRICS = [
    "catalog.load.self_s",
    "algebra.cohomology.calls", "algebra.cohomology.self_s",
    "algebra.multiply.calls", "algebra.d_basis.calls",
    "graphs.enumerate.self_s", "graphs.enumerate.yield_ratio",
    "graphs.add_edge.calls",
    "bgcomplex.keys", "bgcomplex.basis.self_s",
    "bgcomplex.dprime_key.calls", "bgcomplex.dsecond_key.calls",
    "bgcomplex.dkey.self_s", "bgcomplex.dkey_per_key",
    "spectral.z_basis.calls", "spectral.z_basis.self_s",
    "spectral.e_block.self_s", "spectral.d_matrix.self_s",
    "spectral.project_class.calls", "spectral.project_class.self_s",
    "ctcomplex.ambient_keys", "ctcomplex.ambient.self_s",
    "ctcomplex.relation_vectors.calls", "ctcomplex.relations",
    "ctcomplex.relation_yield", "ctcomplex.relation_vectors.self_s",
    "ctcomplex.quotient.self_s", "ctcomplex.d1_key.calls",
    "ctcomplex.r_quotient.self_s",
    "duality.pair_keys.calls", "duality.pair_keys.nonzero_ratio",
    "duality.pair_keys.self_s", "duality.matrix.self_s",
    "massey.triple_massey.calls", "massey.triple_massey.self_s",
    "massey.d2_zigzag.self_s", "massey.thm3_detector.self_s",
    "exactlinalg.span_insert.calls", "exactlinalg.span_insert.grew_ratio",
    "exactlinalg.span_insert.self_s", "exactlinalg.kernel_basis.self_s",
    "exactlinalg.rank.calls", "exactlinalg.rank.self_s",
    "exactlinalg.solve.calls", "exactlinalg.solve.self_s",
    "exactlinalg.quotient_basis.self_s",
]

# name -> (counters summed above the line, counters summed below it)
_RATIOS = {
    "graphs.enumerate.yield_ratio": (
        ("graphs.enumerate.returned",), ("graphs.enumerate.scanned",)),
    # each differential evaluated once per basis key gives 1
    "bgcomplex.dkey_per_key": (
        ("bgcomplex.dprime_key.calls", "bgcomplex.dsecond_key.calls"),
        ("bgcomplex.keys", "bgcomplex.keys")),
    "ctcomplex.relation_yield": (
        ("ctcomplex.relations_independent",), ("ctcomplex.relations",)),
    "duality.pair_keys.nonzero_ratio": (
        ("duality.pair_keys.nonzero",), ("duality.pair_keys.calls",)),
    "exactlinalg.span_insert.grew_ratio": (
        ("exactlinalg.span_insert.grew",), ("exactlinalg.span_insert.calls",)),
}


class Tracer:
    def __init__(self):
        self.counts = Counter()   # integer counters, exactly repeatable
        self.self_s = Counter()   # span name -> self time in seconds
        self._open = []           # child time covered so far, per open span

    def _span(self, fn, span, calls, after, before=None):
        counts, self_s, open_ = self.counts, self.self_s, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            state = before(args) if before else None
            open_.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[span] += dt - open_.pop()
                if open_:
                    open_[-1] += dt
            if before:
                after(counts, args, result, state)
            elif after:
                after(counts, args, result)
            return result
        return wrapper

    def _counted(self, fn, calls, after):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if after:
                after(counts, args, result)
            return result
        return wrapper

    def _wrap(self, fn, span, calls, after):
        calls = calls or span + ".calls"
        if span is None:
            return self._counted(fn, calls, after)
        return self._span(fn, span, calls, after)

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        undo = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "confspace" or name.startswith("confspace.")]
        try:
            for owner, attr, span, counter, after in _FUNCTIONS:
                orig = getattr(owner, attr)
                wrapped = self._wrap(orig, span, counter, after)
                for mod in modules:
                    if getattr(mod, attr, None) is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
            for owner, attr, span, counter, after in _METHODS:
                orig = owner.__dict__[attr]
                undo.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, span, counter, after))
            orig = ctcomplex.CTComplex.__dict__["quotient"]
            undo.append((ctcomplex.CTComplex, "quotient", orig))
            ctcomplex.CTComplex.quotient = self._span(
                orig, "ctcomplex.quotient", "ctcomplex.quotient.calls",
                _independent_relations, before=_quotient_fresh)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def count_snapshot(self):
        return {k: v for k, v in sorted(self.counts.items()) if v}

    def metrics(self):
        """Every per-layer metric as {name: {"value": v, "unit": u}}."""
        out = {}
        for name in LAYER_METRICS:
            if name in _RATIOS:
                num, den = (sum(self.counts[k] for k in ks)
                            for ks in _RATIOS[name])
                out[name] = {"value": num / den if den else 0.0,
                             "unit": "ratio"}
            elif name.endswith(".self_s"):
                out[name] = {"value": self.self_s[name[:-len(".self_s")]],
                             "unit": "s"}
            else:
                out[name] = {"value": self.counts[name], "unit": "count"}
        return out
