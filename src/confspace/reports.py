"""Structured verification reports for the package's headline identities.

Every checker returns a plain dict:

    {"check": name, "inputs": {...}, "verdict": "pass" | "fail",
     "details": {...}}

so reports serialize to json directly and two runs produce identical bytes
(no timestamps, no machine-dependent fields).  Checkers raise nothing on a
failed identity; the verdict carries the outcome and the details say which
block broke."""

from .exactlinalg import SpanReducer
from . import graphs as gr
from .bgcomplex import build_AG, build_C, edge_multiply, phi_bar
from .spectral import DView, SpectralSequence, total_cohomology
from .ctcomplex import CTComplex


def _report(check, inputs, ok, details):
    return {"check": check, "inputs": inputs,
            "verdict": "pass" if ok else "fail", "details": details}


def _total_range(bc):
    ks = [p + q for (p, q) in bc.blocks]
    return (min(ks), max(ks)) if ks else (0, 0)


def check_acyclic_ideal(alg, n):
    """The duplicate-target subcomplex has zero total cohomology, and the
    full and no-duplicate-target complexes have equal total cohomology."""
    j = build_AG(alg, n, gr.JFAMILY)
    full = build_AG(alg, n, gr.FULL)
    bar = build_AG(alg, n, gr.NODUPTARGET)
    kmin, kmax = _total_range(full)
    hj = total_cohomology(j, kmin, kmax) if j.total_dim() else {}
    hf = total_cohomology(full, kmin, kmax)
    hb = total_cohomology(bar, kmin, kmax)
    ok = all(v == 0 for v in hj.values()) and hf == hb
    return _report("acyclic-ideal", {"algebra": alg.name, "n": n},
                   ok, {"ideal_cohomology": hj, "full": hf, "quotient": hb})


def check_reduced_embedding(alg, n):
    """The embedding of the reduced bicomplex is an injective chain map,
    its image is killed by right multiplication with the edges at vertex 1,
    and both sides have the same total cohomology."""
    c = build_C(alg, n)
    bar = build_AG(alg, n, gr.NODUPTARGET)
    phi = phi_bar(c)
    f = alg.field
    inj = SpanReducer(f)
    ok = True
    bad = None
    for (p, q), keys in sorted(c.blocks.items()):
        for key in keys:
            el = {key: f.one}
            img = phi(el)
            if not inj.insert(img):
                ok, bad = False, ("not injective", c.show_key(key))
                break
            # chain map
            lhs = phi(f.combine(c.dtotal_key, el))
            rhs = bar.apply(bar.dtotal_key, img)
            if lhs != rhs:
                ok, bad = False, ("not a chain map", c.show_key(key))
                break
            if any(edge_multiply(bar, img, 1, r) for r in range(2, n + 1)):
                ok, bad = False, ("image not killed by edge at vertex 1",
                                  c.show_key(key))
                break
        if not ok:
            break
    hc = hb = None
    if ok:
        kmin, kmax = _total_range(bar)
        hc = total_cohomology(c, kmin, kmax)
        hb = total_cohomology(bar, kmin, kmax)
        ok = hc == hb
        if not ok:
            bad = ("total cohomology differs", hc, hb)
    return _report("reduced-embedding", {"algebra": alg.name, "n": n},
                   ok, {"failure": bad, "reduced": hc, "quotient": hb})


def check_collapse(alg, n):
    """Both graph-side sequences, of the quotient and of the reduced
    complex, collapse by page 2, as for a formal coefficient algebra;
    structurally E_3 = E_infinity whenever the reduced complex has only
    three columns."""
    cp = SpectralSequence(build_AG(alg, n, gr.NODUPTARGET)).collapse_page()
    c = build_C(alg, n)
    cpc = SpectralSequence(c).collapse_page()
    ok = cp <= 2 and cpc <= 2
    return _report("collapse", {"algebra": alg.name, "n": n},
                   ok, {"quotient_collapse_page": cp,
                        "reduced_collapse_page": cpc,
                        "reduced_columns": c.pmax + 1})


def _three_point_d1(alg):
    """(kernel, cokernel) dims per internal degree of the three-point d1
    (0, q) -> (1, q): the d' of the reduced complex, whose two columns make
    the second page of d' alone its homology."""
    c3 = build_C(alg, 3)
    h = SpectralSequence(DView(c3.blocks, c3.field, c3.dprime_key)).page(2)
    ker = {q: d for (p, q), d in h.items() if p == 0 and d}
    cok = {q: d for (p, q), d in h.items() if p == 1 and d}
    return ker, cok


def kahler_differentials(alg):
    """Dims per internal degree of the cokernel of the three-point d1
    (the module of formal differentials of the algebra)."""
    return _three_point_d1(alg)[1]


def config_space_dims(alg, n):
    """Dims of the configuration space cohomology per degree, from the
    second page of the tensor-power complex (valid when the sequence
    collapses there)."""
    ct = CTComplex(alg, n)
    return e2_by_degree(ct.e2_dims(), ct.m)


def e2_by_degree(e2, m):
    """Sum of a tensor-power second-page table {(p, h): dim} per total
    degree h + p (m - 1), over its nonzero blocks."""
    out = {}
    for (p, h), d in e2.items():
        if d:
            k = h + p * (m - 1)
            out[k] = out.get(k, 0) + d
    return out


def check_three_point_sequence(alg):
    """Degreewise dimension identity of the short exact sequence for three
    points: dim H^k(F(M,3)) = dim ker^{3m-k} + dim coker^{3m-1-k} of the
    three-point d1."""
    m = max(alg.degrees)
    hf = config_space_dims(alg, 3)
    ker, cok = _three_point_d1(alg)
    table = {}
    ok = True
    for k in range(0, 3 * m + 1):
        lhs = hf.get(k, 0)
        rhs = ker.get(3 * m - k, 0) + cok.get(3 * m - 1 - k, 0)
        if lhs or rhs:
            table[k] = (lhs, rhs)
        if lhs != rhs:
            ok = False
    return _report("three-point-sequence", {"algebra": alg.name},
                   ok, {"per_degree": table, "kernel": ker, "cokernel": cok})


def check_four_point_corner(alg):
    """The corner blocks of the four-point reduced complex: per internal
    degree, dim E_2^{2,q} equals twice the formal-differentials dim (one
    copy per corner edge monomial).

    A truncated free model is refused before anything is built: the
    complexes here have no degree window, and over such a model they run
    to millions of keys."""
    if alg.is_truncation:
        raise ValueError("four-point-corner does not take a truncated model "
                         "(use its cohomology)")
    cok = kahler_differentials(alg)
    c4 = build_C(alg, 4)
    table = {}
    ok = True
    qs = sorted({q for (p, q) in c4.blocks if p == 2} | set(cok))
    # E_2^{2,q} of d' alone: column 2 is the last one, and column 0 reaches
    # only column 1, so columns 1 and 2 hold all of it
    ss = SpectralSequence(DView(
        {b: keys for b, keys in c4.blocks.items() if b[0] >= 1}, c4.field,
        c4.dprime_key))
    for q in qs:
        d = ss.e_dim(2, 2, q)
        want = 2 * cok.get(q, 0)
        if d or want:
            table[q] = (d, want)
        if d != want:
            ok = False
    return _report("four-point-corner", {"algebra": alg.name},
                   ok, {"per_degree": table})


def check_duality(alg, n):
    """Wrap the full pairing verification into a report."""
    from .duality import theorem1_check, DualityError
    try:
        res = theorem1_check(alg, n)
    except DualityError as e:
        return _report("duality", {"algebra": alg.name, "n": n},
                       False, {"failure": str(e)})
    signs = {"(%d,%d)" % k: (str(v) if v is not None else None)
             for k, v in sorted(res["signs"].items())}
    pairs = [{"tensor_block": list(b1), "graph_block": list(b2), "dim": d}
             for (b1, b2, d, _) in res["e2_pairs"]]
    return _report("duality", {"algebra": alg.name, "n": n},
                   True, {"adjointness_signs": signs, "second_page": pairs})


def check_anchors():
    """Sanity anchors: the reduced complex over a point vanishes for two or
    more points, two points on a sphere give total dimension 2, and the
    graph family counts are factorials."""
    from .catalog import load
    from math import factorial
    details = {}
    ok = True
    pt = load("point")
    for n in (2, 3, 4):
        d = build_C(pt, n).total_dim()
        details["reduced_point_n%d" % n] = d
        ok = ok and d == 0
    for m in (2, 3):
        c2 = build_C(load("s%d" % m), 2)
        kmin, kmax = _total_range(c2)
        h = total_cohomology(c2, kmin, kmax)
        tot = sum(h.values())
        details["two_points_s%d" % m] = {k: v for k, v in h.items() if v}
        ok = ok and tot == 2
    for n in range(1, 7):
        nb = sum(1 for _ in gr.enumerate_graphs(n, gr.NODUPTARGET))
        nh = sum(1 for _ in gr.enumerate_graphs(n, gr.HFAMILY))
        details["graphs_n%d" % n] = {"no_dup_target": nb, "reduced": nh}
        ok = ok and nb == factorial(n) and nh == factorial(n - 1)
    return _report("anchors", {}, ok, details)


def check_formal_negative(alg):
    """Negative control: a formal algebra has no Massey obstruction
    quadruples and its four-point sequence collapses at the second page."""
    from .massey import thm3_detector
    from .algebra import cohomology

    if alg.has_differential:
        raise ValueError("negative control expects a formal algebra")
    H = cohomology(alg, max(alg.degrees))
    findings = thm3_detector(H)
    c4 = build_C(alg, 4)
    cp = SpectralSequence(c4).collapse_page()
    ok = not findings and cp <= 2
    return _report("formal-negative-control", {"algebra": alg.name},
                   ok, {"findings": len(findings), "collapse_page": cp})
