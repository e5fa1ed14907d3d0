"""Massey products and second-page obstruction detectors.

Inputs are classes of a cohomology algebra that keeps cocycle
representatives of its ambient CDGA (see ``algebra.cohomology``).  Triple
and matrix Massey products are computed from explicit defining systems;
their residuals in the indecomposable quotient Q = H+/(H+ . H+) are
well defined even though the classes themselves carry indeterminacy.

The second-page differential on the four-point reduced bicomplex is
available two ways: a closed formula evaluated from triple Massey products
of the entries, and the zig-zag computation on the bicomplex itself (solve
away the vertical leak of the horizontal differential and read off the
resulting corner class).  The zig-zag value is the authoritative one;
``d2_certificate`` is the one place that reads both off as second-page
classes, so a predicted value is compared with it modulo the page
boundaries.  It hands one ``SpectralSequence`` to ``d2_zigzag``, whose
correction is the sequence's ``lift``, so the two share one reduction."""

from functools import cached_property
from itertools import product

from .exactlinalg import SpanReducer, NO_SOLUTION, vec_iadd
from .algebra import sign, koszul, el_degree
from .spectral import SpectralSequence
from . import graphs as gr


class NotDefined(ValueError):
    pass


class MasseyResult:
    def __init__(self, H, rep, class_el, indeterminacy, system):
        self.H = H
        self.rep = rep                  # cocycle in the ambient carrier
        self.class_el = class_el        # element of H
        self.indeterminacy = indeterminacy  # list of H elements spanning it
        self.system = system            # the defining system used

    def residual(self):
        return q_residual(self.H, self.class_el)

    @cached_property
    def _indeterminacy_span(self):
        return SpanReducer(self.H.field).extend(self.indeterminacy)

    def class_modulo_indeterminacy(self):
        return self._indeterminacy_span.reduce(self.class_el)

    @property
    def indeterminacy_dim(self):
        return self._indeterminacy_span.dim


def _rep(H, u):
    """Cocycle representative of an H element."""
    out = {}
    for i, c in u.items():
        vec_iadd(out, H.representatives[i], c)
    return out


def _as_class(H, u):
    if isinstance(u, str):
        return H.element(u)
    return u


def q_residual(H, u):
    """Coordinates of a class in the indecomposable quotient."""
    reps, project = H.q_data
    return {i: c for i, c in enumerate(project(u)) if c}


def triple_massey(H, a, b, c):
    """Triple Massey product <a, b, c> from one defining system.

    a, b, c: classes of H (elements or labels) with [a][b] = [b][c] = 0.
    Returns a MasseyResult; NotDefined if a pairwise product is nonzero."""
    return matrix_massey(H, [a], [[b]], [c])


def matrix_massey(H, L, B, C):
    """Triple matrix Massey product <L, B, C>.

    L: r classes, B: r x s matrix of classes, C: s classes, with every entry
    of [L][B] and [B][C] vanishing.  The representative is
    sum_j x_j c_j - sum_i (-1)^{|a_i|} a_i y_i with d(x_j) = (L B)_j and
    d(y_i) = (B C)_i."""
    f = H.field
    L = [_as_class(H, u) for u in L]
    B = [[_as_class(H, u) for u in row] for row in B]
    C = [_as_class(H, u) for u in C]
    r, s = len(L), len(C)
    if len(B) != r or any(len(row) != s for row in B):
        raise ValueError("matrix shapes do not compose")
    view = H.view
    carrier = H.ambient
    la = [el_degree(H, u) for u in L]
    deg = la[0] + el_degree(H, B[0][0]) + el_degree(H, C[0]) - 1
    if deg > view.max_degree:
        raise NotDefined("total degree %d exceeds the computed range" % deg)

    def preimage(pairs, which, where):
        # x with d(x) = sum u v over representatives, each [u][v] = 0
        w = {}
        for u, v in pairs:
            if any(H.multiply(u, v).values()):
                raise NotDefined("an entry of the %s product is nonzero" % which)
            vec_iadd(w, carrier.multiply(_rep(H, u), _rep(H, v)))
        x = view.solve_d(w)
        if x is NO_SOLUTION:
            raise NotDefined("%s product not exact at %s" % (which, where))
        return x

    # defining system
    xs = [preimage([(L[i], B[i][j]) for i in range(r)], "first",
                   "column %d" % j) for j in range(s)]
    ys = [preimage([(B[i][j], C[j]) for j in range(s)], "second",
                   "row %d" % i) for i in range(r)]
    rep = {}
    for j in range(s):
        vec_iadd(rep, carrier.multiply(xs[j], _rep(H, C[j])))
    for i in range(r):
        vec_iadd(rep, carrier.multiply(_rep(H, L[i]), ys[i]),
                 f.of(-sign(la[i])))
    if carrier.differentiate(rep):
        raise AssertionError("Massey representative is not a cocycle")
    cls = H.class_of(rep)
    # indeterminacy: L . H^{|y|} + H^{|x|} . C, degreewise
    ind = []
    for i in range(r):
        for k in H.basis_of_degree(deg - la[i]):
            v = H.multiply(L[i], {k: f.one})
            if v:
                ind.append(v)
    for j in range(s):
        for k in H.basis_of_degree(deg - el_degree(H, C[j])):
            v = H.multiply({k: f.one}, C[j])
            if v:
                ind.append(v)
    return MasseyResult(H, rep, cls, ind, {"x": xs, "y": ys})


# ---------------------------------------------------------------------------
# residual map on the corner blocks

def obstruction_residual(H, tensor_el):
    """Image of an element of H (x) H+ under the residual projection.

    Splits off the unit in the first factor, projects both factors to the
    indecomposables Q, and antisymmetrizes the Q (x) Q part with
    psi(a (x) b) = a (x) b - (-1)^{|a||b|} b (x) a.  Returns a dict with
    keys ('kq', j) and ('qq', i, j) over Q coordinates."""
    f = H.field
    reps, project = H.q_data
    qdim = len(reps)
    qdeg = [el_degree(H, v) for v in reps]
    out = {}
    for (i, j), c in tensor_el.items():
        if H.degrees[j] == 0:
            raise ValueError("second factor must have positive degree")
        qj = project({j: f.one})
        if i == H.unit:
            for t, ct in enumerate(qj):
                if ct:
                    vec_iadd(out, {("kq", t): c * ct})
            continue
        qi = project({i: f.one})
        for t1, c1 in enumerate(qi):
            if not c1:
                continue
            for t2, c2 in enumerate(qj):
                if not c2:
                    continue
                s = f.of(koszul(qdeg[t1], qdeg[t2]))
                vec_iadd(out, {("qq", t1, t2): c * c1 * c2})
                vec_iadd(out, {("qq", t2, t1): -s * c * c1 * c2})
    return out


# ---------------------------------------------------------------------------
# second-page differential: closed formula and zig-zag

def d2_formula(H, a, b, c, d):
    """Corner value of the second-page differential on [a (x) b (x) c (x) d]
    via triple Massey products of the entries, one defining system each.

    Requires all pairwise products of a, b, c, d to vanish.  Returns
    {'e2334': tensor, 'e2324': tensor} with tensors dicts over pairs of H
    class indices."""
    return _d2_formula(H, a, b, c, d, _massey_memo(H))


def _massey_memo(H):
    """triple_massey on H, computed once per argument triple and kept: a
    triple that raised NotDefined raises it again."""
    memo = {}

    def mp(*args):
        key = tuple(tuple(sorted(u.items())) for u in args)
        if key not in memo:
            try:
                memo[key] = triple_massey(H, *args)
            except NotDefined as e:
                memo[key] = e
        if isinstance(memo[key], NotDefined):
            raise memo[key].with_traceback(None)
        return memo[key]

    return mp


def _d2_formula(H, a, b, c, d, massey):
    """``d2_formula`` with its Massey products from a ``_massey_memo``."""
    f = H.field
    a, b, c, d = (_as_class(H, u) for u in (a, b, c, d))
    da, db, dc, dd = (el_degree(H, u) for u in (a, b, c, d))
    for u, v in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
        if any(H.multiply(u, v).values()):
            raise NotDefined("pairwise product is nonzero")

    def mp(u, v, w):
        return massey(u, v, w).class_el

    def tens(left, right, s):
        out = {}
        for i, ci in left.items():
            for j, cj in right.items():
                vec_iadd(out, {(i, j): f.of(s) * ci * cj})
        return out

    e2334 = {}
    vec_iadd(e2334, tens(a, mp(b, c, d), sign(da)))
    vec_iadd(e2334, tens(mp(a, b, c), d, 1))
    vec_iadd(e2334, tens(mp(b, a, d), c, sign(dc * da * db)))
    vec_iadd(e2334, tens(mp(a, d, c), b,
                         -sign(db * dc + db * dd + dc * dd)))
    e2324 = {}
    vec_iadd(e2324, tens(a, mp(c, b, d), sign(da + db * dc)))
    vec_iadd(e2324, tens(mp(a, c, b), d, sign(db * dc)))
    vec_iadd(e2324, tens(mp(c, a, d), b,
                         sign(db * dc + db * dd + da * dc)))
    vec_iadd(e2324, tens(mp(a, d, b), c, -sign(db * dd + dd * dc)))
    return {"e2334": e2334, "e2324": e2324}


def d2_zigzag(ss, u):
    """Second-page differential of a block element of a bicomplex by the
    zig-zag rule, on the bicomplex's ``SpectralSequence`` ss.  u must be
    killed by the vertical differential; returns (u1, image) with u1 the
    correction and image = d'(u1) two columns over.  d'' and d' of u are
    applied to u's own keys through the bicomplex; u1 is ss's ``lift``,
    read off its cached reduction of the d'' columns one column over, and
    d'(u1) is read off its cached D columns.  Raises NotDefined when the
    vertical leak is not exact (the class does not survive to the second
    page)."""
    bc = ss.bc
    if not u:
        return {}, {}
    p, q, _ = bc.block_of[next(iter(u))]
    if bc.apply(bc.dsecond_key, u):
        raise NotDefined("element is not a vertical cocycle")
    v = bc.apply(bc.dprime_key, u)
    if not v:
        return {}, {}
    u1 = ss.lift(v, p, q)
    if u1 is NO_SOLUTION:
        raise NotDefined("the horizontal image is not vertically exact")
    # D(u1) is d'(u1), in column p + 2, and d''(u1) = -v below it
    image = {key: c for key, c in ss.apply_d(u1, p + q).items()
             if bc.block_of[key][0] == p + 2}
    return u1, image


def d2_certificate(bc, u, predicted):
    """Second-page classes of the zig-zag image of u (``d2_zigzag``) and of
    a predicted value.

    u is a nonzero block element at (p, q) that survives to the second page;
    predicted is a total-complex element of Z_2(p + 2, q - 1).  Returns the
    pair (zig-zag class, predicted class) of E_2(p + 2, q - 1) coordinates;
    the prediction holds when the two are equal, and the second-page
    differential of [u] is nonzero when the first is.  One
    ``SpectralSequence`` serves the zig-zag and both projections."""
    p, q, _ = bc.block_of[next(iter(u))]
    ss = SpectralSequence(bc)
    _, image = d2_zigzag(ss, u)
    return (ss.project_class(image, 2, p + 2, q - 1),
            ss.project_class(predicted, 2, p + 2, q - 1))


def quadruple_tensor(bc, H, a, b, c, d):
    """The discrete-graph element a (x) b (x) c (x) d of a four-point
    reduced bicomplex, using cocycle representatives from H."""
    f = bc.field
    g0 = gr.Graph(4)
    reps = [_rep(H, _as_class(H, u)) for u in (a, b, c, d)]
    out = {}
    for i0, c0 in reps[0].items():
        for i1, c1 in reps[1].items():
            for i2, c2 in reps[2].items():
                for i3, c3 in reps[3].items():
                    vec_iadd(out, {(g0, (i0, i1, i2, i3)):
                                   c0 * c1 * c2 * c3})
    return out


def corner_element(bc, H, tensors):
    """Element of the two-edge corner blocks from {'e2334': t, 'e2324': t}
    tensors over H class pairs, using cocycle representatives.

    Both corner graphs isolate vertex 1 and join 2, 3, 4 into one component,
    so a tensor a (x) b lands in the two-slot key (a-rep, b-rep)."""
    g2324 = gr.Graph(4, [(2, 3), (2, 4)])
    g2334 = gr.Graph(4, [(2, 3), (3, 4)])
    out = {}
    for name, g in (("e2324", g2324), ("e2334", g2334)):
        for (i, j), c in tensors.get(name, {}).items():
            for i0, c0 in _rep(H, {i: bc.field.one}).items():
                for j0, c1 in _rep(H, {j: bc.field.one}).items():
                    vec_iadd(out, {(g, (i0, j0)): c * c0 * c1})
    return out


def thm3_detector(H):
    """Search for quadruples of indecomposable classes certifying a nonzero
    second-page differential on the four-point complex.

    Per quadruple (a, b, c, d) with all pairwise products zero and the four
    triple Massey products defined, the sufficient conditions are: <b, c, d>
    is nonzero and indecomposable modulo its indeterminacy, and a is
    independent of b, c, d and <b, c, d>.  A finding is reported when the
    conditions hold or when the computed residual of the formula value is
    already nonzero."""
    f = H.field
    qreps, project = H.q_data
    cand = [i for i in range(H.dim)
            if H.degrees[i] > 0 and any(project({i: f.one}))]
    massey = _massey_memo(H)   # the quadruples share their products
    findings = []
    for (ia, ib, ic, id_) in product(cand, repeat=4):
        a, b, c, d = ({t: f.one} for t in (ia, ib, ic, id_))
        try:
            tensors = _d2_formula(H, a, b, c, d, massey)
            mbcd = massey(b, c, d)
        except NotDefined:
            continue
        core = mbcd.class_modulo_indeterminacy()
        indecomp = bool(core) and any(q_residual(H, core).values())
        independent = not SpanReducer(f).extend((b, c, d, core)).contains(a)
        res = {name: obstruction_residual(H, t) if t else {}
               for name, t in tensors.items()}
        res_nonzero = any(any(k[0] == "qq" for k in r) for r in res.values())
        if not ((indecomp and independent) or res_nonzero):
            continue
        findings.append({"quadruple": (ia, ib, ic, id_), "tensors": tensors,
                         "residuals": res, "massey_bcd": mbcd,
                         "hypotheses_met": indecomp and independent,
                         "residual_nonzero": res_nonzero})
    return findings
