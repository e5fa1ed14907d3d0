"""Massey products, residuals, and the second-page obstruction machinery."""

from collections import Counter
from itertools import product

import pytest

from confspace.exactlinalg import (QQ, Field, NO_SOLUTION, rank, solve,
                                   vec_iadd)
from confspace import exactlinalg
from confspace import graphs as gr
from confspace import catalog, massey
from confspace.algebra import cohomology, el_degree, sign
from confspace.bgcomplex import Bicomplex, build_C
from confspace.cli import _cohomology_of, _resolve_class
from confspace.spectral import SpectralSequence
from confspace.massey import (
    NotDefined, triple_massey, matrix_massey, q_residual,
    obstruction_residual, d2_formula, d2_zigzag, d2_certificate,
    quadruple_tensor, corner_element, thm3_detector,
)

from refvectors import as_block, from_block, vec_scale


def one(H, label):
    return {H.labels.index(label): QQ.one}


# -- triple products on the tangent-bundle total space ------------------------

def test_triple_product_xxy():
    H = catalog.load("stb_s2xs2_h")
    r = triple_massey(H, "[x]", "[x]", "[y]")
    assert r.class_el == one(H, "[-1*x*t + y*u]")
    # no indeterminacy: nothing in degree 3 to multiply by
    assert r.indeterminacy == []
    assert r.class_modulo_indeterminacy()
    assert any(r.residual().values())


def test_triple_product_xyy():
    H = catalog.load("stb_s2xs2_h")
    r = triple_massey(H, "[x]", "[y]", "[y]")
    assert r.class_el == one(H, "[-1*x*v + y*t]")


def test_defining_system_solves_products():
    H = catalog.load("stb_s2xs2_h")
    c = H.ambient
    r = triple_massey(H, "[x]", "[x]", "[y]")
    x_rep = H.representatives[H.labels.index("[x]")]
    y_rep = H.representatives[H.labels.index("[y]")]
    assert c.differentiate(r.system["x"][0]) == c.multiply(x_rep, x_rep)
    assert c.differentiate(r.system["y"][0]) == c.multiply(x_rep, y_rep)
    assert not c.differentiate(r.rep)


def test_one_by_one_matrix_equals_triple():
    H = catalog.load("stb_s2xs2_h")
    r1 = triple_massey(H, "[x]", "[x]", "[y]")
    r2 = matrix_massey(H, ["[x]"], [["[x]"]], ["[y]"])
    assert r1.class_el == r2.class_el


# -- nilmanifold oracle: the degree-one triple products ------------------------

def test_heisenberg_triple_products():
    H = cohomology(catalog.load("heis3"), 3)
    a, b = one(H, "[a]"), one(H, "[b]")
    assert triple_massey(H, a, a, b).class_el == one(H, "[a*c]")
    assert triple_massey(H, a, b, b).class_el == \
        {H.labels.index("[b*c]"): QQ.of(-1)}
    # <a, a, a> and <b, b, b> vanish
    assert not triple_massey(H, a, a, a).class_el
    assert not triple_massey(H, b, b, b).class_el


def test_formal_triple_products_die_modulo_indeterminacy():
    # in the formal model every defined triple product has zero core
    H = cohomology(catalog.load("heis3"), 3)
    hf = cohomology(catalog.load("cs_s5"), 5)
    sx, sy = one(hf, "[sx]"), one(hf, "[sy]")
    w = one(hf, "[w5]")
    for trip in [(sx, sx, sy), (sx, sy, sy), (w, sx, sx)]:
        try:
            r = triple_massey(hf, *trip)
        except NotDefined:
            continue
        assert not r.class_modulo_indeterminacy()


def test_indeterminacy_dim_reads_the_reduced_span():
    # <sx, sx, sx>: sx H + H sx has two spanning vectors and dimension 1;
    # the dimension is the span's, not the count of spanning vectors
    hf = cohomology(catalog.load("cs_s5"), 5)
    sx = one(hf, "[sx]")
    r = triple_massey(hf, sx, sx, sx)
    assert len(r.indeterminacy) == 2
    assert r.indeterminacy_dim == rank(hf.field, r.indeterminacy) == 1


# -- failure modes --------------------------------------------------------------

def test_nonzero_pairwise_product_not_defined():
    H = cohomology(catalog.load("cp2"), 4)
    h = {1: QQ.one}
    with pytest.raises(NotDefined):
        triple_massey(H, h, h, h)


def test_degree_out_of_range_not_defined():
    H = catalog.load("stb_s2xs2_h")
    u = one(H, "[-1*x*t + y*u]")
    with pytest.raises(NotDefined):
        triple_massey(H, u, u, "[x]")


def test_matrix_shape_mismatch():
    H = catalog.load("stb_s2xs2_h")
    with pytest.raises(ValueError):
        matrix_massey(H, ["[x]"], [["[x]", "[y]"]], ["[y]", "[x]", "[y]"])


# -- residual projections ---------------------------------------------------------

def test_obstruction_residual_splits_unit_part():
    H = catalog.load("stb_s2xs2_h")
    ix = H.labels.index("[x]")
    out = obstruction_residual(H, {(0, ix): QQ.one})
    assert list(out) == [("kq", 0)] or list(out) == [("kq", 1)]


def test_obstruction_residual_antisymmetrizes():
    H = catalog.load("stb_s2xs2_h")
    ix, iy = H.labels.index("[x]"), H.labels.index("[y]")
    out = obstruction_residual(H, {(ix, iy): QQ.one})
    qq = {k: v for k, v in out.items() if k[0] == "qq"}
    assert len(qq) == 2
    (k1, v1), (k2, v2) = sorted(qq.items())
    # even-degree factors: psi(a (x) b) = a (x) b - b (x) a
    assert v1 == -v2


def test_obstruction_residual_kills_symmetric_even_tensor():
    H = catalog.load("stb_s2xs2_h")
    ix, iy = H.labels.index("[x]"), H.labels.index("[y]")
    out = obstruction_residual(
        H, {(ix, iy): QQ.one, (iy, ix): QQ.one})
    assert not any(k[0] == "qq" for k in out)


def test_obstruction_residual_rejects_degree_zero_second_factor():
    H = catalog.load("stb_s2xs2_h")
    with pytest.raises(ValueError):
        obstruction_residual(H, {(1, 0): QQ.one})


# -- second-page differential: formula vs zig-zag ----------------------------------

def stb_setup(qmax=10):
    H = catalog.load("stb_s2xs2_h")
    bc = build_C(H.ambient, 4, qmax=qmax)
    return H, bc


def test_d2_formula_tensor_on_tangent_bundle():
    H = catalog.load("stb_s2xs2_h")
    t = d2_formula(H, "[x]", "[x]", "[y]", "[y]")
    ix, iy = H.labels.index("[x]"), H.labels.index("[y]")
    m1 = H.labels.index("[-1*x*t + y*u]")    # <x, x, y>
    m2 = H.labels.index("[-1*x*v + y*t]")    # <x, y, y>
    assert t["e2334"] == {(ix, m2): QQ.one, (m2, ix): QQ.of(-1),
                          (m1, iy): QQ.of(2)}
    assert t["e2324"] == {}


def test_d2_zigzag_matches_formula_class():
    H, bc = stb_setup()
    u = quadruple_tensor(bc, H, "[x]", "[x]", "[y]", "[y]")
    ss = SpectralSequence(bc)
    u1, img = d2_zigzag(ss, u)
    # the correction solves away the vertical leak
    assert bc.apply(bc.dsecond_key, u1) == \
        {k: -c for k, c in bc.apply(bc.dprime_key, u).items()}
    zz = ss.project_class(img, 2, 2, 7)
    assert zz and list(zz.values()) == [QQ.one]
    pred = corner_element(bc, H, d2_formula(H, "[x]", "[x]", "[y]", "[y]"))
    assert ss.project_class(pred, 2, 2, 7) == zz


def test_d2_zigzag_zero_class_on_symmetric_quadruple():
    # <x, x, x> has a symmetric defining system: the second-page class dies
    H, bc = stb_setup()
    u = quadruple_tensor(bc, H, "[x]", "[x]", "[x]", "[x]")
    ss = SpectralSequence(bc)
    _, img = d2_zigzag(ss, u)
    assert ss.project_class(img, 2, 2, 7) == {}


def test_d2_zigzag_trivial_on_formal_carrier():
    a = catalog.load("s2xs2")
    Hf = cohomology(a, 4)
    bc = build_C(a, 4)
    u = quadruple_tensor(bc, Hf, "[a]", "[a]", "[a]", "[a]")
    assert not bc.apply(bc.dprime_key, u)
    assert d2_zigzag(SpectralSequence(bc), u) == ({}, {})


def test_d2_zigzag_rejects_non_cocycle():
    H, bc = stb_setup()
    c = H.ambient
    g0 = gr.Graph(4)
    it = c.labels.index("t")
    ix = c.labels.index("x")
    with pytest.raises(NotDefined):
        d2_zigzag(SpectralSequence(bc), {(g0, (it, ix, ix, ix)): QQ.one})


# -- the zig-zag against its one-solve reference ------------------------------

def _reference_d2_zigzag(bc, u):
    """The zig-zag as one ``solve`` against the d'' columns out of block
    (p + 1, q - 1), each evaluated through the bicomplex, and d' of the
    correction applied through it too: the body ``d2_zigzag`` replaced,
    kept as its reference."""
    if not u:
        return {}, {}
    p, q, _ = bc.block_of[next(iter(u))]
    if bc.apply(bc.dsecond_key, u):
        raise NotDefined("element is not a vertical cocycle")
    v = bc.apply(bc.dprime_key, u)
    if not v:
        return {}, {}
    cols = [as_block(bc, bc.dsecond_key(k), p + 1, q)
            for k in bc.blocks.get((p + 1, q - 1), ())]
    rhs = as_block(bc, {k: -c for k, c in v.items()}, p + 1, q)
    x = solve(bc.field, cols, rhs)
    if x is NO_SOLUTION:
        raise NotDefined("the horizontal image is not vertically exact")
    u1 = from_block(bc, x, p + 1, q - 1)
    return u1, bc.apply(bc.dprime_key, u1)


def d2_setup(nm, word, field):
    """(H, bc, u) as the d2 command builds them for the class labels of
    word: the four-point reduced bicomplex under the quadruple's q-window
    and u = a (x) b (x) c (x) d."""
    H = _cohomology_of(catalog.load(nm, field=field))
    cls = [_resolve_class(H, t) for t in word]
    bc = build_C(H.ambient, 4, qmax=sum(el_degree(H, c) for c in cls))
    return H, bc, quadruple_tensor(bc, H, *cls)


D2_FIELDS = pytest.mark.parametrize(
    "field", [QQ, Field(3), Field(101)], ids=["Q", "F3", "F101"])
D2_CASES = ([("stb_s2xs2", "".join(w)) for w in product("xy", repeat=4)]
            + [(nm, "aabb") for nm in ("heis3", "heis3_s2", "cs_heis3_s2")])


@D2_FIELDS
@pytest.mark.parametrize("nm,word", D2_CASES)
def test_d2_zigzag_matches_the_solve_reference(nm, word, field):
    _, bc, u = d2_setup(nm, word, field)
    try:
        want = _reference_d2_zigzag(bc, u)
    except NotDefined as e:
        with pytest.raises(NotDefined, match=str(e)):
            d2_zigzag(SpectralSequence(bc), u)
        return
    got = d2_zigzag(SpectralSequence(bc), u)
    # the same vectors, with the same key order
    assert [list(x.items()) for x in got] == [list(x.items()) for x in want]
    if nm == "stb_s2xs2":
        assert got[0]


@pytest.fixture
def dkey_keys(monkeypatch):
    """The keys Bicomplex.dprime_key / dsecond_key are called on while
    active, as the dkey_calls fixture of test_spectral counts its calls."""
    calls = {"dprime_key": [], "dsecond_key": []}

    def recorded(name):
        orig = getattr(Bicomplex, name)

        def wrapper(self, key):
            calls[name].append(key)
            return orig(self, key)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Bicomplex, name, recorded(name))
    return calls


def _system(cols):
    """A column list up to a shift of its row indices: each column's
    (row - least row of all, entry) pairs in increasing row order."""
    low = min((i for c in cols for i in c), default=0)
    return [sorted((i - low, x) for i, x in c.items()) for c in cols]


@D2_FIELDS
def test_d2_certificate_evaluates_each_key_and_reduces_the_lift_once(
        field, dkey_keys, monkeypatch):
    H, bc, u = d2_setup("stb_s2xs2", "xxyy", field)
    predicted = corner_element(bc, H, d2_formula(H, *(
        _resolve_class(H, t) for t in "xxyy")))
    # the d'' system out of block (1, 7), over the rows of block (1, 8)
    lift = _system([as_block(bc, bc.dsecond_key(k), 1, 8)
                    for k in bc.blocks[(1, 7)]])
    reductions = []
    real = exactlinalg._tagged_reduction

    def recorded(field, dim, relations, candidates):
        reductions.append(_system(candidates))
        return real(field, dim, relations, candidates)

    monkeypatch.setattr(exactlinalg, "_tagged_reduction", recorded)
    for calls in dkey_keys.values():
        calls.clear()
    zz, _ = d2_certificate(bc, u, predicted)
    assert zz
    for calls in dkey_keys.values():
        assert calls and max(Counter(calls).values()) == 1
    assert sum(r == lift for r in reductions) == 1


def test_quadruple_tensor_keys():
    H, bc = stb_setup()
    u = quadruple_tensor(bc, H, "[x]", "[x]", "[y]", "[y]")
    c = H.ambient
    ix, iy = c.labels.index("x"), c.labels.index("y")
    assert u == {(gr.Graph(4), (ix, ix, iy, iy)): QQ.one}


def test_corner_element_keys():
    H, bc = stb_setup()
    ix, iy = H.labels.index("[x]"), H.labels.index("[y]")
    out = corner_element(bc, H, {"e2324": {(ix, iy): QQ.one}})
    cx = H.ambient.labels.index("x")
    cy = H.ambient.labels.index("y")
    assert out == {(gr.Graph(4, [(2, 3), (2, 4)]), (cx, cy)): QQ.one}


# -- matrix obstruction ---------------------------------------------------------

def matrix_obstruction_element(bc, H, x, L, B, C):
    """The four-point element whose second-page differential detects the
    matrix Massey product <L, B, C> of class labels:

        u = sum_ij x (x) a_i (x) b_ij (x) c_j
          - sum_ij (-1)^{|c||b| + |c||a| + |b||a|} x (x) c_j (x) b_ij (x) a_i
    """
    out = {}
    for i, a in enumerate(L):
        for j, c in enumerate(C):
            b = B[i][j]
            da, db, dc = (el_degree(H, H.element(u)) for u in (a, b, c))
            vec_iadd(out, quadruple_tensor(bc, H, x, a, b, c))
            vec_iadd(out, quadruple_tensor(bc, H, x, c, b, a),
                     bc.field.of(-sign(dc * db + dc * da + db * da)))
    return out


def matrix_obstruction_check(bc, H, x, L, B, C):
    """Certify that the second-page differential of the matrix obstruction
    element is [x (x) <L,B,C>] e2324 + 2 [x (x) <L,B,C>] e2334 as a
    second-page class."""
    m = matrix_massey(H, L, B, C).class_el
    t = {(i, j): c * cj for i, c in H.element(x).items()
         for j, cj in m.items()}
    pred = corner_element(bc, H, {"e2324": t,
                                  "e2334": vec_scale(t, QQ.of(2))})
    zz, pc = d2_certificate(
        bc, matrix_obstruction_element(bc, H, x, L, B, C), pred)
    return {"d2_class": zz, "predicted_class": pc, "match": zz == pc,
            "nonzero": bool(zz), "massey_class": m}


def test_matrix_obstruction_one_by_one():
    H, bc = stb_setup()
    out = matrix_obstruction_check(bc, H, "[x]", ["[x]"], [["[x]"]], ["[y]"])
    assert out["match"] and out["nonzero"]
    assert out["d2_class"]


def test_matrix_obstruction_two_rows():
    H, bc = stb_setup()
    out = matrix_obstruction_check(bc, H, "[y]", ["[x]", "[y]"],
                                   [["[x]"], ["[y]"]], ["[y]"])
    assert out["match"] and out["nonzero"]
    assert out["massey_class"]


def test_matrix_obstruction_element_antisymmetrization():
    H, bc = stb_setup()
    u = matrix_obstruction_element(bc, H, "[x]", ["[x]"], [["[x]"]], ["[y]"])
    c = H.ambient
    ix, iy = c.labels.index("x"), c.labels.index("y")
    g0 = gr.Graph(4)
    assert u == {(g0, (ix, ix, ix, iy)): QQ.one,
                 (g0, (ix, iy, ix, ix)): QQ.of(-1)}


# -- detector ---------------------------------------------------------------------

def test_detector_flags_tangent_bundle_quadruples():
    H = catalog.load("stb_s2xs2_h")
    found = thm3_detector(H)
    quads = {f["quadruple"] for f in found}
    ix, iy = H.labels.index("[x]"), H.labels.index("[y]")
    assert (ix, ix, iy, iy) in quads
    for f in found:
        assert f["residual_nonzero"] or f["hypotheses_met"]
    # x is never independent of {x, y, <., ., .>} here
    assert all(not f["hypotheses_met"] for f in found)


@pytest.mark.parametrize("run, calls", [
    (lambda H: d2_formula(H, "[x]", "[x]", "[y]", "[y]"), 4),
    (thm3_detector, 28)], ids=["d2_formula", "thm3_detector"])
def test_each_massey_product_is_computed_once(monkeypatch, run, calls):
    # d2_formula takes eight products of four distinct triples on
    # x x y y; the detector takes 190 of 28 distinct triples on
    # stb_s2xs2_h, those that are not defined among them
    H = catalog.load("stb_s2xs2_h")
    seen = []

    def counted(H, *args):
        seen.append(args)
        return triple_massey(H, *args)

    monkeypatch.setattr(massey, "triple_massey", counted)
    run(H)
    assert len(seen) == calls


def test_detector_empty_on_formal_model():
    H = cohomology(catalog.load("s2xs2"), 4)
    assert thm3_detector(H) == []
