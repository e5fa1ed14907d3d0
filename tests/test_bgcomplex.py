"""Graph-indexed bicomplexes: differentials, squares, the reduced embedding."""

import gc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from confspace.exactlinalg import QQ, Field, vec_iadd
from confspace import graphs as gr
from confspace import algebra, catalog
from confspace.algebra import Algebra, Overflow, TruncatedFreeCDGA, sign
from confspace.bgcomplex import build_AG, build_C, edge_multiply, phi_bar

from refvectors import apply_map, as_block, from_block, vec_add


def idx(carrier, label):
    return carrier.labels.index(label)


# -- block bookkeeping ------------------------------------------------------

def test_block_dims_two_points_full():
    a = catalog.load("s2")
    bc = build_AG(a, 2, gr.FULL)
    # discrete graph: A (x) A; edge graph: one copy of A
    assert bc.block_dim(0, 0) == 1
    assert bc.block_dim(0, 2) == 2
    assert bc.block_dim(0, 4) == 1
    assert bc.block_dim(1, 0) == 1
    assert bc.block_dim(1, 2) == 1
    assert bc.total_dim() == 6


def test_reduced_positive_factor_constraint():
    a = catalog.load("s2")
    bc = build_C(a, 2)
    # first slot free, second slot positive degree only
    assert sorted(bc.blocks) == [(0, 2), (0, 4)]
    assert bc.total_dim() == 2


def test_pmax_by_kind():
    a = catalog.load("s2")
    assert build_AG(a, 3, gr.FULL).pmax == 3
    assert build_AG(a, 3, gr.NODUPTARGET).pmax == 2
    assert build_C(a, 4).pmax == 2


@pytest.mark.parametrize("build,nm,n,args,qmax", [
    (build_AG, "t2", 3, (gr.NODUPTARGET,), 2),
    (build_AG, "s2xs2", 3, (gr.FULL,), 4),
    (build_C, "heis3", 4, (), 6),
], ids=["t2-bar", "s2xs2-full", "heis3-reduced"])
def test_q_window_prunes_basis(build, nm, n, args, qmax):
    # the window drops whole blocks and keeps every other block as it is:
    # the same keys in the same order, so the same positions
    a = catalog.load(nm)
    bc = build(a, n, *args, qmax=qmax)
    full = build(a, n, *args)
    assert all(q <= qmax for (_, q) in bc.blocks)
    assert set(bc.blocks) == {(p, q) for (p, q) in full.blocks if q <= qmax}
    for blk, keys in bc.blocks.items():
        assert keys == full.blocks[blk]
        assert all(bc.block_of[k] == full.block_of[k] for k in keys)
    assert bc.total_dim() < full.total_dim()


@pytest.mark.parametrize("qmax", [None, 6], ids=["unwindowed", "windowed"])
def test_block_of_gives_each_keys_block_and_position(qmax):
    bc = build_C(catalog.load("heis3"), 4, qmax=qmax)
    for (p, q), keys in bc.blocks.items():
        for i, key in enumerate(keys):
            assert bc.block_of[key] == (p, q, i)
    assert bc.total_dim() == sum(map(len, bc.blocks.values()))
    # as_block inverts from_block, and refuses a key of another block
    (p, q), keys = max(bc.blocks.items(), key=lambda kv: len(kv[1]))
    vec = {i: QQ.of(i + 1) for i in range(len(keys))}
    assert as_block(bc, from_block(bc, vec, p, q), p, q) == vec
    other = next(k for k, loc in bc.block_of.items() if loc[:2] != (p, q))
    with pytest.raises(KeyError):
        as_block(bc, {other: QQ.one}, p, q)
    with pytest.raises(KeyError):
        as_block(bc, {(gr.Graph(4), ()): QQ.one}, p, q)


# -- d' on explicit keys ----------------------------------------------------

def test_dprime_merges_components():
    a = catalog.load("s2")
    bc = build_AG(a, 2, gr.FULL)
    g0 = gr.Graph(2)
    g1 = gr.Graph(2, [(1, 2)])
    x = idx(a, "w2")
    out = bc.dprime_key((g0, (0, x)))
    assert out == {(g1, (x,)): QQ.one}
    # x*x = 0 in the sphere algebra
    assert bc.dprime_key((g0, (x, x))) == {}


def test_dprime_sign_on_loop_edge():
    # both endpoints already in one component: pure edge-insertion sign
    a = catalog.load("s2")
    bc = build_AG(a, 3, gr.FULL)
    g = gr.Graph(3, [(1, 2), (1, 3)])
    out = bc.dprime_key((g, (0, )))
    g2 = gr.Graph(3, [(1, 2), (1, 3), (2, 3)])
    assert out == {(g2, (0,)): QQ.one}


def test_dprime_reduced_three_terms():
    # inserting edge (2,3) on (1, x, x): merge dies, both absorptions fire
    a = catalog.load("s2")
    bc = build_C(a, 3)
    x = idx(a, "w2")
    out = bc.dprime_key((gr.Graph(3), (0, x, x)))
    g1 = gr.Graph(3, [(2, 3)])
    assert out == {(g1, (x, x)): QQ.of(-2)}


def test_dprime_reduced_merge_term():
    a = catalog.load("t2")
    bc = build_C(a, 3)
    a1, a2 = idx(a, "a1"), idx(a, "a2")
    top = idx(a, "a1*a2")
    out = bc.dprime_key((gr.Graph(3), (0, a1, a2)))
    g1 = gr.Graph(3, [(2, 3)])
    # merge gives a1*a2, absorptions move single generators into slot one
    assert out[(g1, (0, top))] == QQ.one
    assert out[(g1, (a1, a2))] == QQ.of(-1)
    assert out[(g1, (a2, a1))] == QQ.one


def test_dprime_respects_quotient_family():
    # in the no-duplicate-target quotient the duplicate-target edge dies
    a = catalog.load("s2")
    bc = build_AG(a, 3, gr.NODUPTARGET)
    g = gr.Graph(3, [(1, 3)])
    out = bc.dprime_key((g, (0, 0)))
    assert all(gr.in_family(k[0], gr.NODUPTARGET) for k in out)
    assert not any(k[0] == gr.Graph(3, [(1, 3), (2, 3)]) for k in out)


def test_edge_multiply_matches_single_summand():
    a = catalog.load("t2")
    bc = build_AG(a, 3, gr.FULL)
    key = (gr.Graph(3), (idx(a, "a1"), idx(a, "a2"), 0))
    el = {key: QQ.one}
    assert edge_multiply(bc, el, 1, 2) == EdgeOracle(bc).pair_term(key, 1, 2)


def component_index(g, vertex):
    """Index (0-based) of the component of g that holds vertex."""
    return next(s for s, comp in enumerate(gr.components(g))
                if vertex in comp)


class EdgeOracle:
    """The key images of a Bicomplex, summand by summand, as a reference.

    Every single-edge summand of d' adds its edge to the graph afresh, looks
    up the components of both ends, and forms field scalars term by term;
    d'' forms two field scalars per slot.  Only the carrier's products and
    differentials come from the bicomplex."""

    def __init__(self, bc):
        self.bc = bc
        self.carrier = bc.carrier
        self.field = bc.field

    def pair_term(self, key, i, j):
        g, factors = key
        res = gr.add_edge(g, i, j)
        if res is gr.ZERO:
            return {}
        g2, esign = res
        if not gr.in_family(g2, self.bc.family):
            return {}
        if self.bc.family == gr.HFAMILY:
            return self.pair_term_reduced(g, factors, i, j, g2, esign)
        degs = self.carrier.degrees
        f = self.field
        s, t = component_index(g, i), component_index(g, j)
        if s == t:
            return {(g2, factors): f.of(esign)}
        if s > t:
            s, t = t, s
        tau = sum(degs[factors[r]] for r in range(s + 1, t)) * degs[factors[t]]
        coeff = f.of(esign * sign(tau))
        out = {}
        for k, c in self.carrier.mul_basis(factors[s], factors[t]).items():
            tup = factors[:s] + (k,) + factors[s + 1:t] + factors[t + 1:]
            vec_iadd(out, {(g2, tup): coeff * c})
        return out

    def pair_term_reduced(self, g, factors, i, j, g2, esign):
        degs = self.carrier.degrees
        f = self.field
        s, t = component_index(g, i), component_index(g, j)
        assert s < t
        ds = degs[factors[s]]
        dt = degs[factors[t]]
        d2s = sum(degs[factors[r]] for r in range(1, s))
        dst = sum(degs[factors[r]] for r in range(s + 1, t))
        base = f.of(esign)
        out = {}
        for k, c in self.carrier.mul_basis(factors[s], factors[t]).items():
            tup = factors[:s] + (k,) + factors[s + 1:t] + factors[t + 1:]
            vec_iadd(out, {(g2, tup): base * f.of(sign(dt * dst)) * c})
        eps = sign(ds * d2s + dt * dst)
        for k, c in self.carrier.mul_basis(factors[0], factors[s]).items():
            tup = ((k,) + factors[1:s] + (factors[t],)
                   + factors[s + 1:t] + factors[t + 1:])
            vec_iadd(out, {(g2, tup): -base * f.of(eps) * c})
        for k, c in self.carrier.mul_basis(factors[0], factors[t]).items():
            tup = ((k,) + factors[1:t] + factors[t + 1:])
            vec_iadd(out, {(g2, tup):
                           -base * f.of(sign(dt * (d2s + ds + dst))) * c})
        return out

    def dprime_key(self, key):
        out = {}
        lo = 2 if self.bc.family == gr.HFAMILY else 1
        for i, j in combinations(range(lo, self.bc.n + 1), 2):
            vec_iadd(out, self.pair_term(key, i, j))
        return out

    def dsecond_key(self, key):
        g, factors = key
        degs = self.carrier.degrees
        f = self.field
        out = {}
        gsign = f.of(sign(g.edge_count))
        pre = 0
        for slot, fi in enumerate(factors):
            s = gsign * f.of(sign(pre))
            for k, c in self.carrier.d_basis(fi).items():
                tup = factors[:slot] + (k,) + factors[slot + 1:]
                vec_iadd(out, {(g, tup): s * c})
            pre += degs[fi]
        return out


def rescaled(alg, scales):
    """alg over Q in the basis e'_i = scales[label] * e_i (other labels
    unscaled), so its structure constants and differential are no longer
    integral."""
    lam = [Fraction(scales.get(lab, 1)) for lab in alg.labels]
    products = {(i, j): {k: lam[i] * lam[j] * c / lam[k]
                         for k, c in el.items()}
                for (i, j), el in alg.products.items()}
    differential = None
    if alg.differential:
        differential = {i: {k: lam[i] * c / lam[k] for k, c in el.items()}
                        for i, el in alg.differential.items()}
    return Algebra(alg.name + "'", alg.field,
                   list(zip(alg.labels, alg.degrees)), alg.unit, products,
                   differential=differential, top=alg.top)


def test_rescaled_carriers_have_fractional_constants():
    s2xs2 = rescaled(catalog.load("s2xs2"), {"a": Fraction(1, 2)})
    a, b, ab = (idx(s2xs2, lab) for lab in ("a", "b", "ab"))
    assert s2xs2.mul_basis(a, b) == {ab: Fraction(1, 2)}
    heis3 = rescaled(catalog.load("heis3"), {"c": Fraction(1, 2)})
    c, ab = idx(heis3, "c"), idx(heis3, "a*b")
    assert heis3.d_basis(c) == {ab: Fraction(1, 2)}


_FIELDS = [QQ, Field(3), Field(101)]


def _oracle_cases():
    for field in _FIELDS:
        for nm, n, family in [("s2", 4, gr.FULL), ("t2", 4, gr.NODUPTARGET),
                              ("cp2", 4, gr.JFAMILY),
                              ("s2xs2", 3, gr.FULL)]:
            yield pytest.param(
                lambda nm=nm, n=n, family=family, field=field: build_AG(
                    catalog.load(nm, field=field), n, family),
                id="%s-n%d-%s-%s" % (nm, n, family, field.name))
        for nm, n, qmax, truncate in [("stb_s2xs2", 4, 10, 12),
                                      ("heis3", 4, None, None),
                                      ("heis3_s2", 3, None, None)]:
            yield pytest.param(
                lambda nm=nm, n=n, qmax=qmax, truncate=truncate, field=field:
                build_C(catalog.load(nm, field=field, truncate=truncate), n,
                        qmax=qmax),
                id="C-%s-n%d-%s" % (nm, n, field.name))
    half = Fraction(1, 2)
    yield pytest.param(
        lambda: build_AG(rescaled(catalog.load("s2xs2"), {"a": half}), 4,
                         gr.FULL), id="s2xs2-halved-n4-full-Q")
    yield pytest.param(
        lambda: build_AG(rescaled(catalog.load("s2xs2"), {"a": half}), 4,
                         gr.NODUPTARGET), id="s2xs2-halved-n4-bar-Q")
    yield pytest.param(
        lambda: build_C(rescaled(catalog.load("heis3"), {"c": half}), 4),
        id="C-heis3-halved-n4-Q")


@pytest.mark.parametrize("make", _oracle_cases())
def test_key_images_match_per_edge_oracle(make):
    bc = make()
    oracle = EdgeOracle(bc)
    one = bc.field.one
    graph_side = bc.family != gr.HFAMILY
    edges = list(combinations(range(1, bc.n + 1), 2))
    for keys in bc.blocks.values():
        for key in keys:
            dp, ds = bc.dprime_key(key), bc.dsecond_key(key)
            assert dp == oracle.dprime_key(key), key
            assert ds == oracle.dsecond_key(key), key
            # no image of either differential holds a constant that is 0
            # in the field
            assert all(map(bc.field.of, (*dp.values(), *ds.values()))), key
            if graph_side:
                for i, j in edges:
                    assert edge_multiply(bc, {key: one}, i, j) == \
                        oracle.pair_term(key, i, j), (key, i, j)


def reference_apply(bc, key_map, el):
    """Reference for ``Bicomplex.apply``: each key image converted to field
    scalars on its own, then summed by ``apply_map``."""
    return apply_map(lambda key: bc.field.scalars(key_map(key)), el)


@lru_cache(maxsize=None)
def apply_case(nm, p):
    """A graph-family bicomplex over heis3, or a windowed reduced one over
    the truncated stb_s2xs2; both carriers have a differential."""
    field = Field(p)
    if nm == "heis3":
        return build_AG(catalog.load(nm, field=field), 3, gr.NODUPTARGET)
    return build_C(catalog.load(nm, field=field, truncate=12), 4, qmax=10)


@pytest.mark.parametrize("name", ["dprime_key", "dsecond_key", "dtotal_key"])
@pytest.mark.parametrize("p", [None, 3, 101], ids=["Q", "F3", "F101"])
@pytest.mark.parametrize("nm", ["heis3", "stb_s2xs2"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_apply_matches_the_per_key_path(nm, p, name, data):
    bc = apply_case(nm, p)
    key_map = getattr(bc, name)
    f = bc.field

    def element(keys):
        picked = data.draw(st.lists(st.sampled_from(keys), min_size=1,
                                    max_size=6))
        el = {k: f.of(data.draw(st.integers(-4, 4))) for k in picked}
        return {k: c for k, c in el.items() if c}

    # b = d(w) on a multi-key w: d(b) = d(d(w)) = 0, so the images of the
    # keys of b cancel across keys; w's block keeps b inside the q-window
    blocks = sorted(pq for pq in bc.blocks
                    if bc.qmax is None or pq[1] + 1 <= bc.qmax)
    w = element(bc.blocks[data.draw(st.sampled_from(blocks))])
    b = reference_apply(bc, key_map, w)
    assert bc.apply(key_map, b) == reference_apply(bc, key_map, b) == {}
    # plus keys of a block b reaches, so the sum mixes both
    near = sorted({bc.block_of[k][:2] for k in b}) or blocks
    el = vec_iadd(element(bc.blocks[data.draw(st.sampled_from(near))]), b)
    assert bc.apply(key_map, el) == reference_apply(bc, key_map, el)


def test_apply_forms_field_scalars_once(monkeypatch):
    bc = apply_case("heis3", None)
    calls = []
    orig = Field.scalars

    def counted_scalars(self, *args):
        calls.append(args)
        return orig(self, *args)

    monkeypatch.setattr(Field, "scalars", counted_scalars)
    el = {k: QQ.of(i + 1) for i, k in enumerate(bc.blocks[(1, 3)][:5])}
    assert len(el) == 5
    for key_map in (bc.dprime_key, bc.dsecond_key, bc.dtotal_key):
        calls.clear()
        bc.apply(key_map, el)
        assert len(calls) == 1


def test_overflowing_product_is_never_kept():
    # x^3 * x^2 = x^5 has degree 10, past the truncation bound 8
    c = catalog.load("stb_s2xs2", truncate=8)
    bc = build_AG(c, 2, gr.FULL)
    x2 = c.index_of((0, 0))
    x3 = c.index_of((0, 0, 0))
    key = (gr.Graph(2), (x3, x2))
    for _ in range(2):
        with pytest.raises(Overflow):
            bc.dprime_key(key)
    # a product inside the bound still evaluates on the same bicomplex
    assert bc.dprime_key((gr.Graph(2), (x2, x2))) == \
        {(gr.Graph(2, [(1, 2)]), (c.index_of((0, 0, 0, 0)),)): QQ.one}
    # the product table lives on the carrier, which never kept the
    # Overflow: a second bicomplex on it raises again
    with pytest.raises(Overflow):
        build_AG(c, 2, gr.FULL).dprime_key(key)


def test_bicomplexes_on_one_carrier_share_its_lifted_tables(monkeypatch):
    # the truncated model of heis3 (d c = ab) computes its products, and
    # keeps them: each pair of basis monomials is multiplied once, however
    # many bicomplexes read it
    c = TruncatedFreeCDGA("heis3", QQ, [("a", 1), ("b", 1), ("c", 1)],
                          {"c": [(("a", "b"), 1)]}, 3)
    for i in range(c.dim):
        c.d_basis(i)   # kept too, so d'' below multiplies no monomials
    calls = Counter()
    mono_mul = algebra._mono_mul

    def counted(m1, m2, godd):
        calls[(m1, m2)] += 1
        return mono_mul(m1, m2, godd)

    monkeypatch.setattr(algebra, "_mono_mul", counted)
    images = []
    for bc in (build_AG(c, 3, gr.NODUPTARGET), build_C(c, 3)):
        for key in bc.block_of:
            images.append((bc.dprime_key(key), bc.dsecond_key(key)))
    assert any(d1 for d1, _ in images) and any(d2 for _, d2 in images)
    assert calls and set(calls.values()) == {1}


def test_reduced_edge_table_refuses_a_target_heading_no_component(
        monkeypatch):
    # with the family test bypassed, edge (3, 4) on the graph {(2, 4)}
    # targets vertex 4, which does not head its component
    bc = build_C(catalog.load("s2"), 4)
    monkeypatch.setattr(gr, "in_family", lambda g, family: True)
    key = (gr.Graph(4, [(2, 4)]), (0, 1, 1))
    with pytest.raises(ValueError, match=r"edge \(3, 4\) of Graph\(4, "
                       r"\[\(2, 4\)\]\)"):
        bc.dprime_key(key)


# -- d'' on explicit keys ---------------------------------------------------

def test_dsecond_uses_carrier_differential_with_edge_sign():
    c = catalog.load("stb_s2xs2", truncate=8)
    t = idx(c, "t")
    xy = idx(c, "x*y")
    bc = build_AG(c, 2, gr.FULL, qmax=6)
    g0 = gr.Graph(2)
    g1 = gr.Graph(2, [(1, 2)])
    # no edges: plain d; one edge: global sign flip
    assert bc.dsecond_key((g0, (0, t))) == {(g0, (0, xy)): QQ.one}
    assert bc.dsecond_key((g1, (t,))) == {(g1, (xy,)): QQ.of(-1)}


def test_dsecond_internal_koszul_sign():
    c = catalog.load("stb_s2xs2", truncate=8)
    t = idx(c, "t")
    x = idx(c, "x")
    xy = idx(c, "x*y")
    bc = build_AG(c, 2, gr.FULL, qmax=6)
    g0 = gr.Graph(2)
    # d(x (x) t) = x (x) d(t), slot sign (+1)^(deg x even)
    assert bc.dsecond_key((g0, (x, t))) == {(g0, (x, xy)): QQ.one}
    # d(t (x) t) picks up a sign in the second slot
    out = bc.dsecond_key((g0, (t, t)))
    assert out == {(g0, (xy, t)): QQ.one, (g0, (t, xy)): QQ.of(-1)}


def test_dtotal_is_dprime_on_carriers_without_differential():
    # dtotal_key skips d'' on these carriers: every d_basis is empty, so
    # d'' is zero on every key, with or without the skip
    names = [nm for nm in catalog.names() if nm.isidentifier()]
    formal = [c for c in map(catalog.load, names + ["s1", "s3", "torus(3)"])
              if not c.has_differential]
    assert len(formal) == 9
    for c in formal:
        assert all(not c.d_basis(i) for i in range(c.dim))
        for bc in (build_AG(c, 3, gr.FULL), build_C(c, 3)):
            for key in bc.block_of:
                assert bc.dsecond_key(key) == {}
                assert bc.dtotal_key(key) == bc.dprime_key(key)


def test_graphs_die_with_their_bicomplex():
    # the intern table is weak: once the bicomplex is gone, none of the
    # graphs it made (its keys' and its edge tables') stays in the table
    gc.collect()
    before = set(gr.Graph._live)
    bc = build_C(catalog.load("s2xs2"), 5)
    for key in bc.block_of:
        bc.dtotal_key(key)
    made = {(g.n, g.edges) for g, _ in bc.block_of} - before
    assert len(made) == 24
    del bc, key
    gc.collect()
    assert not made & set(gr.Graph._live)


# -- square-zero ------------------------------------------------------------

def check_square_zero(bc):
    """Assert d'd' = 0, d''d'' = 0 and d'd'' + d''d' = 0 on every basis key
    whose images stay inside the q-window.  Returns the number of keys
    checked."""

    def in_window(q):
        return bc.qmax is None or q <= bc.qmax

    cnt = 0
    for (p, q), keys in sorted(bc.blocks.items()):
        for key in keys:
            el = {key: bc.field.one}
            dp = bc.apply(bc.dprime_key, el)
            if bc.apply(bc.dprime_key, dp):
                raise AssertionError("d'd' != 0 at %r" % (key,))
            if in_window(q + 2):
                ds = bc.apply(bc.dsecond_key, el)
                if bc.apply(bc.dsecond_key, ds):
                    raise AssertionError("d''d'' != 0 at %r" % (key,))
            if in_window(q + 1):
                ds = bc.apply(bc.dsecond_key, el)
                mix = vec_add(bc.apply(bc.dsecond_key, dp),
                              bc.apply(bc.dprime_key, ds))
                if mix:
                    raise AssertionError("d'd'' + d''d' != 0 at %r" % (key,))
            cnt += 1
    return cnt


@pytest.mark.parametrize("nm,n,family", [
    ("s2", 3, gr.FULL), ("t2", 3, gr.NODUPTARGET), ("cp2", 3, gr.JFAMILY),
    ("s3", 4, gr.NODUPTARGET),
])
def test_square_zero_graph_families(nm, n, family):
    assert check_square_zero(build_AG(catalog.load(nm), n, family)) > 0


@pytest.mark.parametrize("nm,n", [("s2", 3), ("t2", 3), ("cp2", 4)])
def test_square_zero_reduced(nm, n):
    assert check_square_zero(build_C(catalog.load(nm), n)) > 0


def test_square_zero_with_differential_and_window():
    c = catalog.load("stb_s2xs2")
    assert check_square_zero(build_C(c, 3, qmax=8)) > 0
    assert check_square_zero(build_C(c, 4, qmax=8)) > 0


# -- reduced embedding ------------------------------------------------------

def test_phi_bar_literal_two_points():
    a = catalog.load("s2")
    cbc = build_C(a, 2)
    phi = phi_bar(cbc)
    x = idx(a, "w2")
    g0 = gr.Graph(2)
    assert phi({(g0, (0, x)): QQ.one}) == \
        {(g0, (0, x)): QQ.one, (g0, (x, 0)): QQ.of(-1)}
    assert phi({(g0, (x, x)): QQ.one}) == {(g0, (x, x)): QQ.one}


@pytest.mark.parametrize("nm,n", [("s2", 3), ("t2", 3), ("cp2", 3), ("s2", 4)])
def test_phi_bar_is_chain_map(nm, n):
    a = catalog.load(nm)
    cbc = build_C(a, n)
    bbc = build_AG(a, n, gr.NODUPTARGET)
    phi = phi_bar(cbc)
    for keys in cbc.blocks.values():
        for key in keys:
            el = {key: QQ.one}
            lhs = phi(cbc.apply(cbc.dtotal_key, el))
            rhs = bbc.apply(bbc.dtotal_key, phi(el))
            assert lhs == rhs, cbc.show_key(key)


def test_phi_bar_chain_map_with_differential():
    c = catalog.load("stb_s2xs2", truncate=9)
    cbc = build_C(c, 3, qmax=7)
    bbc = build_AG(c, 3, gr.NODUPTARGET, qmax=8)
    phi = phi_bar(cbc)
    for (p, q), keys in cbc.blocks.items():
        if q + 1 > 7:
            continue
        for key in keys:
            el = {key: QQ.one}
            assert phi(cbc.apply(cbc.dtotal_key, el)) == \
                bbc.apply(bbc.dtotal_key, phi(el))


def test_phi_bar_injective_on_blocks():
    from confspace.exactlinalg import SpanReducer
    a = catalog.load("t2")
    cbc = build_C(a, 3)
    bbc = build_AG(a, 3, gr.NODUPTARGET)
    phi = phi_bar(cbc)
    for (p, q), keys in cbc.blocks.items():
        red = SpanReducer(QQ)
        for key in keys:
            img = phi({key: QQ.one})
            assert red.insert(as_block(bbc, img, p, q))
