"""Tensor-power first-page complex: quotient dims, d1, known point counts."""

from collections import Counter
from itertools import combinations
from math import factorial

import pytest

from confspace.exactlinalg import QQ, Field, quotient_basis, rank, vec_iadd
from confspace import catalog
from confspace import graphs as gr
from confspace.cli import main
from confspace.algebra import sign
from confspace.bgcomplex import build_AG
from confspace.ctcomplex import CTComplex
from confspace.duality import theorem1_check

from refvectors import apply_map, as_block


class AmbientOracle:
    """The ambient presentation of the tensor-power complex, as a reference.

    Keys are every tensor times every squarefree monomial in the x_{st};
    the quotient is by the symbol relations and by the three-term relations
    x_{st} x_{tu} + (-1)^m x_{tu} x_{su} + (-1)^m x_{su} x_{st} times
    anything.  Everything is taken term by term in field scalars, apart
    from the algebra's exact table: slot insertion multiplies with the
    algebra's own products, and d1 of a key inserts the diagonal class into
    the two slots of each edge, apart from the closed form CTComplex
    computes."""

    def __init__(self, ct):
        self.ct = ct
        self.field = ct.field
        self.m = ct.m
        degs = ct.alg.degrees
        self.edges = list(combinations(range(1, ct.n + 1), 2))
        tensors = [()]
        for _ in range(ct.n):
            tensors = [t + (i,) for t in tensors for i in range(ct.alg.dim)]
        self.keys = {}
        self.pos = {}
        for p in range(len(self.edges) + 1):
            for mu in combinations(self.edges, p):
                for t in tensors:
                    blk = self.keys.setdefault((p, sum(degs[i] for i in t)),
                                               [])
                    self.pos[(t, mu)] = len(blk)
                    blk.append((t, mu))
        self._quot = {}

    def insert_slot(self, t, i, a_el):
        """Multiply an element of H into slot i (1-based) of a tensor key,
        with the Koszul sign of moving it past the earlier slots."""
        alg = self.ct.alg
        degs = alg.degrees
        out = {}
        for a, ca in a_el.items():
            pre = sum(degs[t[r]] for r in range(i - 1))
            s = self.field.of(sign(degs[a] * pre))
            for k, c in alg.mul_basis(a, t[i - 1]).items():
                t2 = t[:i - 1] + (k,) + t[i:]
                vec_iadd(out, {t2: s * ca * c})
        return out

    def symbol_vectors(self, p, h):
        """The symbol relations of block (p, h), on every monomial, over
        ambient positions."""
        ct, one = self.ct, self.field.one
        out = []
        for a in ct.alg.positive_indices():
            for tens, mu in self.keys.get((p, h - ct.alg.degrees[a]), ()):
                for (s, t) in mu:
                    vec = {}
                    for t2, c in self.insert_slot(tens, s, {a: one}).items():
                        vec_iadd(vec, {self.pos[(t2, mu)]: c})
                    for t2, c in self.insert_slot(tens, t, {a: one}).items():
                        vec_iadd(vec, {self.pos[(t2, mu)]: -c})
                    if vec:
                        out.append(vec)
        return out

    def _normalize(self, edges):
        """Sorted product of x generators and its sign, or None when one
        repeats; swapping two degree-(m-1) generators costs (-1)^(m-1)."""
        if len(set(edges)) != len(edges):
            return None
        inv = sum(1 for a in range(len(edges)) for b in range(a + 1, len(edges))
                  if edges[a] > edges[b])
        return tuple(sorted(edges)), sign((self.m - 1) * inv)

    def three_term_vectors(self, p, h):
        if p < 2:
            return []
        f = self.field
        sm = f.of(sign(self.m))
        tensors = sorted({t for t, _ in self.keys.get((p, h), ())})
        out = []
        for s, t, u in combinations(range(1, self.ct.n + 1), 3):
            terms = [((s, t), (t, u), f.one), ((t, u), (s, u), sm),
                     ((s, u), (s, t), sm)]
            for rest in combinations(self.edges, p - 2):
                combined = {}
                for e1, e2, c in terms:
                    norm = self._normalize((e1, e2) + rest)
                    if norm is not None:
                        vec_iadd(combined, {norm[0]: c * f.of(norm[1])})
                for tens in tensors if combined else ():
                    out.append({self.pos[(tens, mu)]: c
                                for mu, c in combined.items()})
        return out

    def quotient(self, p, h):
        if (p, h) not in self._quot:
            self._quot[(p, h)] = quotient_basis(
                self.field, len(self.keys.get((p, h), ())),
                self.symbol_vectors(p, h) + self.three_term_vectors(p, h))
        return self._quot[(p, h)]

    def dim(self, p, h):
        return len(self.quotient(p, h)[0])

    def d1_key(self, key):
        """d1 of an ambient key, as a dict over ambient keys of
        (p - 1, h + m): each edge replaced by the diagonal class inserted
        into its two slots."""
        ct, f = self.ct, self.field
        tens, mu = key
        out = {}
        for i, (s, t) in enumerate(mu):
            pref = f.of(1 if (self.m - 1) % 2 == 0 else sign(i))
            mu2 = mu[:i] + mu[i + 1:]
            for (u, v, c) in ct.pd.diagonal:
                # insert at the later slot first so the Koszul prefix of the
                # earlier insertion is unaffected
                el1 = self.insert_slot(tens, t, {v: f.one})
                for t1, c1 in el1.items():
                    el2 = self.insert_slot(t1, s, {u: f.one})
                    for t2, c2 in el2.items():
                        vec_iadd(out, {(t2, mu2): pref * c * c1 * c2})
        return out

    def d1_matrix(self, p, h):
        reps, _ = self.quotient(p, h)
        _, project = self.quotient(p - 1, h + self.m)
        cols = []
        for v in reps:
            img = {}
            for idx, c in v.items():
                for key2, c2 in self.d1_key(self.keys[(p, h)][idx]).items():
                    vec_iadd(img, {self.pos[key2]: c * c2})
            cols.append({i: c for i, c in enumerate(project(img)) if c})
        return cols

    def e2_dims(self):
        out = {}
        for (p, h) in self.keys:
            d = self.dim(p, h)
            if d and p >= 1:
                d -= rank(self.field, self.d1_matrix(p, h))
            if d and (p + 1, h - self.m) in self.keys:
                d -= rank(self.field, self.d1_matrix(p + 1, h - self.m))
            out[(p, h)] = d
        return out


def ambient_form(ct, key):
    """The ambient key (T, mu) of a basis key (G, factors): each factor on
    its component's least vertex, the unit in every other slot."""
    g, factors = key
    tens = [ct.alg.unit] * ct.n
    for comp, i in zip(gr.components(g), factors):
        tens[comp[0] - 1] = i
    return tuple(tens), g.edges


def e2_by_degree(nm, n):
    ct = CTComplex(catalog.load(nm), n)
    shift = ct.m - 1
    out = {}
    for (p, h), d in ct.e2_dims().items():
        k = h + p * shift
        out[k] = out.get(k, 0) + d
    return {k: d for k, d in out.items() if d}


# -- quotient block dims -----------------------------------------------------

def test_block_dims_three_points_sphere():
    # p-th piece: H per connected component, summed over increasing-target
    # monomials: 1, 3, 2 monomials with 3, 2, 1 components
    ct = CTComplex(catalog.load("s2"), 3)
    by_p = {}
    for (p, h) in ct.blocks():
        by_p[p] = by_p.get(p, 0) + ct.dim(p, h)
    assert {p: d for p, d in by_p.items() if d} == {0: 8, 1: 12, 2: 4}


def test_two_point_quotient_collapses_edge_column():
    ct = CTComplex(catalog.load("s2"), 2)
    # with one edge both slots are identified: dim H per internal degree
    assert ct.dim(1, 0) == 1
    assert ct.dim(1, 2) == 1
    assert ct.dim(1, 4) == 0  # w (x) w ~ w^2 (x) 1 = 0


def test_presentations_agree():
    # the distinct-target presentation against the ambient quotient; n=4 is
    # where a basis of increasing-target monomials misses x14 x23
    for nm, n in [("s2", 2), ("s2", 3), ("s3", 2), ("s3", 3), ("t2", 2),
                  ("t2", 3), ("cp2", 2), ("cp2", 3), ("s2", 4), ("s3", 4)]:
        ct = CTComplex(catalog.load(nm), n)
        oracle = AmbientOracle(ct)
        assert set(ct.blocks()) <= set(oracle.keys)
        assert {pq: oracle.dim(*pq) for pq in oracle.keys} == \
            {pq: ct.dim(*pq) for pq in oracle.keys}, (nm, n)
        assert {k: d for k, d in oracle.e2_dims().items() if d} == \
            {k: d for k, d in ct.e2_dims().items() if d}, (nm, n)


def ambient_blocks(ct):
    """Every ambient block (p, h), the ones of quotient dimension 0 too:
    forests on n vertices have 0 to n - 1 edges."""
    return [(p, h) for p in range(ct.n) for h in sorted(ct._tensors)]


@pytest.mark.parametrize("nm,n,field", [
    pytest.param(nm, n, field, id="%s-n%d-%s" % (nm, n, field.name))
    for nm in ("s1", "s2", "s3", "s4", "t2", "cp2", "s2xs2", "cs_s5")
    for n in (1, 2, 3) for field in (QQ, Field(3))
] + [pytest.param(nm, 4, QQ, id="%s-n4-Q" % nm) for nm in ("t2", "cp2")])
def test_merge_quotient_matches_relation_elimination(nm, n, field):
    # the closed-form quotient against eliminating the symbol relations:
    # the merge kills every relation, is onto (each rep projects to its own
    # coordinate), and leaves the dimension elimination finds
    ct = CTComplex(catalog.load(nm, field=field), n)
    for (p, h) in ambient_blocks(ct):
        reps, project = ct.quotient(p, h)
        keys = ct._blocks.get((p, h), [])
        rels = ct.relation_vectors(p, h)
        for v in rels:
            assert not project(v), (p, h, v)
        assert len(reps) == len(keys) == ct.dim(p, h)
        for j, v in enumerate(reps):
            assert project({ambient_form(ct, keys[i]): c
                            for i, c in v.items()}) == {j: field.one}
        # relations are elements over keys; index them by ambient position
        amb = ct.ambient_keys(p, h)
        assert len(amb) == ct.ambient_dim(p, h)
        pos = {key: i for i, key in enumerate(amb)}
        assert {ambient_form(ct, key) for key in keys} <= set(pos)
        assert ct.dim(p, h) == len(quotient_basis(
            field, len(amb),
            [{pos[key]: c for key, c in v.items()} for v in rels])[0]), (p, h)


@pytest.mark.parametrize("nm,n,field", [
    pytest.param(nm, n, field, id="%s-n%d-%s" % (nm, n, field.name))
    for nm in ("s2", "t2", "cp2", "cs_s5") for n in (1, 2, 3)
    for field in (QQ, Field(3))])
def test_relation_vectors_match_the_oracle(nm, n, field):
    # the relations built from the product table against slot insertion in
    # field scalars, on the monomials that are no-duplicate-target forests;
    # cs_s5 has odd m and classes of both parities, so both Koszul signs
    # occur
    ct = CTComplex(catalog.load(nm, field=field), n)
    oracle = AmbientOracle(ct)
    seen = 0
    for (p, h) in ambient_blocks(ct):
        keys = oracle.keys.get((p, h), [])
        # each relation lies over one monomial; re-index it by ambient key
        want = Counter(frozenset((keys[i], c) for i, c in v.items())
                       for v in oracle.symbol_vectors(p, h)
                       if keys[next(iter(v))][1] in ct._forest)
        got = Counter(frozenset(v.items()) for v in ct.relation_vectors(p, h))
        assert got == want, (p, h)
        seen += sum(got.values())
    assert seen or n == 1


@pytest.mark.parametrize("nm,n", [
    (nm, n) for nm in ("s1", "s2", "s3", "s4", "t2", "cp2", "s2xs2")
    for n in (1, 2, 3, 4)])
def test_stored_keys_are_the_quotient_basis(nm, n):
    # the quotient basis is the no-duplicate-target graph basis, key for key
    # and in order, one factor per component: the merge sends each key's
    # ambient form, its factors on the components' least vertices, to the
    # key's own coordinate
    alg = catalog.load(nm)
    ct = CTComplex(alg, n)
    bar = build_AG(alg, n, gr.NODUPTARGET)
    assert list(ct._blocks.items()) == list(bar.blocks.items())
    assert sum(len(b) for b in ct._blocks.values()) == sum(
        alg.dim ** len(gr.components(g))
        for g in gr.enumerate_graphs(n, gr.NODUPTARGET))
    for (p, h), keys in ct._blocks.items():
        _, project = ct.quotient(p, h)
        for i, key in enumerate(keys):
            assert ct.merge(ambient_form(ct, key)) == {key: alg.field.one}
            assert project({ambient_form(ct, key): alg.field.one}) == \
                {i: alg.field.one}, key


def count_d1_key_calls(monkeypatch):
    """Count the evaluations of CTComplex.d1_key per key; returns the
    Counter they are recorded in."""
    orig = CTComplex.d1_key
    calls = Counter()

    def counted(self, key):
        calls[key] += 1
        return orig(self, key)

    monkeypatch.setattr(CTComplex, "d1_key", counted)
    return calls


def test_d1_key_runs_once_per_key(monkeypatch):
    # e2_dims, d1_matrix and the duality check all read the columns cached
    # on the complex's one spectral sequence
    a = catalog.load("t2")
    ct = CTComplex(a, 3)
    calls = count_d1_key_calls(monkeypatch)
    ct.e2_dims()
    for (p, h) in ct.blocks():
        ct.d1_matrix(p, h)
    theorem1_check(a, 3, ct=ct)
    assert set(calls.values()) == {1}
    assert len(calls) == len(ct.basis.block_of)


def test_ct_e2_command_clears_d1_columns(monkeypatch, capsys):
    # a pivot row of the degree below is cleared: its d1 is never evaluated
    calls = count_d1_key_calls(monkeypatch)
    assert main(["ct-e2", "--catalog", "s2xs2", "--n", "4",
                 "--format", "json"]) == 0
    keys = len(CTComplex(catalog.load("s2xs2"), 4).basis.block_of)
    assert set(calls.values()) == {1}
    assert 0 < len(calls) < keys


def _reference_e2_dims(ct):
    """Dims of ker d1 / im d1 with each d1 block ranked on its own."""
    out = {b: ct.dim(*b) for b in ct.blocks()}
    for (p, h) in ct.blocks():
        if p >= 1:
            r = rank(ct.field, ct.d1_matrix(p, h))
            out[(p, h)] -= r
            if (p - 1, h + ct.m) in out:
                out[(p - 1, h + ct.m)] -= r
    return out


@pytest.mark.parametrize("nm,n,field", [
    pytest.param(nm, n, field, id="%s-n%d-%s" % (nm, n, field.name))
    for nm in ("s2", "s3", "t2", "cp2", "s2xs2") for n in (1, 2, 3, 4)
    for field in (QQ, Field(3), Field(101))
] + [pytest.param(nm, 5, QQ, id="%s-n5-Q" % nm) for nm in ("s2", "t2", "cp2")])
def test_e2_dims_match_block_ranks(nm, n, field):
    # the pairing of the re-keyed view against ranking every d1 block;
    # e2_dims goes first, so its cleared columns are still unevaluated
    ct = CTComplex(catalog.load(nm, field=field), n)
    assert ct.e2_dims() == _reference_e2_dims(ct)


def test_basis_is_distinct_target_monomials():
    ct = CTComplex(catalog.load("s2"), 4)
    monomials = {g.edges for blk in ct._blocks.values() for g, _ in blk}
    assert len(monomials) == factorial(4)
    assert ((1, 4), (2, 3)) in monomials
    assert all(len({t for _, t in mu}) == len(mu) for mu in monomials)


# -- differential -------------------------------------------------------------

def test_d1_inserts_diagonal_two_points():
    a = catalog.load("s2")
    ct = CTComplex(a, 2)
    w = a.labels.index("w2")
    out = ct.d1_key((gr.Graph(2, [(1, 2)]), (0,)))
    # diagonal of the even sphere: w (x) 1 + 1 (x) w
    g0 = gr.Graph(2)
    assert out == {(g0, (w, 0)): QQ.one, (g0, (0, w)): QQ.one}


def test_d1_inserts_diagonal_odd_sphere():
    a = catalog.load("s3")
    ct = CTComplex(a, 2)
    w = a.labels.index("w3")
    out = ct.d1_key((gr.Graph(2, [(1, 2)]), (0,)))
    g0 = gr.Graph(2)
    assert out == {(g0, (w, 0)): QQ.one, (g0, (0, w)): QQ.of(-1)}


def d1_well_defined(ct, p, h):
    """Slot-insertion d1 maps every relation vector of block (p, h) into
    the target relation span."""
    _, project_tgt = ct.quotient(p - 1, h + ct.m)
    d1_key = AmbientOracle(ct).d1_key
    return not any(project_tgt(apply_map(d1_key, v))
                   for v in ct.relation_vectors(p, h))


@pytest.mark.parametrize("nm,n", [("s2", 3), ("t2", 2), ("cp2", 2), ("s3", 3)])
def test_d1_well_defined_on_quotients(nm, n):
    ct = CTComplex(catalog.load(nm), n)
    for (p, h) in ambient_blocks(ct):
        if p >= 1:
            assert d1_well_defined(ct, p, h)


@pytest.mark.parametrize("nm,n,field", [
    pytest.param(nm, n, field, id="%s-n%d-%s" % (nm, n, field.name))
    for nm in ("s1", "s2", "s3", "s4", "t2", "cp2", "s2xs2")
    for n in (2, 3, 4) for field in (QQ, Field(3), Field(101))])
def test_closed_form_d1_matches_slot_insertion(nm, n, field):
    # odd and even m take both suspension signs; the reference inserts the
    # diagonal into the ambient slots of each key's ambient form and
    # projects by merging
    ct = CTComplex(catalog.load(nm, field=field), n)
    d1_key = AmbientOracle(ct).d1_key
    for (p, h) in ct.blocks():
        if p < 1:
            continue
        _, project = ct.quotient(p - 1, h + ct.m)
        assert ct.d1_matrix(p, h) == [project(d1_key(ambient_form(ct, key)))
                                      for key in ct._blocks[(p, h)]], (p, h)


@pytest.mark.parametrize("nm,n", [("s3", 3), ("t2", 3), ("cp2", 3),
                                  ("s2xs2", 3), ("t2", 4)])
def test_d1_of_ambient_keys_matches_slot_insertion(nm, n):
    # a key with factors off its components' least vertices: the closed
    # form on its merge, the sum of merge coefficient times d1 of each
    # merged basis key, must give the class slot insertion gives
    ct = CTComplex(catalog.load(nm), n)
    d1_key = AmbientOracle(ct).d1_key
    seen = 0
    for (p, h) in ambient_blocks(ct):
        if p < 1:
            continue
        stored = {ambient_form(ct, key) for key in ct._blocks.get((p, h), ())}
        _, project = ct.quotient(p - 1, h + ct.m)
        for key in ct.ambient_keys(p, h):
            if key not in stored:
                seen += 1
                closed = as_block(
                    ct.basis, apply_map(ct.d1_key, ct.merge(key)),
                    p - 1, h + ct.m)
                assert closed == project(d1_key(key)), key
    assert seen


def test_d1_squares_to_zero():
    ct = CTComplex(catalog.load("t2"), 3)
    for (p, h) in ct.blocks():
        if p < 2:
            continue
        m1 = ct.d1_matrix(p, h)
        m2 = ct.d1_matrix(p - 1, h + ct.m)
        for col in m1:
            img = {}
            for i, c in col.items():
                for i2, c2 in m2[i].items():
                    img[i2] = img.get(i2, QQ.zero) + c * c2
            assert not any(img.values())


# -- known configuration-space dimensions -------------------------------------

def test_two_points_on_even_sphere():
    assert e2_by_degree("s2", 2) == {0: 1, 2: 1}


def test_three_points_on_even_sphere():
    assert e2_by_degree("s2", 3) == {0: 1, 3: 1}


def test_two_points_on_odd_sphere():
    assert e2_by_degree("s3", 2) == {0: 1, 3: 1}


def test_three_points_on_odd_sphere():
    # fibering over the sphere with a once-punctured two-point fiber gives
    # the product of a 3-sphere and a 2-sphere
    assert e2_by_degree("s3", 3) == {0: 1, 2: 1, 3: 1, 5: 1}


def test_two_points_on_torus():
    assert e2_by_degree("t2", 2) == {0: 1, 1: 4, 2: 5, 3: 2}


def test_two_points_on_cp2():
    out = e2_by_degree("cp2", 2)
    assert out[0] == 1
    # Euler characteristic of F(CP^2, 2): chi(CP^2)^2 - chi(CP^2) = 6
    chi = sum((-1 if k % 2 else 1) * d for k, d in out.items())
    assert chi == 6


def test_vertex_guard():
    with pytest.raises(ValueError):
        CTComplex(catalog.load("s2"), 7)
