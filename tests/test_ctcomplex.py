"""Tensor-power first-page complex: quotient dims, d1, known point counts."""

import sys
from itertools import combinations
from math import factorial

import pytest

from confspace.exactlinalg import (QQ, Field, apply_map, quotient_basis, rank,
                                   vec_iadd)
from confspace import catalog, exactlinalg
from confspace import graphs as gr
from confspace.cli import main
from confspace.algebra import sign
from confspace.ctcomplex import CTComplex


class AmbientOracle:
    """The ambient presentation of the tensor-power complex, as a reference.

    Keys are every tensor times every squarefree monomial in the x_{st};
    the quotient is by the symbol relations and by the three-term relations
    x_{st} x_{tu} + (-1)^m x_{tu} x_{su} + (-1)^m x_{su} x_{st} times
    anything.  Only slot insertion comes from CTComplex: d1 of a key
    inserts the diagonal class into the two slots of each edge, apart from
    the closed form CTComplex computes."""

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

    def symbol_vectors(self, p, h):
        ct, one = self.ct, self.field.one
        out = []
        for a in ct.alg.positive_indices():
            for tens, mu in self.keys.get((p, h - ct.alg.degrees[a]), ()):
                for (s, t) in mu:
                    vec = {}
                    for t2, c in ct.insert_slot(tens, s, {a: one}).items():
                        vec_iadd(vec, {self.pos[(t2, mu)]: c})
                    for t2, c in ct.insert_slot(tens, t, {a: one}).items():
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
                el1 = ct.insert_slot(tens, t, {v: f.one})
                for t1, c1 in el1.items():
                    el2 = ct.insert_slot(t1, s, {u: f.one})
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
            assert project({keys[i]: c for i, c in v.items()}) == \
                {j: field.one}
        # relations are elements over keys; index them by ambient position
        amb = ct.ambient_keys(p, h)
        assert len(amb) == ct.ambient_dim(p, h)
        pos = {key: i for i, key in enumerate(amb)}
        assert set(keys) <= set(pos)
        assert ct.dim(p, h) == len(quotient_basis(
            field, len(amb),
            [{pos[key]: c for key, c in v.items()} for v in rels])[0]), (p, h)


@pytest.mark.parametrize("nm,n", [(nm, n) for nm in ("s2", "t2", "cp2")
                                  for n in (3, 4)])
def test_stored_keys_are_the_quotient_basis(nm, n):
    # one key per forest and factor per component, none for the rest of
    # H tensored n times
    alg = catalog.load(nm)
    ct = CTComplex(alg, n)
    comps = {g.edges: gr.components(g)
             for g in gr.enumerate_graphs(n, gr.NODUPTARGET)}
    assert sum(len(b) for b in ct._blocks.values()) == sum(
        alg.dim ** len(c) for c in comps.values())
    for (p, h), keys in ct._blocks.items():
        assert len(set(keys)) == len(keys)
        for i, (tens, mu) in enumerate(keys):
            assert len(mu) == p
            assert sum(alg.degrees[a] for a in tens) == h
            assert all(tens[v - 1] == alg.unit for comp in comps[mu]
                       for v in comp[1:]), (tens, mu)
            factors = tuple(tens[comp[0] - 1] for comp in comps[mu])
            assert ct._coord[(p, h)][(mu, factors)] == i


def count_rank_calls(monkeypatch):
    """Count the calls of exactlinalg.rank made through every confspace
    module that binds it; returns the list the calls are recorded in."""
    orig = exactlinalg.rank
    calls = []

    def counted(field, cols):
        calls.append(len(cols))
        return orig(field, cols)

    for name, mod in list(sys.modules.items()):
        if name.startswith("confspace") and getattr(mod, "rank", None) is orig:
            monkeypatch.setattr(mod, "rank", counted)
    return calls


def test_e2_ranks_each_d1_once(monkeypatch):
    ct = CTComplex(catalog.load("t2"), 3)
    calls = count_rank_calls(monkeypatch)
    ct.e2_dims()
    sources = [(p, h) for (p, h) in ct.blocks() if p >= 1 and ct.dim(p, h)]
    assert len(calls) == len(sources) == 8


def test_ct_e2_command_ranks_each_d1_once(monkeypatch, capsys):
    calls = count_rank_calls(monkeypatch)
    assert main(["ct-e2", "--catalog", "s2xs2", "--n", "4",
                 "--format", "json"]) == 0
    assert len(calls) == 15


def test_basis_is_distinct_target_monomials():
    ct = CTComplex(catalog.load("s2"), 4)
    monomials = {mu for blk in ct._blocks.values() for _, mu in blk}
    assert len(monomials) == factorial(4)
    assert ((1, 4), (2, 3)) in monomials
    assert all(len({t for _, t in mu}) == len(mu) for mu in monomials)


# -- differential -------------------------------------------------------------

def test_d1_inserts_diagonal_two_points():
    a = catalog.load("s2")
    ct = CTComplex(a, 2)
    w = a.labels.index("w2")
    out = ct.d1_key(((0, 0), ((1, 2),)))
    # diagonal of the even sphere: w (x) 1 + 1 (x) w
    assert out == {((w, 0), ()): QQ.one, ((0, w), ()): QQ.one}


def test_d1_inserts_diagonal_odd_sphere():
    a = catalog.load("s3")
    ct = CTComplex(a, 2)
    w = a.labels.index("w3")
    out = ct.d1_key(((0, 0), ((1, 2),)))
    assert out == {((w, 0), ()): QQ.one, ((0, w), ()): QQ.of(-1)}


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
    # diagonal into the ambient slots and projects by merging
    ct = CTComplex(catalog.load(nm, field=field), n)
    d1_key = AmbientOracle(ct).d1_key
    for (p, h) in ct.blocks():
        if p < 1:
            continue
        _, project = ct.quotient(p - 1, h + ct.m)
        assert ct.d1_matrix(p, h) == [project(d1_key(key))
                                      for key in ct._blocks[(p, h)]], (p, h)


@pytest.mark.parametrize("nm,n", [("s3", 3), ("t2", 3), ("cp2", 3),
                                  ("s2xs2", 3), ("t2", 4)])
def test_d1_of_ambient_keys_matches_slot_insertion(nm, n):
    # a key with factors off its components' least vertices is merged
    # before the closed form; it must give the class slot insertion gives
    ct = CTComplex(catalog.load(nm), n)
    d1_key = AmbientOracle(ct).d1_key
    seen = 0
    for (p, h) in ambient_blocks(ct):
        if p < 1:
            continue
        stored = set(ct._blocks.get((p, h), ()))
        _, project = ct.quotient(p - 1, h + ct.m)
        for key in ct.ambient_keys(p, h):
            if key not in stored:
                seen += 1
                assert project(ct.d1_key(key)) == project(d1_key(key)), key
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
