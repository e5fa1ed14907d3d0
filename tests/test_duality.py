"""Perfect pairing between the tensor-power complex and the graph quotient."""

from itertools import product

import pytest

from confspace.exactlinalg import QQ, Field
from confspace import graphs as gr
from confspace import catalog
from confspace.algebra import Algebra, sign
from confspace.ctcomplex import CTComplex
from confspace.bgcomplex import build_AG
from confspace.duality import Pairing, theorem1_check, DualityError


def make_pairing(nm, n, field=QQ):
    a = catalog.load(nm, field=field)
    return a, Pairing(CTComplex(a, n), build_AG(a, n, gr.NODUPTARGET))


def _reference_pair_keys(pr, ct_key, bar_key):
    """The pairing of one tensor key with one graph key, evaluated from
    scratch: merge the slots of ct_key along the components of the graph
    (Koszul sign of the reordering, suspension sign of the edge monomial),
    then pair factor by factor against the graph key's factors with the
    interleaving sign."""
    alg, f = pr.alg, pr.alg.field
    degs = alg.degrees
    tens, mu = ct_key
    g, factors = bar_key
    if tuple(sorted(mu)) != g.edges:
        return f.zero
    comps = gr.components(g)
    order = [v for comp in comps for v in comp]
    e = sum(degs[tens[order[a] - 1]] * degs[tens[order[b] - 1]]
            for a in range(pr.n) for b in range(a + 1, pr.n)
            if order[a] > order[b])
    targets = [t for (_, t) in mu]
    e += pr.m * (sum(targets) + sum(
        1 for a in range(len(targets)) for b in range(a + 1, len(targets))
        if targets[a] > targets[b]))
    merged = []
    for comp in comps:
        el = {alg.unit: f.one}
        for v in comp:
            el = alg.multiply(el, {tens[v - 1]: f.one})
        merged.append(sorted(el.items()))
    out = f.zero
    for terms in product(*merged):
        combo = [i for i, _ in terms]
        val = f.of(sign(sum(degs[factors[i]] * degs[combo[j]]
                            for i in range(len(comps))
                            for j in range(i + 1, len(comps)))))
        for (ci, c), bi in zip(terms, factors):
            val = val * c * alg.mul_basis(ci, bi).get(alg.top, f.zero)
        out = out + val
    return f.of(sign(e)) * out


# -- key-level pairing --------------------------------------------------------

def test_pair_keys_literal_two_points():
    a, pr = make_pairing("s2", 2)
    w = a.labels.index("w2")
    g1 = gr.Graph(2, [(1, 2)])
    # merged unit slot pairs against the top class
    assert pr.pair_keys(((0, 0), ((1, 2),)), (g1, (w,))) == QQ.one
    # w * w = 0 kills the pairing
    assert pr.pair_keys(((0, w), ((1, 2),)), (g1, (w,))) == QQ.zero
    # mismatched edge sets never pair
    assert pr.pair_keys(((0, w), ()), (g1, (0,))) == QQ.zero


def test_pair_keys_discrete_graph_slotwise():
    a, pr = make_pairing("s2", 2)
    w = a.labels.index("w2")
    g0 = gr.Graph(2)
    assert pr.pair_keys(((w, w), ()), (g0, (0, 0))) == QQ.one
    assert pr.pair_keys(((w, 0), ()), (g0, (0, w))) == QQ.one
    assert pr.pair_keys(((w, 0), ()), (g0, (w, 0))) == QQ.zero


def test_dual_block_arithmetic():
    _, pr = make_pairing("s2", 3)
    # (p, h) pairs with (p, (n - p) m - h)
    assert pr.dual_block(0, 2) == (0, 4)
    assert pr.dual_block(1, 2) == (1, 2)
    assert pr.dual_block(2, 0) == (2, 2)


@pytest.mark.parametrize("nm, n, p", [
    (nm, 3, p) for nm in ("s2", "s3", "t2", "cp2") for p in (None, 3)]
    + [("s2", 4, None)])
def test_pair_keys_matches_reference(nm, n, p):
    _, pr = make_pairing(nm, n, Field(p))
    pairs = []
    for (b, h) in pr.ct.blocks():
        by_edges = {}
        for bkey in pr.bar.blocks.get(pr.dual_block(b, h), []):
            by_edges.setdefault(bkey[0].edges, []).append(bkey)
        for key in pr.ct._blocks[(b, h)]:
            pairs += [(key, bkey) for bkey in by_edges.get(key[1], ())]
    nonzero = 0
    for key, bkey in pairs:
        x = pr.pair_keys(key, bkey)
        assert x == _reference_pair_keys(pr, key, bkey), (key, bkey)
        nonzero += bool(x)
    assert nonzero


@pytest.mark.parametrize("nm, n, p", [
    (nm, n, p) for nm in ("s2", "s3", "t2", "cp2") for n in (2, 3)
    for p in (None, 3)] + [("t2", 4, None)])
def test_matrix_rows_pair_the_quotient_representatives(nm, n, p):
    _, pr = make_pairing(nm, n, Field(p))
    for (b, h) in pr.ct.blocks():
        keys = pr.ct._blocks[(b, h)]
        bar_keys = pr.bar.blocks.get(pr.dual_block(b, h), [])
        reps, _ = pr.ct.r_quotient(b, h)
        rows = pr.matrix(b, h)
        assert len(rows) == len(reps)
        for v, row in zip(reps, rows):
            (i,) = v
            assert row == {j: x for j, bkey in enumerate(bar_keys)
                           if (x := pr.pair_keys(keys[i], bkey))}


@pytest.mark.parametrize("nm, block", [("t2", (1, 2)), ("s3", (1, 6))])
def test_unsigned_merge_breaks_the_relation_check(monkeypatch, nm, block):
    # without the Koszul sign of grouping the slots by component, merging
    # no longer kills the symbol relations
    merge = CTComplex.merge

    def unsigned(self, key):
        tens, mu = key
        degs = self.alg.degrees
        s = self.field.of(sign(sum(degs[tens[a]] * degs[tens[b]]
                                   for a, b in self._forest[mu][1])))
        return {fs: s * c for fs, c in merge(self, key).items()}

    monkeypatch.setattr(CTComplex, "merge", unsigned)
    with pytest.raises(DualityError) as e:
        theorem1_check(catalog.load(nm), 3)
    assert str(e.value) == "relation pairs nontrivially at (%d, %d)" % block


def test_pairing_merges_each_key_once(monkeypatch):
    calls = [0]
    multiply = Algebra.multiply

    def counted(self, u, v):
        calls[0] += 1
        return multiply(self, u, v)

    monkeypatch.setattr(Algebra, "multiply", counted)
    a = catalog.load("t2")
    ct = CTComplex(a, 3)
    keys = sum(ct.ambient_dim(*b) for b in ct.blocks())
    assert keys == 384
    assert theorem1_check(a, 3, ct=ct)["e2_pairs"]
    # n merging products per tensor key at most, however many graph keys
    # it pairs with
    assert 0 < calls[0] <= 3 * keys


# -- guards ---------------------------------------------------------------------

def test_pairing_requires_quotient_family():
    a = catalog.load("s2")
    with pytest.raises(ValueError):
        Pairing(CTComplex(a, 2), build_AG(a, 2, gr.FULL))


def test_pairing_requires_shared_algebra():
    with pytest.raises(ValueError):
        Pairing(CTComplex(catalog.load("s2"), 2),
                build_AG(catalog.load("s3"), 2, gr.NODUPTARGET))


def test_degenerate_blocks_rejected():
    # mismatched point counts break the block-dimension equality
    a = catalog.load("s2")
    ct = CTComplex(a, 2)
    bar = build_AG(a, 3, gr.NODUPTARGET)
    with pytest.raises(DualityError):
        theorem1_check(a, 2, ct=ct, bar=bar)


# -- full verification ------------------------------------------------------------

@pytest.mark.parametrize("nm", ["s2", "s3", "t2", "cp2"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_duality_verified(nm, n):
    a = catalog.load(nm)
    out = theorem1_check(a, n)
    # adjointness sign depends only on the column: (-1)^(p-1) for p edges
    for (p, h), s in out["signs"].items():
        if s is None:
            continue
        assert s == QQ.of(sign(p - 1)), (nm, n, p, h)
    # every nonzero second-page block is mirrored with equal dimension
    assert out["e2_pairs"]
    for (ph, q2, d, db) in out["e2_pairs"]:
        assert d == db


def test_relations_orthogonal_everywhere():
    a, pr = make_pairing("t2", 3)
    for (p, h) in pr.ct.blocks():
        keys = pr.ct._blocks[(p, h)]
        bar_keys = pr.bar.blocks.get(pr.dual_block(p, h), [])
        for v in pr.ct.relation_vectors(p, h):
            for bkey in bar_keys:
                assert not sum((c * pr.pair_keys(keys[i], bkey)
                                for i, c in v.items()), QQ.zero)


def test_pairing_matrix_square_and_full_rank():
    from confspace.exactlinalg import rank
    a, pr = make_pairing("cp2", 2)
    for (p, h) in pr.ct.blocks():
        d = pr.ct.dim(p, h)
        if d == 0:
            continue
        rows = pr.matrix(p, h)
        assert len(rows) == d
        assert pr.bar.block_dim(*pr.dual_block(p, h)) == d
        assert all(j < d for row in rows for j in row)
        # the rows taken as columns: the transpose has the same rank
        assert rank(a.field, rows) == d
