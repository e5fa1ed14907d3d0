"""Perfect pairing between the tensor-power complex and the graph quotient."""

from collections import Counter
from itertools import product

import pytest

from confspace.exactlinalg import QQ, Field, rank
from confspace import graphs as gr
from confspace import catalog
from confspace.algebra import sign
from confspace.ctcomplex import CTComplex
from confspace.bgcomplex import Bicomplex
from confspace.duality import Pairing, theorem1_check, DualityError

from refvectors import as_block


def make_pairing(nm, n, field=QQ):
    a = catalog.load(nm, field=field)
    return a, Pairing(CTComplex(a, n))


def ambient_form(ct, key):
    """The ambient key (T, mu) of a basis key (G, factors): each factor on
    its component's least vertex, the unit in every other slot."""
    g, factors = key
    tens = [ct.alg.unit] * ct.n
    for comp, i in zip(gr.components(g), factors):
        tens[comp[0] - 1] = i
    return tuple(tens), g.edges


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
    # every ambient key, not only the stored quotient basis keys
    for (b, h) in product(range(n), pr.ct._tensors):
        by_edges = {}
        for bkey in pr.bar.blocks.get(pr.dual_block(b, h), []):
            by_edges.setdefault(bkey[0].edges, []).append(bkey)
        for key in pr.ct.ambient_keys(b, h):
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
            amb = ambient_form(pr.ct, keys[i])
            assert row == {j: x for j, bkey in enumerate(bar_keys)
                           if (x := pr.pair_keys(amb, bkey))}
            assert row == {j: x for j, bkey in enumerate(bar_keys)
                           if (x := _reference_pair_keys(pr, amb, bkey))}


@pytest.mark.parametrize("nm, block, p", [
    pytest.param(nm, block, p, id="%s-block%d%s" % (
        nm, i, "" if p is None else "-F%d" % p))
    for i, (nm, block) in enumerate((("t2", (1, 2)), ("s3", (1, 6))))
    for p in (None, 3, 101)])
def test_unsigned_merge_breaks_the_relation_check(monkeypatch, nm, block, p):
    # without the Koszul sign of grouping the slots by component, merging
    # no longer kills the symbol relations, over Q and mod p alike
    merge = CTComplex.merge

    def unsigned(self, key):
        tens, mu = key
        degs = self.alg.degrees
        s = sign(sum(degs[tens[a]] * degs[tens[b]]
                     for a, b in self._forest[mu][1]))
        return {gkey: s * c for gkey, c in merge(self, key).items()}

    monkeypatch.setattr(CTComplex, "merge", unsigned)
    with pytest.raises(DualityError) as e:
        theorem1_check(catalog.load(nm, field=Field(p)), 3)
    assert str(e.value) == "relation pairs nontrivially at (%d, %d)" % block


def test_pairing_merges_each_key_once(monkeypatch):
    # count the table products merge reads, not the ones the relations
    # and d1 read
    calls, merging = [0], [False]
    a = catalog.load("t2")
    merge, product = CTComplex.merge, a.mul_basis

    def counted_merge(self, key):
        merging[0] = True
        try:
            return merge(self, key)
        finally:
            merging[0] = False

    def counted_product(i, j):
        calls[0] += merging[0]
        return product(i, j)

    monkeypatch.setattr(CTComplex, "merge", counted_merge)
    monkeypatch.setattr(a, "mul_basis", counted_product)
    ct = CTComplex(a, 3)
    keys = sum(ct.ambient_dim(p, h) for p in range(3) for h in ct._tensors)
    assert keys == 384
    assert theorem1_check(a, 3, ct=ct)["e2_pairs"]
    # n merging products per tensor key at most, however many graph keys
    # it pairs with; a key is merged once, with n - 1 products at most (t2
    # multiplies basis elements to single terms)
    assert 0 < calls[0] <= 3 * keys
    assert calls[0] <= 2 * len(ct._merged)


# -- guards ---------------------------------------------------------------------

def test_pairing_reads_its_graph_side_off_the_tensor_basis():
    ct = CTComplex(catalog.load("s2"), 3)
    pr = Pairing(ct)
    assert pr.bar is ct.basis
    assert pr.bar.family == gr.NODUPTARGET and pr.bar.carrier is ct.alg


def test_degenerate_blocks_rejected(monkeypatch):
    # a graph block one key larger than its dual tensor block breaks the
    # block-dimension equality before any pairing is formed
    a = catalog.load("s2")
    ct = CTComplex(a, 2)
    block_dim = ct.basis.block_dim
    monkeypatch.setattr(ct.basis, "block_dim",
                        lambda p, q: block_dim(p, q) + 1)
    with pytest.raises(DualityError, match="block dims differ"):
        theorem1_check(a, 2, ct=ct)


# -- full verification ------------------------------------------------------------

@pytest.mark.parametrize("nm, n", [
    pytest.param(nm, n, id="%d-%s" % (n, nm)) for n in (2, 3, 4)
    for nm in ("s2", "s3", "t2", "cp2", "s2xs2", "cs_s5")]
    + [pytest.param(nm, 5, id="5-%s" % nm) for nm in ("s2", "s3")])
def test_duality_verified(nm, n):
    # cs_s5 has odd m and classes of both parities
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


@pytest.mark.parametrize("nm, n, p", [
    pytest.param(nm, n, p, id="%d-%s-F%d" % (n, nm, p)) for p in (3, 101)
    for n in (3, 4) for nm in ("t2", "s2xs2", "cp2")])
def test_duality_verified_over_fp(nm, n, p):
    # the relation check sums lifted residues: a relation's two slot terms
    # lift to c and p - c, so its sums vanish only once reduced mod p
    f = Field(p)
    out = theorem1_check(catalog.load(nm, field=f), n)
    for (b, h), s in out["signs"].items():
        assert s is None or s == f.of(sign(b - 1)), (b, h)
    assert out["e2_pairs"]


@pytest.mark.parametrize("case, message", [
    ("extra entry", "support mismatch"), ("missing entry", "support mismatch"),
    ("one entry rescaled", "not constant"), ("block doubled", "not a sign")])
def test_adjointness_check_compares_each_row(monkeypatch, case, message):
    # the graph side of the first block with a row of two or more entries,
    # made wrong: the check must say how
    import confspace.duality as duality
    real = duality._compose_dprime_pair
    broke = []

    def broken(pr, p, h):
        rows = real(pr, p, h)
        i = next((i for i, r in enumerate(rows) if len(r) > 1), None)
        if broke or i is None:
            return rows
        broke.append((p, h))
        row = rows[i]
        j0 = next(iter(row))
        if case == "extra entry":
            rows[i] = {**row, max(row) + 1: QQ.one}
        elif case == "missing entry":
            rows[i] = {j: x for j, x in row.items() if j != j0}
        elif case == "one entry rescaled":
            rows[i] = {**row, j0: 3 * row[j0]}
        else:
            rows = [{j: 2 * x for j, x in r.items()} for r in rows]
        return rows

    monkeypatch.setattr(duality, "_compose_dprime_pair", broken)
    with pytest.raises(DualityError, match=message):
        theorem1_check(catalog.load("t2"), 3)
    assert broke


def test_relations_orthogonal_everywhere():
    # every ambient block, the ones of quotient dimension 0 too; relations
    # are elements over keys
    a, pr = make_pairing("t2", 3)
    for p in range(3):
        for h in pr.ct._tensors:
            bar_keys = pr.bar.blocks.get(pr.dual_block(p, h), [])
            for v in pr.ct.relation_vectors(p, h):
                for bkey in bar_keys:
                    assert not sum((c * pr.pair_keys(key, bkey)
                                    for key, c in v.items()), QQ.zero)


def test_pairing_matrix_square_and_full_rank():
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


# -- one page engine per side ---------------------------------------------------

@pytest.mark.parametrize("p", [None, 101], ids=["Q", "F101"])
def test_theorem1_check_evaluates_each_key_once(monkeypatch, p):
    # d' and d1 are the cached D columns of each side's spectral sequence:
    # no key image is evaluated twice, columns the graph side's pairing
    # clears and adjointness does not read are never evaluated, d'' (zero
    # on a carrier with no differential) is never evaluated, and no field
    # scalar is formed from a column or a pairing row
    a = catalog.load("t2", field=Field(p))
    ct = CTComplex(a, 4)
    dprime, dsecond, d1 = Counter(), Counter(), Counter()
    scalars = []
    dprime_key, d1_key = Bicomplex.dprime_key, CTComplex.d1_key
    dsecond_key = Bicomplex.dsecond_key
    field_scalars = Field.scalars

    def counted_dprime(self, key):
        dprime[key] += 1
        return dprime_key(self, key)

    def counted_dsecond(self, key):
        dsecond[key] += 1
        return dsecond_key(self, key)

    def counted_d1(self, key):
        d1[key] += 1
        return d1_key(self, key)

    def counted_scalars(self, *args):
        scalars.append(args)
        return field_scalars(self, *args)

    monkeypatch.setattr(Bicomplex, "dprime_key", counted_dprime)
    monkeypatch.setattr(Bicomplex, "dsecond_key", counted_dsecond)
    monkeypatch.setattr(CTComplex, "d1_key", counted_d1)
    monkeypatch.setattr(Field, "scalars", counted_scalars)
    assert theorem1_check(a, 4, ct=ct)["e2_pairs"]
    assert set(dprime.values()) == {1} and set(d1.values()) == {1}
    assert set(dprime) <= set(ct.basis.block_of)
    assert len(dprime) < len(ct.basis.block_of)
    assert not dsecond
    assert not scalars


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("nm", ["s2", "s3", "t2", "cp2", "s2xs2", "cs_s5"])
def test_graph_side_e2_matches_ranked_dprime(nm, n, field):
    # the graph-side E2 the duality check reads off its sequence's pairing,
    # against H(d') with each d' block ranked on its own
    a, pr = make_pairing(nm, n, field)
    bar = pr.bar
    want = {b: len(keys) for b, keys in bar.blocks.items()}
    for (p, q), keys in bar.blocks.items():
        r = rank(field, [as_block(bar, bar.dprime_key(k), p + 1, q)
                         for k in keys])
        want[(p, q)] -= r
        if (p + 1, q) in want:
            want[(p + 1, q)] -= r
    assert pr._ss.page(2) == want
    assert any(want.values())
