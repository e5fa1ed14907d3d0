"""Perfect pairing between the tensor-power complex and the graph quotient.

For a Poincare duality algebra H with top degree m, the block (p, h) of the
tensor-power complex pairs with the block (p, (n - p) m - h) of the
no-duplicate-target graph quotient.  Both sides are indexed by the same
graphs: a tensor-power key T (x) mu has a distinct-target edge set mu, and

    < T (x) mu ; (b_1, ..., b_l) e_G > = 0 unless mu and G have the same
    edge set; otherwise merge the n tensor slots of T along the components
    of G (with the Koszul sign of the reordering), then pair factor by
    factor against b_1, ..., b_l with the interleaving sign.

The pairing kills every block relation, is perfect on the quotients, and
intertwines the two differentials up to a sign that is constant on each
block; ``theorem1_check`` verifies all of this and reports the discovered
signs and the resulting second-page duality of dimensions."""

from .exactlinalg import Matrix, rank, vec_iadd
from .algebra import sign
from . import graphs as gr


class DualityError(AssertionError):
    pass


class Pairing:
    def __init__(self, ct, bar):
        """ct: tensor-power complex; bar: no-duplicate-target bicomplex on
        the same algebra and n, with zero internal differential."""
        if ct.alg is not bar.carrier:
            raise ValueError("the two complexes must share the algebra")
        if bar.kind != "ag-bar":
            raise ValueError("pairing is against the no-duplicate-target quotient")
        self.ct = ct
        self.bar = bar
        self.alg = ct.alg
        self.m = ct.m
        self.n = ct.n
        self._mat = {}   # (p, h) -> pairing matrix, read again by adjointness

    def dual_block(self, p, h):
        return (p, (self.n - p) * self.m - h)

    def pair_keys(self, ct_key, bar_key):
        """Scalar pairing of one tensor-power key with one graph key."""
        tens, mu = ct_key
        g, factors = bar_key
        if tuple(sorted(mu)) != g.edges:
            return self.alg.field.zero
        comps = gr.components(g)
        degs = self.alg.degrees
        f = self.alg.field
        # merge the tensor slots along components: Koszul sign of reordering
        # slot order 1..n into component-grouped order
        order = [v for comp in comps for v in comp]
        e = 0
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if order[a] > order[b]:
                    e += degs[tens[order[a] - 1]] * degs[tens[order[b] - 1]]
        merged = []
        # suspension sign of the edge monomial: trivial for even m, needed
        # for the adjointness sign to be constant on blocks when m is odd;
        # from four points on the targets of mu can be out of order, and
        # each inversion among them costs another (-1)^m
        targets = [t for (_, t) in mu]
        e += self.m * (sum(targets) + sum(
            1 for a in range(len(targets)) for b in range(a + 1, len(targets))
            if targets[a] > targets[b]))
        total = f.of(sign(e))
        for comp in comps:
            el = {self.alg.unit: f.one}
            for v in comp:
                el = self.alg.multiply(el, {tens[v - 1]: f.one})
            merged.append(el)
        # factor-by-factor pairing with the interleaving sign
        l = len(comps)
        out = f.zero
        for combo, c0 in _expand(merged, f):
            e2 = 0
            for i in range(l):
                for j in range(i + 1, l):
                    e2 += degs[factors[i]] * degs[combo[j]]
            s = f.of(sign(e2))
            val = f.one
            for ci, bi in zip(combo, factors):
                prod = self.alg.mul_basis(ci, bi)
                v = prod.get(self.alg.top, f.zero)
                if not v:
                    val = f.zero
                    break
                val = val * v
            if val:
                out = out + c0 * s * val
        return total * out

    def _key_rows(self, p, h):
        """Pairing of every key of block (p, h) with the dual graph block:
        one sparse row per key, over the graph keys on the same edge set
        (no other graph key pairs with it)."""
        bar_keys = self.bar.blocks.get(self.dual_block(p, h), [])
        by_edges = {}
        for j, bkey in enumerate(bar_keys):
            by_edges.setdefault(bkey[0].edges, []).append((j, bkey))
        rows = []
        for key in self.ct._blocks.get((p, h), ()):
            row = {}
            for j, bkey in by_edges.get(key[1], ()):
                x = self.pair_keys(key, bkey)
                if x:
                    row[j] = x
            rows.append(row)
        return rows, len(bar_keys)

    def matrix(self, p, h):
        """Pairing matrix: rows = block quotient basis, columns = basis of
        the dual graph block.  Raises DualityError when a relation of the
        block pairs nontrivially, since the pairing is then not defined on
        the quotient."""
        if (p, h) not in self._mat:
            rows, ncols = self._key_rows(p, h)
            for v in self.ct.relation_vectors(p, h):
                if _combine(rows, v):
                    raise DualityError(
                        "relation pairs nontrivially at (%d, %d)" % (p, h))
            reps, _ = self.ct.r_quotient(p, h)
            self._mat[(p, h)] = Matrix(self.alg.field, len(reps), ncols,
                                       [_combine(rows, v) for v in reps])
        return self._mat[(p, h)]


def _combine(rows, vec):
    """The sparse combination sum_i vec[i] rows[i]."""
    out = {}
    for i, c in vec.items():
        vec_iadd(out, rows[i], c)
    return out


def _expand(factor_elements, f):
    """All index combinations of a list of sparse elements, with coefficients."""
    combos = [((), f.one)]
    for el in factor_elements:
        nxt = []
        for tup, c in combos:
            for i, ci in sorted(el.items()):
                nxt.append((tup + (i,), c * ci))
        combos = nxt
    return combos


def theorem1_check(alg, n, ct=None, bar=None):
    """Full duality verification for one algebra and point count.

    Checks, per block: relations pair to zero, the induced pairing on the
    quotient is perfect, and the two differentials are adjoint up to a sign
    constant on the block.  Returns a dict with the discovered signs and the
    matching second-page dimensions on both sides."""
    from .ctcomplex import CTComplex
    from .bgcomplex import build_AG

    ct = ct or CTComplex(alg, n)
    bar = bar or build_AG(alg, n, gr.NODUPTARGET)
    pr = Pairing(ct, bar)
    f = alg.field
    signs = {}
    for (p, h) in ct.blocks():
        q2 = pr.dual_block(p, h)
        dim_t = ct.dim(p, h)
        dim_b = bar.block_dim(*q2)
        if dim_t != dim_b:
            raise DualityError("block dims differ at (%d, %d): %d vs %d"
                               % (p, h, dim_t, dim_b))
        if dim_t == 0:
            continue
        if rank(pr.matrix(p, h)) != dim_t:
            raise DualityError("pairing degenerate at (%d, %d)" % (p, h))
        signs[(p, h)] = None
    # adjointness: < d1 z ; w > = sigma < z ; d' w > with sigma constant per
    # source block of d1
    for (p, h) in ct.blocks():
        if p == 0 or ct.dim(p, h) == 0:
            continue
        tgt = (p - 1, h + ct.m)
        if ct.dim(*tgt) == 0:
            continue
        lhs = _compose_pair_d1(pr, p, h)
        rhs = _compose_dprime_pair(pr, p, h)
        sigma = None
        for i, row in enumerate(lhs.rows):
            for j, x in row.items():
                y = rhs.entry(i, j)
                if not y:
                    raise DualityError("adjointness support mismatch at (%d, %d)"
                                       % (p, h))
                r = x / y
                if sigma is None:
                    sigma = r
                elif sigma != r:
                    raise DualityError("adjointness sign not constant at (%d, %d)"
                                       % (p, h))
        for i, row in enumerate(rhs.rows):
            for j in row:
                if not lhs.entry(i, j):
                    raise DualityError("adjointness support mismatch at (%d, %d)"
                                       % (p, h))
        if sigma is not None and sigma * sigma != f.one:
            raise DualityError("adjointness ratio %r is not a sign" % (sigma,))
        signs[(p, h)] = sigma
    # second-page dimension duality; the carrier has no differential
    # (poincare_data refuses one), so d'' = 0 and the graph-side E2 is H(d')
    ranks = {}

    def dprime_rank(p, q):
        if (p, q) not in ranks:
            ranks[(p, q)] = rank(bar.dprime_matrix(p, q))
        return ranks[(p, q)]

    dual_pairs = []
    for (p, h), d in ct.e2_dims().items():
        q2 = pr.dual_block(p, h)
        p2, q = q2
        db = bar.block_dim(p2, q) - dprime_rank(p2, q) - dprime_rank(p2 - 1, q)
        if d or db:
            dual_pairs.append(((p, h), q2, d, db))
        if d != db:
            raise DualityError("second-page dims differ: T%r=%d, quotient%r=%d"
                               % ((p, h), d, q2, db))
    return {"signs": signs, "e2_pairs": dual_pairs}


def _compose_pair_d1(pr, p, h):
    """Matrix of (z, w) -> < d1 z ; w >: rows = source quotient basis,
    cols = graph block dual to the d1 target."""
    d1 = pr.ct.d1_matrix(p, h)
    ptgt = pr.matrix(p - 1, h + pr.m)
    rows = [{} for _ in range(d1.ncols)]
    for i, row in enumerate(d1.rows):
        for j, c in row.items():
            vec_iadd(rows[j], ptgt.rows[i], c)
    return Matrix(pr.alg.field, d1.ncols, ptgt.ncols, rows)


def _compose_dprime_pair(pr, p, h):
    """Matrix of (z, w) -> < z ; d' w > over the same index sets."""
    psrc = pr.matrix(p, h)
    dmat = pr.bar.dprime_matrix(*pr.dual_block(p - 1, h + pr.m))
    rows = [_combine(dmat.rows, prow) for prow in psrc.rows]
    return Matrix(pr.alg.field, psrc.nrows, dmat.ncols, rows)
