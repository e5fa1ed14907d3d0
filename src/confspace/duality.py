"""Perfect pairing between the tensor-power complex and the graph quotient.

For a Poincare duality algebra H with top degree m, the block (p, h) of the
tensor-power complex pairs with the block (p, (n - p) m - h) of the
no-duplicate-target graph quotient.  Both sides share one basis, built
once: ``CTComplex.basis``, keys (G, factors) with one factor per component
of the forest G, which is ``Pairing``'s graph side; and

    < (c_1, ..., c_l) e_G ; (b_1, ..., b_l) e_G' > = 0 unless G = G';
    otherwise it pairs factor by factor, c_i against b_i, with the
    interleaving sign and the suspension sign of the edge monomial.

An ambient tensor-power key T (x) mu pairs as its merge along the
components of mu.  The pairing kills every block relation, is perfect on
the quotients, and intertwines the two differentials up to a sign that is
constant on each block; ``theorem1_check`` verifies all of this and reports
the discovered signs and the resulting second-page duality of dimensions.

The check runs in exact constants, as the D columns of ``spectral`` do:
the pairing rows multiply the Poincare pairing table with int
signs, d1 is ``CTComplex.d1_matrix`` (the tensor side's cached columns),
and d' and the graph-side E2 are read off one ``SpectralSequence`` of the
graph side: the carrier has no differential, so its D is d' alone.  Both
adjointness compositions are ``Field.combine`` of those rows and columns.
So each d' key is evaluated at most once, and only the adjointness ratio
of each block's first entry forms a field scalar."""

from itertools import product
from math import prod

from .exactlinalg import rank, transpose
from .algebra import sign
from .spectral import SpectralSequence


class DualityError(AssertionError):
    pass


class Pairing:
    def __init__(self, ct):
        """ct: tensor-power complex; the graph side, ``bar``, is its basis
        ``ct.basis``, with zero internal differential.  Factors pair through
        ct's Poincare pairing table, ``ct.pd.pairing``, in exact constants."""
        self.ct = ct
        self.bar = bar = ct.basis
        self.alg = ct.alg
        self.m = ct.m
        self.n = ct.n
        # d' alone is D: d'' = 0 on bar
        self._ss = SpectralSequence(bar)
        self._mat = {}   # (p, h) -> pairing rows, read again by adjointness

    def dual_block(self, p, h):
        return (p, (self.n - p) * self.m - h)

    def pair_keys(self, ct_key, bar_key):
        """Scalar pairing of one ambient tensor-power key with one graph
        key: the pairing of its merge, as a field scalar."""
        g, factors = bar_key
        if ct_key[1] != g.edges:
            return self.alg.field.zero
        return self.alg.field.of(sum(
            c * self._dual(key).get(factors, 0)
            for key, c in self.ct.merge(ct_key).items()))

    def _dual(self, key):
        """{factors: < key ; factors e_g >} over the factor tuples that pair
        nonzero with the basis key (g, combo): products of the pairing
        table with an int sign, not yet reduced."""
        g, combo = key
        degs = self.alg.degrees
        # suspension sign of the edge monomial: trivial for even m, needed
        # for the adjointness sign to be constant on blocks when m is odd;
        # from four points on the targets of g can be out of order, and
        # each inversion among them costs another (-1)^m
        targets = g.targets()
        e = self.m * (sum(targets) + sum(
            1 for a in range(len(targets)) for b in range(a + 1, len(targets))
            if targets[a] > targets[b]))
        # pair factor by factor with the interleaving sign; a partner b_i of
        # c_i has degree m - |c_i|, so the sign depends on the combo only
        l = len(combo)
        for i in range(l):
            for j in range(i + 1, l):
                e += (self.m - degs[combo[i]]) * degs[combo[j]]
        s = sign(e)
        return {tuple(b for b, _ in terms): prod((x for _, x in terms), start=s)
                for terms in product(*(self.ct.pd.pairing[ci] for ci in combo))}

    def matrix(self, p, h):
        """Rows of the pairing matrix, one per block basis key, each over the
        basis of the dual graph block: nonzero only on graph keys with the
        same graph, in exact constants (``Field.exact``).  The pairing of an
        ambient key is the tensor power of the Poincare pairing (invertible,
        with signs) applied to its merge, so a symbol relation pairs
        nontrivially exactly when it projects to a nonzero quotient vector;
        DualityError is raised then, since the pairing is not defined on
        the quotient.  Every symbol relation of the block is checked: the
        relations are read off the product table, and each projection is
        summed over exact constants and tested for zero in the field (mod
        p over F_p)."""
        if (p, h) not in self._mat:
            _, project = self.ct.r_quotient(p, h)
            for v in self.ct.relation_vectors(p, h):
                if project(v):
                    raise DualityError(
                        "relation pairs nontrivially at (%d, %d)" % (p, h))
            block_of = self.bar.block_of
            exact = self.alg.field.exact
            self._mat[(p, h)] = [
                exact(dict(sorted((block_of[(key[0], bs)][2], x)
                                  for bs, x in self._dual(key).items())))
                for key in self.ct.basis.blocks.get((p, h), ())]
        return self._mat[(p, h)]


def theorem1_check(alg, n, ct=None):
    """Full duality verification for one algebra and point count.

    Checks, per block: relations pair to zero, the induced pairing on the
    quotient is perfect, and the two differentials are adjoint up to a sign
    constant on the block.  The graph side is ``ct.basis``.  Returns a dict
    with the discovered signs, each 1, -1 or None (no entry to compare), and
    the matching second-page dimensions on both sides."""
    from .ctcomplex import CTComplex

    ct = ct or CTComplex(alg, n)
    pr = Pairing(ct)
    f = alg.field
    signs = {}
    for (p, h) in ct.blocks():
        q2 = pr.dual_block(p, h)
        dim_t = ct.dim(p, h)
        dim_b = pr.bar.block_dim(*q2)
        if dim_t != dim_b:
            raise DualityError("block dims differ at (%d, %d): %d vs %d"
                               % (p, h, dim_t, dim_b))
        if dim_t == 0:
            continue
        if rank(f, pr.matrix(p, h)) != dim_t:
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
        # both sides' rows are sparse: no entry is stored as zero.  sigma
        # is the ratio of the first entry; every entry x against its
        # partner y must then have x - sigma y = 0 in the field
        sigma = None
        for row, partner in zip(lhs, rhs):
            if row.keys() != partner.keys():
                raise DualityError("adjointness support mismatch at (%d, %d)"
                                   % (p, h))
            if sigma is None and row:
                j = next(iter(row))
                sigma = f.lift(f.of(row[j]) / f.of(partner[j]))
            if f.exact({j: x - sigma * partner[j] for j, x in row.items()}):
                raise DualityError("adjointness sign not constant at (%d, %d)"
                                   % (p, h))
        if sigma is not None:
            if f.exact({0: sigma * sigma - 1}):
                raise DualityError("adjointness ratio %r is not a sign"
                                   % (f.of(sigma),))
            # a residue p - 1 over F_p is the sign -1
            sigma = -1 if f.exact({0: sigma - 1}) else 1
        signs[(p, h)] = sigma
    # second-page dimension duality; the carrier has no differential
    # (poincare_data refuses one), so d'' = 0 and the graph-side E2 is H(d'),
    # counted off the pairing of the graph side's sequence
    dual_pairs = []
    for (p, h), d in ct.e2_dims().items():
        q2 = pr.dual_block(p, h)
        db = pr._ss.e_dim(2, *q2)
        if d or db:
            dual_pairs.append(((p, h), q2, d, db))
        if d != db:
            raise DualityError("second-page dims differ: T%r=%d, quotient%r=%d"
                               % ((p, h), d, q2, db))
    return {"signs": signs, "e2_pairs": dual_pairs}


def _compose_pair_d1(pr, p, h):
    """Rows of (z, w) -> < d1 z ; w >, one per source quotient basis
    element, over the graph block dual to the d1 target."""
    d1 = pr.ct.d1_matrix(p, h)
    ptgt = pr.matrix(p - 1, h + pr.m)
    return [pr.alg.field.combine(ptgt.__getitem__, col) for col in d1]


def _compose_dprime_pair(pr, p, h):
    """Rows of (z, w) -> < z ; d' w > over the same index sets: d' out of
    the graph block dual to the d1 target, read off the graph side's
    sequence."""
    psrc = pr.matrix(p, h)
    drows = transpose(pr._ss.block_columns(*pr.dual_block(p - 1, h + pr.m)))
    return [pr.alg.field.combine(lambda i: drows.get(i, {}), prow)
            for prow in psrc]
