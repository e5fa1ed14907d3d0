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

from itertools import product
from math import prod

from .exactlinalg import apply_map, homology_dims, rank, transpose, vec_iadd
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
        if bar.family != gr.NODUPTARGET:
            raise ValueError("pairing is against the no-duplicate-target quotient")
        self.ct = ct
        self.bar = bar
        self.alg = ct.alg
        self.m = ct.m
        self.n = ct.n
        self._mat = {}   # (p, h) -> pairing rows, read again by adjointness
        # Poincare pairing table: basis index c -> [(b, top coefficient of
        # c b)] over the b where it is nonzero, in increasing b
        self._partners = [[] for _ in range(self.alg.dim)]
        for c, row in enumerate(self._partners):
            for b in range(self.alg.dim):
                v = self.alg.mul_basis(c, b).get(self.alg.top)
                if v:
                    row.append((b, v))

    def dual_block(self, p, h):
        return (p, (self.n - p) * self.m - h)

    def pair_keys(self, ct_key, bar_key):
        """Scalar pairing of one tensor-power key with one graph key."""
        g, factors = bar_key
        if tuple(sorted(ct_key[1])) != g.edges:
            return self.alg.field.zero
        return self._dual(ct_key).get(factors, self.alg.field.zero)

    def _dual(self, ct_key):
        """{factors: < ct_key ; factors e_g >} over the factor tuples that
        pair nonzero with ct_key, g the graph on the edge set of ct_key."""
        mu = ct_key[1]
        degs = self.alg.degrees
        f = self.alg.field
        # suspension sign of the edge monomial: trivial for even m, needed
        # for the adjointness sign to be constant on blocks when m is odd;
        # from four points on the targets of mu can be out of order, and
        # each inversion among them costs another (-1)^m
        targets = [t for (_, t) in mu]
        total = f.of(sign(self.m * (sum(targets) + sum(
            1 for a in range(len(targets)) for b in range(a + 1, len(targets))
            if targets[a] > targets[b]))))
        # pair the slots merged along the components factor by factor, with
        # the interleaving sign; a partner b_i of c_i has degree m - |c_i|,
        # so the sign depends on the combo only
        out = {}
        for combo, c0 in self.ct.merge(ct_key).items():
            l = len(combo)
            e2 = 0
            for i in range(l):
                for j in range(i + 1, l):
                    e2 += (self.m - degs[combo[i]]) * degs[combo[j]]
            s = total * f.of(sign(e2)) * c0
            for terms in product(*(self._partners[ci] for ci in combo)):
                vec_iadd(out, {tuple(b for b, _ in terms):
                               prod((x for _, x in terms), start=s)})
        return out

    def matrix(self, p, h):
        """Rows of the pairing matrix, one per block quotient basis element,
        each over the basis of the dual graph block: the pairing of the
        element's representative key, nonzero only on graph keys with its
        edge set.  The pairing of any key is the tensor power of the
        Poincare pairing (invertible, with signs) applied to its merge, so a
        relation pairs nontrivially exactly when it projects to a nonzero
        quotient vector; DualityError is raised then, since the pairing is
        not defined on the quotient."""
        if (p, h) not in self._mat:
            reps, project = self.ct.r_quotient(p, h)
            for v in self.ct.relation_vectors(p, h):
                if any(project(v)):
                    raise DualityError(
                        "relation pairs nontrivially at (%d, %d)" % (p, h))
            keys = self.ct._blocks.get((p, h), ())
            pos = self.bar.pos.get(self.dual_block(p, h), {})

            def row(i):
                g = gr.Graph(self.n, keys[i][1])
                return dict(sorted((pos[(g, fs)], x)
                                   for fs, x in self._dual(keys[i]).items()))

            self._mat[(p, h)] = [apply_map(row, v) for v in reps]
        return self._mat[(p, h)]


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
        # handed the pairing's columns, rank reduces its rows
        if rank(f, transpose(pr.matrix(p, h)).values()) != dim_t:
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
        for i, row in enumerate(lhs):
            for j, x in row.items():
                y = rhs[i].get(j)
                if not y:
                    raise DualityError("adjointness support mismatch at (%d, %d)"
                                       % (p, h))
                r = x / y
                if sigma is None:
                    sigma = r
                elif sigma != r:
                    raise DualityError("adjointness sign not constant at (%d, %d)"
                                       % (p, h))
        for i, row in enumerate(rhs):
            for j in row:
                if not lhs[i].get(j):
                    raise DualityError("adjointness support mismatch at (%d, %d)"
                                       % (p, h))
        if sigma is not None and sigma * sigma != f.one:
            raise DualityError("adjointness ratio %r is not a sign" % (sigma,))
        signs[(p, h)] = sigma
    # second-page dimension duality; the carrier has no differential
    # (poincare_data refuses one), so d'' = 0 and the graph-side E2 is H(d')
    dims = {b: len(keys) for b, keys in bar.blocks.items()}
    bar_e2 = homology_dims(f, dims, (
        ((p, q), (p + 1, q), bar.dprime_matrix(p, q)) for (p, q) in dims))
    dual_pairs = []
    for (p, h), d in ct.e2_dims().items():
        q2 = pr.dual_block(p, h)
        db = bar_e2.get(q2, 0)
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
    return [apply_map(ptgt.__getitem__, col) for col in d1]


def _compose_dprime_pair(pr, p, h):
    """Rows of (z, w) -> < z ; d' w > over the same index sets."""
    psrc = pr.matrix(p, h)
    drows = transpose(pr.bar.dprime_matrix(*pr.dual_block(p - 1, h + pr.m)))
    return [apply_map(lambda i: drows.get(i, {}), prow) for prow in psrc]
