"""Graph-indexed bicomplexes over a graded algebra or CDGA carrier.

For a graph family F on vertices {1..n}, the chain group is the direct sum
over G in F of A tensored once per connected component, tagged by the edge
monomial e_G.  Basis keys are pairs ``(graph, factors)`` with ``factors`` a
tuple of carrier basis indices, one per component of the graph (components
ordered by smallest vertex).  Blocks are keyed (p, q) with p the edge count
and q the total internal degree; d' adds an edge (p+1, q), d'' applies the
carrier differential (p, q+1).

Three variants:

* ``build_AG``  - the full family, the no-duplicate-target quotient, or the
  duplicate-target subcomplex (the acyclic edge-relation ideal).
* ``build_C``   - the reduced bicomplex over graphs with vertex 1 isolated
  and no duplicate targets; the first tensor factor is unrestricted, all
  later factors have positive degree.
* ``phi_bar``   - the quasi-isomorphism embedding the reduced bicomplex into
  the no-duplicate-target quotient.
"""

from .exactlinalg import apply_map, vec_iadd
from .algebra import sign
from . import graphs as gr


class Bicomplex:
    """Blocks, basis keys and the two differentials of one bicomplex.

    family is the graph family indexing it: FULL, NODUPTARGET (the
    quotient by the duplicate-target ideal) or JFAMILY (that ideal) for the
    graph-family complexes, HFAMILY for the reduced one."""

    def __init__(self, carrier, n, family, qmax=None):
        self.carrier = carrier
        self.field = carrier.field
        self.n = n
        self.family = family
        self.qmax = qmax
        self.blocks = {}   # (p, q) -> list of keys
        self.pos = {}      # (p, q) -> {key: index}
        self.block_of = {}  # key -> (p, q)
        self._build_basis()
        self._dp_cols = {}
        self._ds_cols = {}

    # -- basis --------------------------------------------------------------
    def _build_basis(self):
        """Keys of every block, graph by graph.  Under a q-window a prefix of
        total degree q is extended only by the indices of degree <= qmax - q,
        in index order, so each block holds the same keys in the same order
        as without the window and no key past it is built."""
        degs = self.carrier.degrees
        every = list(range(self.carrier.dim))
        positive = self.carrier.positive_indices()
        fitting = {}   # (positive only, budget) -> options of degree <= budget

        def options(pos_only, q):
            opts = positive if pos_only else every
            if self.qmax is None:
                return opts
            budget = self.qmax - q
            if (pos_only, budget) not in fitting:
                fitting[(pos_only, budget)] = [i for i in opts
                                               if degs[i] <= budget]
            return fitting[(pos_only, budget)]

        for g in gr.enumerate_graphs(self.n, self.family):
            p = g.edge_count
            stack = [((), 0)]
            for slot in range(len(gr.components(g))):
                # the reduced kind keeps every later factor positive
                pos_only = slot > 0 and self.family == gr.HFAMILY
                stack = [(tup + (i,), q + degs[i]) for tup, q in stack
                         for i in options(pos_only, q)]
            for tup, q in stack:
                key = (g, tup)
                blk = self.blocks.setdefault((p, q), [])
                self.pos.setdefault((p, q), {})[key] = len(blk)
                blk.append(key)
                self.block_of[key] = (p, q)

    def block_dim(self, p, q):
        return len(self.blocks.get((p, q), ()))

    # -- differentials on single keys ---------------------------------------
    def _pair_term(self, key, i, j):
        """Multiplication by the edge generator e_{ij}: element dict over keys.

        This is the single-edge summand of d'; for the reduced bicomplex it
        applies the three-term rewriting that keeps later factors positive."""
        g, factors = key
        res = gr.add_edge(g, i, j)
        if res is gr.ZERO:
            return {}
        g2, esign = res
        if not gr.in_family(g2, self.family):
            return {}
        if self.family == gr.HFAMILY:
            return self._pair_term_reduced(g, factors, i, j, g2, esign)
        degs = self.carrier.degrees
        f = self.field
        s = gr.component_of(g, i)
        t = gr.component_of(g, j)
        if s == t:
            return {(g2, factors): f.of(esign)}
        if s > t:
            s, t = t, s
        tau = sum(degs[factors[r]] for r in range(s + 1, t)) * degs[factors[t]]
        coeff = f.of(esign * sign(tau))
        prod = self.carrier.mul_basis(factors[s], factors[t])
        out = {}
        for k, c in prod.items():
            tup = factors[:s] + (k,) + factors[s + 1:t] + factors[t + 1:]
            vec_iadd(out, {(g2, tup): coeff * c})
        return out

    def _pair_term_reduced(self, g, factors, i, j, g2, esign):
        degs = self.carrier.degrees
        f = self.field
        s = gr.component_of(g, i)
        t = gr.component_of(g, j)
        # the target j must head its component, which forces s < t
        assert s < t
        ds = degs[factors[s]]
        dt = degs[factors[t]]
        d2s = sum(degs[factors[r]] for r in range(1, s))
        dst = sum(degs[factors[r]] for r in range(s + 1, t))
        base = f.of(esign)
        out = {}
        # merge the two factors in place
        for k, c in self.carrier.mul_basis(factors[s], factors[t]).items():
            tup = factors[:s] + (k,) + factors[s + 1:t] + factors[t + 1:]
            vec_iadd(out, {(g2, tup): base * f.of(sign(dt * dst)) * c})
        # absorb the source factor into the free slot, move the target factor up
        eps = sign(ds * d2s + dt * dst)
        for k, c in self.carrier.mul_basis(factors[0], factors[s]).items():
            tup = ((k,) + factors[1:s] + (factors[t],)
                   + factors[s + 1:t] + factors[t + 1:])
            vec_iadd(out, {(g2, tup): -base * f.of(eps) * c})
        # absorb the target factor into the free slot
        for k, c in self.carrier.mul_basis(factors[0], factors[t]).items():
            tup = ((k,) + factors[1:t] + factors[t + 1:])
            vec_iadd(out, {(g2, tup):
                           -base * f.of(sign(dt * (d2s + ds + dst))) * c})
        return out

    def dprime_key(self, key):
        out = {}
        lo = 2 if self.family == gr.HFAMILY else 1
        for i in range(lo, self.n):
            for j in range(i + 1, self.n + 1):
                vec_iadd(out, self._pair_term(key, i, j))
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

    def apply_dprime(self, el):
        return apply_map(self.dprime_key, el)

    def apply_dsecond(self, el):
        return apply_map(self.dsecond_key, el)

    def apply_total(self, el):
        return vec_iadd(self.apply_dprime(el), self.apply_dsecond(el))

    # -- block maps -----------------------------------------------------------
    def _as_block(self, el, p, q):
        pos = self.pos.get((p, q), {})
        out = {}
        for key, c in el.items():
            if key not in pos:
                raise KeyError("element leaves block (%d, %d): %r" % (p, q, key))
            out[pos[key]] = c
        return out

    def from_block(self, vec, p, q):
        keys = self.blocks.get((p, q), [])
        return {keys[i]: c for i, c in vec.items()}

    def _block_columns(self, cache, on_key, p, q, tgt):
        """Columns of a differential out of block (p, q), over block tgt;
        built once, then shared, so callers must not mutate them."""
        if (p, q) not in cache:
            cache[(p, q)] = [self._as_block(on_key(k), *tgt)
                             for k in self.blocks.get((p, q), [])]
        return cache[(p, q)]

    def dprime_matrix(self, p, q):
        """Columns of d' : (p, q) -> (p + 1, q)."""
        return self._block_columns(self._dp_cols, self.dprime_key, p, q,
                                   (p + 1, q))

    def dsecond_matrix(self, p, q):
        """Columns of d'' : (p, q) -> (p, q + 1)."""
        return self._block_columns(self._ds_cols, self.dsecond_key, p, q,
                                   (p, q + 1))

    @property
    def pmax(self):
        return max((p for (p, _) in self.blocks), default=0)

    def total_dim(self):
        return sum(len(b) for b in self.blocks.values())

    def show_key(self, key):
        g, factors = key
        labs = "(" + ", ".join(self.carrier.labels[i] for i in factors) + ")"
        es = "".join("e%d%d" % e for e in g.edges)
        return labs + (es or "")


def build_AG(carrier, n, family=gr.FULL, qmax=None):
    """Graph-family bicomplex: full family, quotient, or ideal subcomplex."""
    return Bicomplex(carrier, n, family, qmax)


def build_C(carrier, n, qmax=None):
    """Reduced bicomplex with vertex 1 isolated and positive later factors."""
    return Bicomplex(carrier, n, gr.HFAMILY, qmax)


def edge_multiply(bc, el, i, j):
    """Right multiplication by the edge generator e_{ij} in a graph-family
    bicomplex (not defined for the reduced kind)."""
    if bc.family == gr.HFAMILY:
        raise ValueError("edge multiplication lives on the graph-family side")
    return apply_map(lambda key: bc._pair_term(key, i, j), el)


def phi_bar(c_bc):
    """Embedding of the reduced bicomplex into the no-duplicate-target
    quotient.  Returns a function mapping elements (dicts over reduced keys)
    to elements over quotient keys."""
    carrier = c_bc.carrier
    f = carrier.field
    degs = carrier.degrees

    def on_key(key):
        g, factors = key
        l = len(factors)
        out = {}
        unit = carrier.unit
        for mask in range(1 << (l - 1)):
            subset = [r + 1 for r in range(l - 1) if mask >> r & 1]
            k = len(subset)
            # Koszul sign of pulling the chosen factors left past the
            # skipped ones
            e = 0
            inset = set(subset)
            for idx_i in subset:
                for idx_j in range(1, idx_i):
                    if idx_j not in inset:
                        e += degs[factors[idx_i]] * degs[factors[idx_j]]
            head = {factors[0]: f.one}
            for idx in subset:
                head = carrier.multiply(head, {factors[idx]: f.one})
            coeff = f.of(sign(k + e))
            for h, c in head.items():
                tup = (h,) + tuple(unit if r in inset else factors[r]
                                   for r in range(1, l))
                vec_iadd(out, {(g, tup): coeff * c})
        return out

    return lambda el: apply_map(on_key, el)
