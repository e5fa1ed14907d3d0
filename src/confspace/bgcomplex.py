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

Key images of d' and d'' are summed over exact ints and become field
scalars once per entry.  d' reads two caches: per graph, the edges whose
addition stays in the family, each with its enlarged graph, insertion sign
and the components it joins; per pair of carrier indices, the product
lifted to exact constants (residues over F_p; over Q an int, or the
Fraction where the constant is not integral), as d'' reads the lifted
carrier differential.
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
        self._edges = {}   # graph -> its edge table
        self._mul = {}     # (a, b) -> lifted carrier product
        self._d = {}       # a -> lifted carrier differential

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
    def _edge_table(self, g):
        """The edges d' may add to graph g, built once per graph.

        {(i, j): (g2, esign, s, t)} in d' order over the edges whose
        addition stays in the family: g2 is the enlarged graph, esign the
        insertion sign, and s <= t the components of i and j in g."""
        table = self._edges.get(g)
        if table is not None:
            return table
        table = {}
        comp = {v: s for s, c in enumerate(gr.components(g)) for v in c}
        reduced = self.family == gr.HFAMILY
        for i in range(2 if reduced else 1, self.n):
            for j in range(i + 1, self.n + 1):
                res = gr.add_edge(g, i, j)
                if res is gr.ZERO:
                    continue
                g2, esign = res
                if not gr.in_family(g2, self.family):
                    continue
                s, t = sorted((comp[i], comp[j]))
                # in the reduced kind the target j heads its component, so
                # the component of i comes first
                if reduced and not comp[i] < comp[j]:
                    raise ValueError(
                        "edge %r of %r: target does not head a later "
                        "component" % ((i, j), g))
                table[(i, j)] = (g2, esign, s, t)
        self._edges[g] = table
        return table

    def _lift(self, el):
        """A carrier element as (index, exact constant) pairs: residues over
        F_p; over Q an int where the constant is integral, else the
        Fraction."""
        lift = self.field.lift
        return tuple((k, lift(c)) for k, c in el.items())

    def _product(self, a, b):
        """carrier.mul_basis(a, b), lifted; kept per pair on first use, so a
        product that raises Overflow is never kept."""
        prod = self._mul.get((a, b))
        if prod is None:
            prod = self._mul[(a, b)] = self._lift(
                self.carrier.mul_basis(a, b))
        return prod

    def _differential(self, a):
        """carrier.d_basis(a), lifted; only the lift is kept.  The carrier
        (which keeps d itself) is still asked once per slot, so its traced
        d_basis count does not depend on this cache."""
        d = self.carrier.d_basis(a)
        if not d:
            return ()
        lifted = self._d.get(a)
        if lifted is None:
            lifted = self._d[a] = self._lift(d)
        return lifted

    def _scalars(self, acc):
        """An element summed over exact constants, as field scalars; entries
        that are 0 in the field (an integer sum may be 0 mod p) dropped."""
        of = self.field.of
        out = {}
        for key, x in acc.items():
            c = of(x)
            if c:
                out[key] = c
        return out

    def _edge_image(self, key, entries):
        """Sum of the single-edge summands of d' on key over the given
        edge-table entries: multiplication by the edge generators e_{ij};
        for the reduced bicomplex each is the three-term rewriting that
        keeps later factors positive."""
        if self.family == gr.HFAMILY:
            acc = self._reduced_edge_ints(key, entries)
        else:
            acc = self._edge_ints(key, entries)
        return self._scalars(acc)

    def _edge_ints(self, key, entries):
        degs = self.carrier.degrees
        factors = key[1]
        acc = {}
        for g2, esign, s, t in entries:
            if s == t:
                k2 = (g2, factors)
                acc[k2] = acc.get(k2, 0) + esign
                continue
            fs, ft = factors[s], factors[t]
            tau = sum(degs[factors[r]] for r in range(s + 1, t)) * degs[ft]
            e = -esign if tau % 2 else esign
            head, mid, tail = factors[:s], factors[s + 1:t], factors[t + 1:]
            for k, c in self._product(fs, ft):
                k2 = (g2, head + (k,) + mid + tail)
                acc[k2] = acc.get(k2, 0) + e * c
        return acc

    def _reduced_edge_ints(self, key, entries):
        degs = self.carrier.degrees
        factors = key[1]
        f0 = factors[0]
        acc = {}
        for g2, esign, s, t in entries:
            fs, ft = factors[s], factors[t]
            ds = degs[fs]
            dt = degs[ft]
            d2s = sum(degs[factors[r]] for r in range(1, s))
            dst = sum(degs[factors[r]] for r in range(s + 1, t))
            head, mid, tail = factors[:s], factors[s + 1:t], factors[t + 1:]
            # merge the two factors in place
            e = -esign if dt * dst % 2 else esign
            for k, c in self._product(fs, ft):
                k2 = (g2, head + (k,) + mid + tail)
                acc[k2] = acc.get(k2, 0) + e * c
            # absorb the source factor into the free slot, move the target
            # factor up
            e = esign if (ds * d2s + dt * dst) % 2 else -esign
            rest = factors[1:s] + (ft,) + mid + tail
            for k, c in self._product(f0, fs):
                k2 = (g2, (k,) + rest)
                acc[k2] = acc.get(k2, 0) + e * c
            # absorb the target factor into the free slot
            e = esign if dt * (d2s + ds + dst) % 2 else -esign
            rest = factors[1:t] + tail
            for k, c in self._product(f0, ft):
                k2 = (g2, (k,) + rest)
                acc[k2] = acc.get(k2, 0) + e * c
        return acc

    def _pair_term(self, key, i, j):
        """Multiplication by the edge generator e_{ij} on one key: element
        dict over keys (the single-edge summand of d')."""
        entry = self._edge_table(key[0]).get((i, j))
        return self._edge_image(key, (entry,) if entry else ())

    def dprime_key(self, key):
        return self._edge_image(key, self._edge_table(key[0]).values())

    def dsecond_key(self, key):
        g, factors = key
        degs = self.carrier.degrees
        acc = {}
        # the sign of a slot is (-1)^(edges + degrees of the slots before it)
        pre = g.edge_count
        for slot, fi in enumerate(factors):
            d = self._differential(fi)
            if d:
                e = -1 if pre % 2 else 1
                head, tail = factors[:slot], factors[slot + 1:]
                for k, c in d:
                    k2 = (g, head + (k,) + tail)
                    acc[k2] = acc.get(k2, 0) + e * c
            pre += degs[fi]
        return self._scalars(acc)

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
    if not 1 <= i < j <= bc.n:
        raise ValueError("bad edge %r for n=%d" % ((i, j), bc.n))
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
