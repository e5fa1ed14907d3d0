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

Key images of d' and d'' are summed over exact constants.  ``dprime_key``
and ``dsecond_key`` return them through ``Field.exact``: ints, and
Fractions only where a structure constant is fractional, over Q; residues
over F_p.  ``dtotal_key``, D of one key, is their union, or d' alone on a
carrier with no differential (read once per bicomplex), and the spectral
sequence pairs these exact columns with no field scalar formed; a
``spectral.DView`` with ``dprime_key`` as its D pairs d' alone.
``Bicomplex.apply`` takes any of these key maps to an element, in field
scalars: ``Field.combine`` sums the exact images and ``Field.scalars``
converts the sum once.  d' reads, per graph, the edges whose addition
stays in the family, each with its enlarged graph, insertion sign and the
components it joins, built once here; one ``_edge_image`` sums the merge
term of every family and the two absorb terms of the reduced kind.  The
products it sums, and the differentials d'' sums, are read off the
carrier's one table of exact constants (``mul_basis`` and ``d_basis``),
shared by every bicomplex on it.  ``block_of``, the one index of the basis,
gives each key's block and its position there; elements stay over keys,
with no block maps to coordinate vectors.
"""

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
        self.blocks = {}    # (p, q) -> list of keys
        self.block_of = {}  # key -> (p, q, its index in blocks[(p, q)])
        self._build_basis()
        self._edges = {}   # graph -> its edge table
        self._has_d2 = carrier.has_differential   # else d'' is zero

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
                self.block_of[key] = (p, q, len(blk))
                blk.append(key)

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

    def _edge_image(self, key, entries):
        """Sum of the single-edge summands of d' on key over the given
        edge-table entries: multiplication by the edge generators e_{ij},
        merging two factors in place; for the reduced bicomplex each is the
        three-term rewriting (merge, then two absorb terms) that keeps later
        factors positive.  The raw sums: exact constants, some of them
        possibly 0 in the field."""
        degs = self.carrier.degrees
        product = self.carrier.mul_basis
        reduced = self.family == gr.HFAMILY
        factors = key[1]
        pre = [0]   # degree prefixes of the factors
        for i in factors:
            pre.append(pre[-1] + degs[i])
        acc = {}
        for g2, esign, s, t in entries:
            if s == t:
                k2 = (g2, factors)
                acc[k2] = acc.get(k2, 0) + esign
                continue
            fs, ft = factors[s], factors[t]
            dt = degs[ft]
            dst = pre[t] - pre[s + 1]
            head, mid, tail = factors[:s], factors[s + 1:t], factors[t + 1:]
            # merge the two factors in place
            e = -esign if dt * dst % 2 else esign
            for k, c in product(fs, ft).items():
                k2 = (g2, head + (k,) + mid + tail)
                acc[k2] = acc.get(k2, 0) + e * c
            if not reduced:
                continue
            f0, ds = factors[0], degs[fs]
            d2s = pre[s] - pre[1]   # s >= 1: vertex 1 is isolated
            # absorb the source factor into the free slot, move the target
            # factor up
            e = esign if (ds * d2s + dt * dst) % 2 else -esign
            rest = factors[1:s] + (ft,) + mid + tail
            for k, c in product(f0, fs).items():
                k2 = (g2, (k,) + rest)
                acc[k2] = acc.get(k2, 0) + e * c
            # absorb the target factor into the free slot
            e = esign if dt * (d2s + ds + dst) % 2 else -esign
            rest = factors[1:t] + tail
            for k, c in product(f0, ft).items():
                k2 = (g2, (k,) + rest)
                acc[k2] = acc.get(k2, 0) + e * c
        return acc

    def dprime_key(self, key):
        """d' of one key as exact constants (``Field.exact``): ints, or
        Fractions where a structure constant is fractional, over Q;
        residues over F_p."""
        return self.field.exact(
            self._edge_image(key, self._edge_table(key[0]).values()))

    def dsecond_key(self, key):
        """d'' of one key as exact constants, like ``dprime_key``."""
        g, factors = key
        degs = self.carrier.degrees
        d_basis = self.carrier.d_basis
        acc = {}
        # the sign of a slot is (-1)^(edges + degrees of the slots before it)
        pre = g.edge_count
        for slot, fi in enumerate(factors):
            d = d_basis(fi)
            if d:
                e = -1 if pre % 2 else 1
                head, tail = factors[:slot], factors[slot + 1:]
                for k, c in d.items():
                    k2 = (g, head + (k,) + tail)
                    acc[k2] = acc.get(k2, 0) + e * c
            pre += degs[fi]
        return self.field.exact(acc)

    def dtotal_key(self, key):
        """D = d' + d'' of one key as exact constants: the two images lie
        in different blocks, so D is their union; d' alone when the carrier
        has no differential, where d'' is zero."""
        if not self._has_d2:
            return self.dprime_key(key)
        return self.dprime_key(key) | self.dsecond_key(key)

    def apply(self, key_map, el):
        """key_map (``dprime_key``, ``dsecond_key``, ``dtotal_key`` or any
        map of a key to exact constants) on an element over keys, in field
        scalars: the exact images combined, then converted once."""
        return self.field.scalars(self.field.combine(key_map, el))

    @property
    def pmax(self):
        return max((p for (p, _) in self.blocks), default=0)

    def total_dim(self):
        return len(self.block_of)

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

    def on_key(key):
        entry = bc._edge_table(key[0]).get((i, j))
        return bc._edge_image(key, (entry,) if entry else ())

    return bc.apply(on_key, el)


def phi_bar(c_bc):
    """Embedding of the reduced bicomplex into the no-duplicate-target
    quotient.  Returns a function mapping elements (dicts over reduced keys)
    to elements over quotient keys, in field scalars: the carrier's
    products summed with int signs, and the sum converted once."""
    carrier = c_bc.carrier
    f = carrier.field
    degs = carrier.degrees

    def on_key(key):
        g, factors = key
        l = len(factors)
        acc = {}
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
            head = {factors[0]: 1}
            for idx in subset:
                b = factors[idx]
                head = f.combine(lambda a: carrier.mul_basis(a, b), head)
            s = sign(k + e)
            for h, c in head.items():
                k2 = (g, (h,) + tuple(unit if r in inset else factors[r]
                                      for r in range(1, l)))
                acc[k2] = acc.get(k2, 0) + s * c
        return acc

    return lambda el: f.scalars(f.combine(on_key, el))
