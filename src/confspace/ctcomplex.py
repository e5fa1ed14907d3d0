"""First-page complex built from tensor powers of a Poincare duality algebra.

For H with top degree m and n points, the complex T is spanned by the keys
T (x) mu: T is H tensored n times and mu is a product of exterior
generators x_{st} (s < t, each of degree m - 1) whose edges have pairwise
distinct targets t.  These monomials are the Kriz/Totaro basis of the
exterior algebra modulo the three-term relations

    x_{st} x_{tu} + (-1)^m x_{tu} x_{su} + (-1)^m x_{su} x_{st},

one monomial per no-duplicate-target graph (n! in all), so the three-term
relations need not be imposed.  T is the quotient by the symbol relations

    (a in slot s - a in slot t) T (x) mu,   (s, t) an edge of mu.

The three-term relations preserve which vertices are connected, so a symbol
relation on any other monomial straightens into the span of these.

Modulo the symbol relations on mu, H tensored n times is H tensored once per
connected component of mu (Kriz, Totaro): merging the slots of each
component into their product, with the Koszul sign of grouping the slots by
component, is onto and kills exactly the symbol relations.  So the stored
blocks are the quotient basis itself: mu times one factor per component,
keyed by the tensor that has each factor on its component's least vertex
and the unit elsewhere, and an element over any keys projects to it by
merging each key.  The ambient keys and the symbol relations are built on
demand, only where they are asked for.

Blocks are keyed (p, h): p the number of x factors and h the internal
degree.  The differential d1 replaces one x factor x_{st} by the diagonal
class inserted into slots s and t, mapping (p, h) to (p - 1, h + m);
removing an edge keeps the targets distinct, so d1 maps keys to keys.  On
the quotient basis it has a closed form (Kriz, Totaro): removing (s, t)
splits the component C of s and t into the part holding s and the part
holding t, and for each term u (x) v of the diagonal, C's factor f goes to
f u on the first and v on the second; every other component keeps its
factor.  Each vertex has at most one edge from a smaller vertex, so C is a
tree rooted at its least vertex, and removing (s, t) cuts off the subtree
of t, whose least vertex is t: C's least vertex, and with it f, stays on
the side of s, and v goes to slot t.  The sign is the suspension sign of
the edge times the Koszul sign of moving u and v to their components, read
off the degree prefixes of the factors.
"""

from itertools import product

from .exactlinalg import homology_dims, vec_iadd
from .algebra import sign, poincare_data
from . import graphs as gr


class CTComplex:
    def __init__(self, alg, n):
        if not (1 <= n <= gr.MAX_VERTICES):
            raise ValueError("n outside the combinatorial guard")
        self.alg = alg
        self.field = alg.field
        self.n = n
        self.pd = poincare_data(alg)
        self.m = self.pd.m
        self._blocks = {}      # (p, h) -> quotient basis keys (tensor, edges)
        self._coord = {}       # (p, h) -> {(edges, component factors): index}
        self._forest = {}      # edges -> (components, slot inversions, heads)
        self._tensors = {}     # h -> tensors of internal degree h
        self._build_ambient()
        self._quot = {}        # (p, h) -> (reps, project)
        self._merged = {}      # key -> merge(key)
        self._d1 = {}
        self._removal = {}     # edges -> d1 table, per edge
        self._mul = {}         # (a, b) -> lifted product
        # the diagonal class as (u, v, |u|, |v|, lifted coefficient)
        degs, lift = self.alg.degrees, self.field.lift
        self._diagonal = [(u, v, degs[u], degs[v], lift(c))
                          for u, v, c in self.pd.diagonal]

    # -- basis -----------------------------------------------------------------
    # perfbench/tracer.py wraps this name; it builds the quotient basis.
    def _build_ambient(self):
        """Keys (T, mu) of the quotient basis: mu a distinct-target edge set
        and T one factor per component of mu, on its least vertex, with the
        unit elsewhere; ordered by edge count, then edge set, then tensor.
        Also every tensor by internal degree, for the ambient keys."""
        degs, unit = self.alg.degrees, self.alg.unit
        tensors = [((), 0)]
        for _ in range(self.n):
            tensors = [(t + (i,), h + degs[i]) for t, h in tensors
                       for i in range(self.alg.dim)]
        for t, h in tensors:
            self._tensors.setdefault(h, []).append(t)
        for g in gr.enumerate_graphs(self.n, gr.NODUPTARGET):
            # slot pairs (0-based) that grouping the slots by component
            # puts out of order
            comps = gr.components(g)
            order = [v - 1 for comp in comps for v in comp]
            inversions = [(a, b) for i, a in enumerate(order)
                          for b in order[i + 1:] if a > b]
            # each component's least vertex (0-based), its factor's slot
            heads = tuple(comp[0] - 1 for comp in comps)
            self._forest[g.edges] = (comps, inversions, heads)
            p = g.edge_count
            # components are ordered by least vertex, so factor tuples in
            # increasing order give their keys in increasing tensor order
            for factors in product(range(self.alg.dim), repeat=len(comps)):
                tens = [unit] * self.n
                for v, i in zip(heads, factors):
                    tens[v] = i
                h = sum(degs[i] for i in factors)
                blk = self._blocks.setdefault((p, h), [])
                self._coord.setdefault((p, h), {})[(g.edges, factors)] = \
                    len(blk)
                blk.append((tuple(tens), g.edges))

    def blocks(self):
        return sorted(self._blocks)

    def ambient_keys(self, p, h):
        """Keys (T, mu) of the ambient block (p, h): every tensor T of
        internal degree h times every p-edge set mu, ordered by edge set,
        then tensor."""
        return [(t, mu) for mu in self._forest if len(mu) == p
                for t in self._tensors.get(h, ())]

    def ambient_dim(self, p, h):
        return len(self._tensors.get(h, ())) * sum(
            len(mu) == p for mu in self._forest)

    # -- operations on keys ----------------------------------------------------
    def insert_slot(self, t, i, a_el):
        """Multiply an element of H into slot i (1-based) of a tensor key,
        with the Koszul sign of moving it past the earlier slots."""
        degs = self.alg.degrees
        out = {}
        for a, ca in a_el.items():
            pre = sum(degs[t[r]] for r in range(i - 1))
            s = self.field.of(sign(degs[a] * pre))
            for k, c in self.alg.mul_basis(a, t[i - 1]).items():
                t2 = t[:i - 1] + (k,) + t[i:]
                vec_iadd(out, {t2: s * ca * c})
        return out

    def relation_vectors(self, p, h):
        """Symbol relations (a in slot s - a in slot t) T (x) mu, (s, t) an
        edge of mu, in block (p, h), as elements over keys: one pass over the
        ambient keys of block (p, h - |a|) per positive basis element a."""
        degs = self.alg.degrees
        minus = -self.field.one
        out = []
        for a in self.alg.positive_indices():
            a_el = {a: self.field.one}
            for tens, mu in self.ambient_keys(p, h - degs[a]):
                for (s, t) in mu:
                    vec = vec_iadd(self.insert_slot(tens, s, a_el),
                                   self.insert_slot(tens, t, a_el), minus)
                    if vec:
                        out.append({(t2, mu): c for t2, c in vec.items()})
        return out

    def merge(self, key):
        """The image of a key (T, mu) in H tensored once per component of
        mu, as {component factors: coefficient}: the Koszul sign of grouping
        the slots of T by component, times the product of each component's
        slots.  Computed once per key."""
        out = self._merged.get(key)
        if out is None:
            tens, mu = key
            comps, inversions, _ = self._forest[mu]
            degs = self.alg.degrees
            one = self.field.one
            out = {(): self.field.of(sign(sum(
                degs[tens[a]] * degs[tens[b]] for a, b in inversions)))}
            for comp in comps:
                el = {tens[comp[0] - 1]: one}
                for v in comp[1:]:
                    el = self.alg.multiply(el, {tens[v - 1]: one})
                out = {fs + (i,): c * x for fs, c in out.items()
                       for i, x in el.items()}
            self._merged[key] = out
        return out

    def quotient(self, p, h):
        """(reps, project) for the block quotient: reps are the unit
        coordinate vectors of the block keys, and project maps an element
        over keys of (p, h), with any tensors, to its sparse quotient
        coordinates by merging each key."""
        if (p, h) not in self._quot:
            coord = self._coord.get((p, h), {})

            def project(el):
                out = {}
                for key, c in el.items():
                    vec_iadd(out, {coord[(key[1], fs)]: x
                                   for fs, x in self.merge(key).items()}, c)
                return out

            reps = [{i: self.field.one} for i in range(len(coord))]
            self._quot[(p, h)] = reps, project
        return self._quot[(p, h)]

    # perfbench/tracer.py wraps this name, and Pairing calls it so the
    # duality workload's counter stays live; the next benchmark change
    # removes it from the tracer, and this alias with it.
    r_quotient = quotient

    def dim(self, p, h):
        return len(self._blocks.get((p, h), ()))

    # -- differential ----------------------------------------------------------
    def _removals(self, mu):
        """The d1 table of forest mu, built once per forest: per edge (s, t)
        of mu, in order, (mu2, ci, bi, esign), mu2 being mu without the
        edge.  The component C of mu holding the edge is the ci-th; it
        splits into the part holding s (and C's least vertex), again the
        ci-th component of mu2, and the subtree of t, the bi-th: t is its
        least vertex, and bi components of mu have a smaller one.  esign is
        the suspension sign of the edge: (-1)^i for the i-th edge when m is
        even."""
        table = self._removal.get(mu)
        if table is None:
            comps = self._forest[mu][0]
            ci_of = {v: j for j, comp in enumerate(comps) for v in comp}
            table = self._removal[mu] = [
                (mu[:i] + mu[i + 1:], ci_of[s],
                 sum(comp[0] < t for comp in comps),
                 sign(i) if (self.m - 1) % 2 else 1)
                for i, (s, t) in enumerate(mu)]
        return table

    def _product(self, a, b):
        """alg.mul_basis(a, b) as (index, exact constant) pairs, kept per
        pair on first use."""
        prod = self._mul.get((a, b))
        if prod is None:
            lift = self.field.lift
            prod = self._mul[(a, b)] = tuple(
                (k, lift(c)) for k, c in self.alg.mul_basis(a, b).items())
        return prod

    def _d1_ints(self, mu, fs, scale, acc):
        """Add scale times d1 of the quotient basis element (mu, fs) to acc,
        over exact constants, keyed (mu2, factors).  The term u (x) v of the
        diagonal at edge (s, t) moves u past the factors up to and
        including C's factor f, and v past the first bi factors: the sign is
        (-1)^(|u| pre[ci + 1] + |v| pre[bi]), pre the degree prefixes of
        fs."""
        degs = self.alg.degrees
        pre = [0]
        for i in fs:
            pre.append(pre[-1] + degs[i])
        for mu2, ci, bi, esign in self._removals(mu):
            f = fs[ci]
            head, mid, tail = fs[:ci], fs[ci + 1:bi], fs[bi:]
            pu, pv = pre[ci + 1], pre[bi]
            for u, v, du, dv, c in self._diagonal:
                x = esign * scale * c
                if (du * pu + dv * pv) % 2:
                    x = -x
                for k, y in self._product(f, u):
                    key = (mu2, head + (k,) + mid + (v,) + tail)
                    acc[key] = acc.get(key, 0) + x * y

    def d1_key(self, key):
        """d1 of a key, as a dict over quotient basis keys of (p - 1,
        h + m), in the closed form of the module docstring.  A key that is
        not a quotient basis key is merged first: d1 is well defined on the
        quotient, so this gives the same class as inserting the diagonal
        into its slots."""
        tens, mu = key
        comps, _, heads = self._forest[mu]
        unit = self.alg.unit
        acc = {}
        if all(tens[v - 1] == unit for comp in comps for v in comp[1:]):
            self._d1_ints(mu, tuple(tens[v] for v in heads), 1, acc)
        else:
            lift = self.field.lift
            for fs, c in self.merge(key).items():
                self._d1_ints(mu, fs, lift(c), acc)
        of = self.field.of
        out = {}
        for (mu2, fs), x in acc.items():
            c = of(x)
            if c:
                tens2 = [unit] * self.n
                for v, i in zip(self._forest[mu2][2], fs):
                    tens2[v] = i
                out[(tuple(tens2), mu2)] = c
        return out

    def d1_matrix(self, p, h):
        """Columns of d1 on quotient blocks: (p, h) -> (p - 1, h + m).  d1
        of a block key is over quotient basis keys, so each image key is
        read off the target coordinates by the factors at its heads."""
        if (p, h) not in self._d1:
            # perfbench/tracer.py counts block quotients through this call
            # only; the next benchmark change can drop it with that hook
            self.quotient(p - 1, h + self.m)
            coord = self._coord.get((p - 1, h + self.m), {})
            forest = self._forest
            self._d1[(p, h)] = [
                {coord[(mu2, tuple(tens[v] for v in forest[mu2][2]))]: c
                 for (tens, mu2), c in self.d1_key(key).items()}
                for key in self._blocks.get((p, h), ())]
        return self._d1[(p, h)]

    def e2_dims(self):
        """Dims of ker d1 / im d1 on every quotient block."""
        dims = {b: self.dim(*b) for b in self.blocks()}
        return homology_dims(self.field, dims, (
            ((p, h), (p - 1, h + self.m), self.d1_matrix(p, h))
            for (p, h) in dims if p >= 1))
