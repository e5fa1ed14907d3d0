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
degree.  The differential d1 replaces one x factor by the diagonal class
inserted into its two slots, mapping (p, h) to (p - 1, h + m); removing an
edge keeps the targets distinct, so d1 maps keys to keys.
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
        self._forest = {}      # edges -> (components, slot inversions)
        self._tensors = {}     # h -> tensors of internal degree h
        self._build_ambient()
        self._quot = {}        # (p, h) -> (reps, project)
        self._merged = {}      # key -> merge(key)
        self._d1 = {}

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
            self._forest[g.edges] = (comps, inversions)
            p = g.edge_count
            # components are ordered by least vertex, so factor tuples in
            # increasing order give their keys in increasing tensor order
            for factors in product(range(self.alg.dim), repeat=len(comps)):
                tens = [unit] * self.n
                for comp, i in zip(comps, factors):
                    tens[comp[0] - 1] = i
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
            comps, inversions = self._forest[mu]
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
    def d1_key(self, key):
        """d1 of a key, as a dict over keys of (p-1, h+m)."""
        tens, mu = key
        f = self.field
        out = {}
        for i, (s, t) in enumerate(mu):
            pref = f.of(1 if (self.m - 1) % 2 == 0 else sign(i))
            mu2 = mu[:i] + mu[i + 1:]
            for (u, v, c) in self.pd.diagonal:
                # insert at the later slot first so the Koszul prefix of the
                # earlier insertion is unaffected
                el1 = self.insert_slot(tens, t, {v: f.one})
                for t1, c1 in el1.items():
                    el2 = self.insert_slot(t1, s, {u: f.one})
                    for t2, c2 in el2.items():
                        vec_iadd(out, {(t2, mu2): pref * c * c1 * c2})
        return out

    def d1_matrix(self, p, h):
        """Columns of d1 on quotient blocks: (p, h) -> (p - 1, h + m)."""
        if (p, h) not in self._d1:
            _, project_tgt = self.quotient(p - 1, h + self.m)
            self._d1[(p, h)] = [project_tgt(self.d1_key(key))
                                for key in self._blocks.get((p, h), ())]
        return self._d1[(p, h)]

    def e2_dims(self):
        """Dims of ker d1 / im d1 on every quotient block."""
        dims = {b: self.dim(*b) for b in self.blocks()}
        return homology_dims(self.field, dims, (
            ((p, h), (p - 1, h + self.m), self.d1_matrix(p, h))
            for (p, h) in dims if p >= 1))
