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
component, is onto and kills exactly the symbol relations.  That quotient
basis is the graph side's: one key (G, factors) per no-duplicate-target
forest G and factor per component, components ordered by least vertex, as
``build_AG(H, n, NODUPTARGET)`` keys it.  So the blocks are that basis's
blocks, and ``merge`` sends an ambient key (T, mu) to graph keys.  The
ambient keys and the symbol relations are built on demand, only where they
are asked for: the pairing checks the merge against them.  Both read the
algebra's product table (``mul_basis``, exact constants, shared with the
graph-side basis), as d1 does: the relations take its products as field
scalars made once per product and sign, and the merge, the projections
onto the quotient and d1 sum over exact constants.
``Field.exact`` keeps the nonzero constants of a merge, a projection or a
d1 image, so none of them forms a field scalar.

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
the side of s, and v becomes the factor of t's part.  The sign is the
suspension sign of the edge times the Koszul sign of moving u and v to
their components, read off the degree prefixes of the factors.

E2 comes from the pairing of ``spectral``, as the graph side's pages do.
Re-keyed as (P, Q) = (-p, h + p m), d1 raises P by one and keeps Q, so the
complex is a bicomplex with d'' = 0, of total degree P + Q = h + p (m - 1).
A ``spectral.DView`` of the same key lists so re-keyed, with d1 (``d1_key``,
in exact constants) as its D, is that bicomplex, and each complex makes one
``SpectralSequence`` of it, on first use.  ``e2_dims`` reads E2(-p, h + p m)
off its pairing: the pivot rows of the degree below are cleared, so their
columns are never evaluated, and no field scalar is formed.  ``d1_matrix``
is the sequence's cached columns of one block, re-indexed to the target
block and still in exact constants, which the duality check's adjointness
test composes with the pairing.  So d1 is evaluated at most once per key
and complex.
"""

from functools import cached_property

from .algebra import sign, poincare_data
from .bgcomplex import build_AG
from .spectral import DView, SpectralSequence
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
        self._forest = {}      # edges -> (graph, slot inversions)
        self._tensors = {}     # h -> tensors of internal degree h
        self._build_ambient()
        self._quot = {}        # (p, h) -> (reps, project)
        self._merged = {}      # ambient key -> merge(key), exact constants
        self._removal = {}     # graph -> d1 table, per edge
        # the diagonal class as (u, v, |u|, |v|, lifted coefficient)
        degs, lift = self.alg.degrees, self.field.lift
        self._diagonal = [(u, v, degs[u], degs[v], lift(c))
                          for u, v, c in self.pd.diagonal]

    # -- basis -----------------------------------------------------------------
    # perfbench/tracer.py wraps this name; it builds the quotient basis.
    def _build_ambient(self):
        """The quotient basis: ``basis``, the no-duplicate-target graph
        basis on the same algebra and n, whose blocks are the blocks here.
        Also each forest by edge set, and every tensor by internal degree,
        for the ambient keys."""
        degs = self.alg.degrees
        tensors = [((), 0)]
        for _ in range(self.n):
            tensors = [(t + (i,), h + degs[i]) for t, h in tensors
                       for i in range(self.alg.dim)]
        for t, h in tensors:
            self._tensors.setdefault(h, []).append(t)
        self.basis = build_AG(self.alg, self.n, gr.NODUPTARGET)
        self._blocks = self.basis.blocks
        # the basis holds each graph's keys together, in enumeration order
        for g in dict.fromkeys(g for g, _ in self.basis.block_of):
            # slot pairs (0-based) that grouping the slots by component
            # puts out of order
            order = [v - 1 for comp in gr.components(g) for v in comp]
            self._forest[g.edges] = g, [(a, b) for i, a in enumerate(order)
                                        for b in order[i + 1:] if a > b]

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
    def relation_vectors(self, p, h):
        """Symbol relations (a in slot s - a in slot t) T (x) mu, (s, t) an
        edge of mu, in block (p, h), as elements over ambient keys: one pass
        over the ambient keys of block (p, h - |a|) per positive basis
        element a.  a enters slot i with the Koszul sign
        (-1)^(|a| pre[i - 1]) of moving it past the earlier slots, pre the
        degree prefixes of T.  The products with a are read off the
        algebra's table, made field scalars once per pass and sign.  The two
        slots' terms differ in slot s (a raises its degree), so no two add,
        and a relation with no terms is dropped."""
        degs, of = self.alg.degrees, self.field.of
        product = self.alg.mul_basis
        out = []
        for a in self.alg.positive_indices():
            da = degs[a]
            # sign -> b -> the terms of a b with that sign, as field scalars
            times = {e: [[(k, of(e * c)) for k, c in product(a, b).items()]
                         for b in range(self.alg.dim)] for e in (1, -1)}
            for tens, mu in self.ambient_keys(p, h - da):
                pre = [0]
                for i in tens:
                    pre.append(pre[-1] + degs[i])
                for edge in mu:
                    vec = {}
                    for slot, e in zip(edge, (1, -1)):
                        if da * pre[slot - 1] % 2:
                            e = -e
                        head, tail = tens[:slot - 1], tens[slot:]
                        for k, x in times[e][tens[slot - 1]]:
                            vec[(head + (k,) + tail, mu)] = x
                    if vec:
                        out.append(vec)
        return out

    def merge(self, key):
        """The image of an ambient key (T, mu) in H tensored once per
        component of mu, as {graph key (G, factors): exact constant}, G the
        graph of mu: the Koszul sign of grouping the slots of T by
        component, times the product of each component's slots, taken with
        the algebra's products: exact constants that ``Field.exact`` keeps,
        none 0 in the field and residues over F_p.  Computed once
        per key."""
        out = self._merged.get(key)
        if out is None:
            tens, mu = key
            g, inversions = self._forest[mu]
            degs = self.alg.degrees
            product = self.alg.mul_basis
            terms = {(): sign(sum(degs[tens[a]] * degs[tens[b]]
                                  for a, b in inversions))}
            for comp in gr.components(g):
                el = {tens[comp[0] - 1]: 1}
                for v in comp[1:]:
                    acc = {}
                    for i, x in el.items():
                        for k, y in product(i, tens[v - 1]).items():
                            acc[k] = acc.get(k, 0) + x * y
                    el = acc
                terms = {fs + (i,): c * x for fs, c in terms.items()
                         for i, x in el.items()}
            out = self._merged[key] = {
                (g, fs): c for fs, c in self.field.exact(terms).items()}
        return out

    def quotient(self, p, h):
        """(reps, project) for the block quotient: reps are the unit
        coordinate vectors of the block keys, and project maps an element
        over ambient keys of (p, h) to its sparse quotient coordinates by
        merging each key: the lifted coefficients times the merge constants
        are summed over exact constants, and ``Field.exact`` keeps the
        coordinates that are not 0 in the field."""
        if (p, h) not in self._quot:
            block_of = self.basis.block_of
            lift = self.field.lift

            # inline, not Field.combine: that cost this relation-check loop 20%
            def project(el):
                merge = self.merge
                acc = {}
                for key, c in el.items():
                    c = lift(c)
                    for k, x in merge(key).items():
                        i = block_of[k][2]
                        acc[i] = acc.get(i, 0) + c * x
                return self.field.exact(acc)

            reps = [{i: self.field.one} for i in range(self.dim(p, h))]
            self._quot[(p, h)] = reps, project
        return self._quot[(p, h)]

    # perfbench/tracer.py wraps this name, and Pairing calls it so the
    # duality workload's counter stays live; the next benchmark change
    # removes it from the tracer, and this alias with it.
    r_quotient = quotient

    def dim(self, p, h):
        return len(self._blocks.get((p, h), ()))

    # -- differential ----------------------------------------------------------
    def _removals(self, g):
        """The d1 table of forest g, built once per forest: per edge (s, t)
        of g, in order, (g2, ci, bi, esign), g2 being g without the edge.
        The component C of g holding the edge is the ci-th; it splits into
        the part holding s (and C's least vertex), again the ci-th
        component of g2, and the subtree of t, the bi-th: t is its least
        vertex, and bi components of g have a smaller one.  esign is the
        suspension sign of the edge: (-1)^i for the i-th edge when m is
        even."""
        table = self._removal.get(g)
        if table is None:
            comps, mu = gr.components(g), g.edges
            ci_of = {v: j for j, comp in enumerate(comps) for v in comp}
            table = self._removal[g] = [
                (self._forest[mu[:i] + mu[i + 1:]][0], ci_of[s],
                 sum(comp[0] < t for comp in comps),
                 sign(i) if (self.m - 1) % 2 else 1)
                for i, (s, t) in enumerate(mu)]
        return table

    def d1_key(self, key):
        """d1 of a basis key (G, factors), over the basis keys of (p - 1,
        h + m), in the closed form of the module docstring, summed over
        exact constants with the algebra's products and returned as
        ``Field.exact`` leaves them: the D column the spectral sequence
        pairs.  The term
        u (x) v of the diagonal at edge (s, t) moves u past the factors up
        to and including C's factor f, and v past the first bi factors: the
        sign is (-1)^(|u| pre[ci + 1] + |v| pre[bi]), pre the degree
        prefixes of the factors."""
        fs = key[1]
        degs = self.alg.degrees
        product = self.alg.mul_basis
        pre = [0]
        for i in fs:
            pre.append(pre[-1] + degs[i])
        acc = {}
        for g2, ci, bi, esign in self._removals(key[0]):
            f = fs[ci]
            head, mid, tail = fs[:ci], fs[ci + 1:bi], fs[bi:]
            pu, pv = pre[ci + 1], pre[bi]
            for u, v, du, dv, c in self._diagonal:
                x = esign * c
                if (du * pu + dv * pv) % 2:
                    x = -x
                for k, y in product(f, u).items():
                    k2 = (g2, head + (k,) + mid + (v,) + tail)
                    acc[k2] = acc.get(k2, 0) + x * y
        return self.field.exact(acc)

    # -- second page -----------------------------------------------------------
    @cached_property
    def _ss(self):
        """The spectral sequence of the blocks re-keyed to (-p, h + p m),
        made on first use: its D columns are the d1 columns, each evaluated
        at most once."""
        m = self.m
        return SpectralSequence(DView(
            {(-p, h + p * m): keys for (p, h), keys in self._blocks.items()},
            self.field, self.d1_key))

    def d1_matrix(self, p, h):
        """Columns of d1 on quotient blocks: (p, h) -> (p - 1, h + m), the
        sequence's cached D columns in exact constants, re-indexed to the
        target block (``SpectralSequence.block_columns``)."""
        # perfbench/tracer.py counts block quotients through this call
        # only; the next benchmark change can drop it with that hook
        self.quotient(p - 1, h + self.m)
        return self._ss.block_columns(-p, h + p * self.m)

    def e2_dims(self):
        """Dims of ker d1 / im d1 on every quotient block: E2(-p, h + p m)
        of the view, counted off the sequence's pairing."""
        ss, m = self._ss, self.m
        return {(p, h): ss.e_dim(2, -p, h + p * m) for (p, h) in self.blocks()}

