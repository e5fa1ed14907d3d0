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

Blocks are keyed (p, h): p the number of x factors and h the internal
degree.  The differential d1 replaces one x factor by the diagonal class
inserted into its two slots, mapping (p, h) to (p - 1, h + m); removing an
edge keeps the targets distinct, so d1 maps keys to keys.
"""

from .exactlinalg import Matrix, quotient_basis, rank, vec_iadd
from .algebra import sign, poincare_data
from . import graphs as gr


class MismatchError(AssertionError):
    pass


class CTComplex:
    def __init__(self, alg, n, pd=None):
        if not (1 <= n <= gr.MAX_VERTICES):
            raise ValueError("n outside the combinatorial guard")
        self.alg = alg
        self.field = alg.field
        self.n = n
        self.pd = pd or poincare_data(alg)
        self.m = self.pd.m
        self._blocks = {}      # (p, h) -> list of keys (tensor, edges)
        self._pos = {}
        self._build_ambient()
        self._quot = {}        # (p, h) -> (reps, project)
        self._d1 = {}

    # -- basis -----------------------------------------------------------------
    def _build_ambient(self):
        """Keys (T, mu): every tensor T times every distinct-target edge set
        mu, ordered by edge count, then edge set, then tensor."""
        degs = self.alg.degrees
        tensors = [((), 0)]
        for _ in range(self.n):
            tensors = [(t + (i,), h + degs[i]) for t, h in tensors
                       for i in range(self.alg.dim)]
        for g in gr.enumerate_graphs(self.n, gr.NODUPTARGET):
            p = g.edge_count
            for t, h in tensors:
                key = (t, g.edges)
                blk = self._blocks.setdefault((p, h), [])
                self._pos.setdefault((p, h), {})[key] = len(blk)
                blk.append(key)

    def blocks(self):
        return sorted(self._blocks)

    def ambient_dim(self, p, h):
        return len(self._blocks.get((p, h), ()))

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
        edge of mu, in block (p, h) coordinates: one pass over block
        (p, h - |a|) per positive basis element a."""
        degs = self.alg.degrees
        pos = self._pos.get((p, h), {})
        out = []
        for a in self.alg.positive_indices():
            a_el = {a: self.field.one}
            for tens, mu in self._blocks.get((p, h - degs[a]), ()):
                for (s, t) in mu:
                    vec = {}
                    for t2, c in self.insert_slot(tens, s, a_el).items():
                        vec_iadd(vec, {pos[(t2, mu)]: c})
                    for t2, c in self.insert_slot(tens, t, a_el).items():
                        vec_iadd(vec, {pos[(t2, mu)]: -c})
                    if vec:
                        out.append(vec)
        return out

    def quotient(self, p, h):
        """(reps, project) for the block quotient; reps are key coordinate
        vectors, project maps key coordinate vectors to coordinates."""
        if (p, h) not in self._quot:
            vecs = self.relation_vectors(p, h)
            self._quot[(p, h)] = quotient_basis(
                self.field, self.ambient_dim(p, h), vecs)
        return self._quot[(p, h)]

    # perfbench/tracer.py wraps this name, and Pairing calls it so the
    # duality workload's counter stays live; the next benchmark change
    # removes it from the tracer, and this alias with it.
    r_quotient = quotient

    def dim(self, p, h):
        return len(self.quotient(p, h)[0])

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

    def _d1_image(self, vec, p, h):
        """d1 of a block (p, h) coordinate vector, in block (p - 1, h + m)
        key coordinates."""
        pos_tgt = self._pos.get((p - 1, h + self.m), {})
        keys_src = self._blocks.get((p, h), [])
        img = {}
        for idx, c in vec.items():
            for key2, c2 in self.d1_key(keys_src[idx]).items():
                vec_iadd(img, {pos_tgt[key2]: c * c2})
        return img

    def d1_matrix(self, p, h):
        """d1 on quotient blocks: (p, h) -> (p - 1, h + m)."""
        if (p, h) in self._d1:
            return self._d1[(p, h)]
        reps, _ = self.quotient(p, h)
        _, project_tgt = self.quotient(p - 1, h + self.m)
        cols = []
        for v in reps:
            coords = project_tgt(self._d1_image(v, p, h))
            cols.append({i: c for i, c in enumerate(coords) if c})
        m = Matrix.from_columns(self.field, cols, self.dim(p - 1, h + self.m))
        self._d1[(p, h)] = m
        return m

    def check_d1_well_defined(self, p, h):
        """Every relation vector must map into the target relation span."""
        _, project_tgt = self.quotient(p - 1, h + self.m)
        for v in self.relation_vectors(p, h):
            if any(project_tgt(self._d1_image(v, p, h))):
                raise MismatchError("d1 not defined on the quotient at (%d, %d)"
                                    % (p, h))
        return True

    def e2_dims(self):
        """Dims of ker d1 / im d1 on every quotient block."""
        out = {}
        for (p, h) in self.blocks():
            dsrc = self.dim(p, h)
            if dsrc == 0:
                out[(p, h)] = 0
                continue
            r_out = rank(self.d1_matrix(p, h)) if p >= 1 else 0
            r_in = 0
            if (p + 1, h - self.m) in self._blocks:
                r_in = rank(self.d1_matrix(p + 1, h - self.m))
            out[(p, h)] = dsrc - r_out - r_in
        return out
