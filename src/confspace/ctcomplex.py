"""First-page complex built from tensor powers of a Poincare duality algebra.

For H with top degree m and n points, the ambient space is H tensored n
times, tensored with squarefree monomials in exterior generators x_{st}
(one per pair s < t, each of degree m - 1).  The complex T is the quotient
of the ambient space by

* symbol relations: (a in slot s - a in slot t) times any monomial
  containing x_{st};
* three-term relations: for s < t < u,
  x_{st} x_{tu} + (-1)^m x_{tu} x_{su} + (-1)^m x_{su} x_{st}
  times anything.

Blocks are keyed (p, h): p the number of x factors and h the internal
degree.  The differential d1 replaces one x factor by the diagonal class
inserted into its two slots, mapping (p, h) to (p - 1, h + m).

``rbasis_presentation`` re-derives the same quotient from the direct-summand
basis R of monomials with strictly increasing targets, as a cross-check.
"""

from itertools import combinations

from .exactlinalg import Matrix, SpanReducer, quotient_basis, rank, vec_iadd
from .algebra import sign, poincare_data
from . import graphs as gr


class MismatchError(AssertionError):
    pass


def _xmono_normalize(edges, m):
    """Sort a product of x generators; (sorted tuple, sign) or None if a
    generator repeats.  Swapping two degree-(m-1) generators costs
    (-1)^(m-1)."""
    edges = list(edges)
    if len(set(edges)) != len(edges):
        return None
    inv = 0
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            if edges[a] > edges[b]:
                inv += 1
    s = 1 if (m - 1) % 2 == 0 else sign(inv)
    return tuple(sorted(edges)), s


class CTComplex:
    def __init__(self, alg, n, pd=None):
        if not (1 <= n <= gr.MAX_VERTICES):
            raise ValueError("n outside the combinatorial guard")
        self.alg = alg
        self.field = alg.field
        self.n = n
        self.pd = pd or poincare_data(alg)
        self.m = self.pd.m
        self.all_edges = [(i, j) for i in range(1, n + 1)
                          for j in range(i + 1, n + 1)]
        self._blocks = {}      # (p, h) -> list of ambient keys
        self._pos = {}
        self._build_ambient()
        self._quot = {}        # (p, h) -> (reps, project)
        self._d1 = {}
        self._arn = {}         # (p, h) -> three-term reducer, see _arnold_data
        self._rq = {}          # (p, h) -> R-presentation (reps, project)

    # -- ambient basis -------------------------------------------------------
    def _build_ambient(self):
        degs = self.alg.degrees
        tensors = [()]
        for _ in range(self.n):
            tensors = [t + (i,) for t in tensors for i in range(self.alg.dim)]
        for p in range(len(self.all_edges) + 1):
            for mu in combinations(self.all_edges, p):
                for t in tensors:
                    h = sum(degs[i] for i in t)
                    key = (t, mu)
                    blk = self._blocks.setdefault((p, h), [])
                    self._pos.setdefault((p, h), {})[key] = len(blk)
                    blk.append(key)

    def blocks(self):
        return sorted(self._blocks)

    def ambient_dim(self, p, h):
        return len(self._blocks.get((p, h), ()))

    # -- operations on ambient keys -------------------------------------------
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

    def _symbol_vectors(self, p, h):
        """Relation vectors (a in slot s - a in slot t) T (x) mu, mu owning
        the edge (s, t), in block (p, h) coordinates."""
        degs = self.alg.degrees
        out = []
        pos = self._pos.get((p, h), {})
        for mu in combinations(self.all_edges, p):
            for (s, t) in mu:
                for a in self.alg.positive_indices():
                    da = degs[a]
                    for tens, mu0 in self._blocks.get((p, h - da), ()):
                        if mu0 != mu:
                            continue
                        left = self.insert_slot(tens, s, {a: self.field.one})
                        right = self.insert_slot(tens, t, {a: self.field.one})
                        vec = {}
                        for t2, c in left.items():
                            vec_iadd(vec, {pos[(t2, mu)]: c})
                        for t2, c in right.items():
                            vec_iadd(vec, {pos[(t2, mu)]: -c})
                        if vec:
                            out.append(vec)
        return out

    def _arnold_vectors(self, p, h):
        """Three-term relation multiples in block (p, h) coordinates."""
        if p < 2:
            return []
        m = self.m
        pos = self._pos.get((p, h), {})
        f = self.field
        sm = f.of(sign(m))
        out = []
        rest = self.all_edges
        for s, t, u in combinations(range(1, self.n + 1), 3):
            terms = [((s, t), (t, u), f.one),
                     ((t, u), (s, u), sm),
                     ((s, u), (s, t), sm)]
            for mu0 in combinations(rest, p - 2):
                combined = {}
                for e1, e2, c in terms:
                    norm = _xmono_normalize((e1, e2) + mu0, m)
                    if norm is None:
                        continue
                    mu, sg = norm
                    combined[mu] = combined.get(mu, f.zero) + c * f.of(sg)
                combined = {mu: c for mu, c in combined.items() if c}
                if not combined:
                    continue
                seen = set()
                for tens, _ in self._blocks.get((p, h), ()):
                    if tens in seen:
                        continue
                    seen.add(tens)
                    v = {}
                    for mu, c in combined.items():
                        v[pos[(tens, mu)]] = c
                    out.append(v)
        return out

    def relation_vectors(self, p, h):
        return self._symbol_vectors(p, h) + self._arnold_vectors(p, h)

    def quotient(self, p, h):
        """(reps, project) for the block quotient; reps are ambient
        coordinate vectors, project maps ambient vectors to coordinates."""
        if (p, h) not in self._quot:
            vecs = self.relation_vectors(p, h)
            self._quot[(p, h)] = quotient_basis(
                self.field, self.ambient_dim(p, h), vecs)
        return self._quot[(p, h)]

    def dim(self, p, h):
        return len(self.quotient(p, h)[0])

    # -- differential ----------------------------------------------------------
    def d1_key(self, key):
        """d1 of an ambient key, as a dict over ambient keys of (p-1, h+m)."""
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
        """d1 on quotient blocks: (p, h) -> (p - 1, h + m)."""
        if (p, h) in self._d1:
            return self._d1[(p, h)]
        reps, _ = self.quotient(p, h)
        _, project_tgt = self.quotient(p - 1, h + self.m)
        pos_tgt = self._pos.get((p - 1, h + self.m), {})
        keys_src = self._blocks.get((p, h), [])
        cols = []
        for v in reps:
            img = {}
            for idx, c in v.items():
                for key2, c2 in self.d1_key(keys_src[idx]).items():
                    vec_iadd(img, {pos_tgt[key2]: c * c2})
            coords = project_tgt(img)
            cols.append({i: c for i, c in enumerate(coords) if c})
        m = Matrix.from_columns(self.field, cols, self.dim(p - 1, h + self.m))
        self._d1[(p, h)] = m
        return m

    def check_d1_well_defined(self, p, h):
        """Every relation vector must map into the target relation span."""
        _, project_tgt = self.quotient(p - 1, h + self.m)
        pos_tgt = self._pos.get((p - 1, h + self.m), {})
        keys_src = self._blocks.get((p, h), [])
        for v in self.relation_vectors(p, h):
            img = {}
            for idx, c in v.items():
                for key2, c2 in self.d1_key(keys_src[idx]).items():
                    vec_iadd(img, {pos_tgt[key2]: c * c2})
            if any(project_tgt(img)):
                raise MismatchError("d1 not defined on the quotient at (%d, %d)"
                                    % (p, h))
        return True

    # -- R-presentation --------------------------------------------------------
    # The monomials with strictly increasing targets span a direct summand;
    # the three-term span is a complement, so every ambient vector can be
    # straightened onto the R-part.  The symbol relations straightened this
    # way present the same block quotient, and this presentation is the one
    # that pairs against the graph-family side.

    def r_keys(self, p, h):
        """Ambient indices of the R-monomial keys of a block."""
        return [i for i, (tens, mu) in enumerate(self._blocks.get((p, h), ()))
                if _increasing_targets(mu)]

    def _arnold_data(self, p, h):
        """(reducer over permuted coordinates, perm, k_non): the three-term
        span eliminated so its pivots are exactly the non-R coordinates."""
        if (p, h) in self._arn:
            return self._arn[(p, h)]
        n_amb = self.ambient_dim(p, h)
        rset = set(self.r_keys(p, h))
        perm = {}
        for i in range(n_amb):
            if i not in rset:
                perm[i] = len(perm)
        k_non = len(perm)
        for i in range(n_amb):
            if i in rset:
                perm[i] = len(perm)
        red = SpanReducer(self.field)
        for v in self._arnold_vectors(p, h):
            red.insert({perm[i]: c for i, c in v.items()})
        if red.dim != k_non or any(c >= k_non for c in red.rows):
            raise MismatchError(
                "three-term span is not a complement of the R-part at (%d, %d)"
                % (p, h))
        self._arn[(p, h)] = (red, perm, k_non)
        return self._arn[(p, h)]

    def straighten(self, vec, p, h):
        """Project an ambient vector onto the R-part along the three-term
        span; returns coordinates over r_keys(p, h)."""
        red, perm, k_non = self._arnold_data(p, h)
        w = red.reduce({perm[i]: c for i, c in vec.items()})
        if any(i < k_non for i in w):
            raise MismatchError("straightening escaped the R-part at (%d, %d)"
                                % (p, h))
        return {i - k_non: c for i, c in w.items()}

    def r_relations(self, p, h):
        """Straightened symbol relations, in R coordinates."""
        return [self.straighten(v, p, h) for v in self._symbol_vectors(p, h)]

    def r_quotient(self, p, h):
        """(reps, project) of the block in the R-presentation."""
        if (p, h) not in self._rq:
            self._rq[(p, h)] = quotient_basis(
                self.field, len(self.r_keys(p, h)), self.r_relations(p, h))
        return self._rq[(p, h)]

    def r_d1_matrix(self, p, h):
        """d1 in the R-presentation: quotient (p, h) -> quotient
        (p - 1, h + m) coordinates."""
        reps, _ = self.r_quotient(p, h)
        _, project_tgt = self.r_quotient(p - 1, h + self.m)
        rk = self.r_keys(p, h)
        keys_src = self._blocks.get((p, h), [])
        pos_tgt = self._pos.get((p - 1, h + self.m), {})
        cols = []
        for v in reps:
            img = {}
            for ri, c in v.items():
                for key2, c2 in self.d1_key(keys_src[rk[ri]]).items():
                    vec_iadd(img, {pos_tgt[key2]: c * c2})
            coords = project_tgt(self.straighten(img, p - 1, h + self.m))
            cols.append({i: c for i, c in enumerate(coords) if c})
        nt = len(self.r_quotient(p - 1, h + self.m)[0])
        return Matrix.from_columns(self.field, cols, nt)

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


def rbasis_presentation(ct):
    """Cross-check of the block quotients against the direct-summand basis.

    R-monomials have strictly increasing targets; within each block the
    three-term span is a complement of the R-part, and the symbol relations
    projected onto the R-part present the same quotient.  Raises
    MismatchError when any dimension disagrees."""
    out = {}
    for (p, h) in ct.blocks():
        reps, _ = ct.r_quotient(p, h)
        if len(reps) != ct.dim(p, h):
            raise MismatchError("presentations disagree at (%d, %d): %d vs %d"
                                % (p, h, len(reps), ct.dim(p, h)))
        out[(p, h)] = len(reps)
    return out


def _increasing_targets(mu):
    targets = [j for (_, j) in mu]
    return targets == sorted(targets) and len(set(targets)) == len(targets)
