"""Spectral sequence of a bicomplex, by exact linear algebra.

The filtration is by columns: F^p is the span of all blocks with first index
>= p.  Pages are computed from explicit cycle representatives

    Z_r(p, q) = { x in F^p Tot^{p+q} : D x in F^{p+r} },
    E_r(p, q) = Z_r(p, q) / ( Z_{r-1}(p+1, q-1) + D Z_{r-1}(p-r+1, q+r-2) ),

so the page differential d_r is literally "apply D to a representative and
read the class off in the target block" (the zig-zag rule).

D columns are evaluated once per bicomplex: D of each Tot^k basis key is
computed lazily, the first time it is needed, and cached on the
``SpectralSequence``; every other use of D (cycle spaces, boundaries, page
differentials, total cohomology) combines these cached columns.  Build one
``SpectralSequence`` per bicomplex and reuse it to keep that saving.  Cycle
spaces, pages and page differentials are cached per (r, p, q) on top.  A
q-window on the underlying bicomplex restricts the total degrees that may
be touched."""

from .exactlinalg import (SpanReducer, solve, NO_SOLUTION, apply_map,
                          homology_dims, kernel_basis)


class WindowError(ValueError):
    pass


class SpectralSequence:
    def __init__(self, bc):
        self.bc = bc
        self._tot = {}
        self._cols = {}    # k -> {Tot^k index: D of it, over Tot^{k+1}}
        self._z = {}
        self._e = {}
        self._d = {}

    # -- total-degree slices -------------------------------------------------
    def tot_keys(self, k):
        if k not in self._tot:
            keys = []
            for (p, q) in sorted(self.bc.blocks):
                if p + q == k:
                    keys.extend(self.bc.blocks[(p, q)])
            self._tot[k] = (keys, {key: i for i, key in enumerate(keys)})
        return self._tot[k]

    def _check_window(self, k):
        # applying D to Tot^k needs the q+1 row inside the window
        if self.bc.qmax is not None and k + 1 > self.bc.qmax:
            raise WindowError("total degree %d needs q-window above %d"
                              % (k, self.bc.qmax))

    def _column(self, k, i):
        """D of the i-th Tot^k basis key, as a Tot^{k+1} coordinate vector.

        Evaluated on first use only; the result is shared, so callers must
        not mutate it."""
        cols = self._cols.setdefault(k, {})
        col = cols.get(i)
        if col is None:
            keys, _ = self.tot_keys(k)
            _, pos1 = self.tot_keys(k + 1)
            out = self.bc.apply_total({keys[i]: self.bc.field.one})
            col = cols[i] = {pos1[key]: c for key, c in out.items()}
        return col

    def _d_vec(self, v, k):
        """D of a Tot^k coordinate vector, as a Tot^{k+1} coordinate vector."""
        return apply_map(lambda i: self._column(k, i), v)

    def _fp_indices(self, k, p):
        keys, _ = self.tot_keys(k)
        return [i for i, key in enumerate(keys) if self.bc.block_of[key][0] >= p]

    def _low_indices(self, k, p_lt):
        keys, _ = self.tot_keys(k)
        return {i for i, key in enumerate(keys) if self.bc.block_of[key][0] < p_lt}

    # -- cycle spaces ---------------------------------------------------------
    def z_basis(self, r, p, q):
        """Basis of Z_r(p, q) as Tot^{p+q} coordinate vectors.

        Negative p is allowed: F^p is the whole complex there, but the
        cycle condition D x in F^{p+r} keeps the true index."""
        key = (r, p, q)
        if key in self._z:
            return self._z[key]
        k = p + q
        if k < 0:
            return []
        fp = self._fp_indices(k, max(p, 0))
        if r <= 0:
            basis = [{i: self.bc.field.one} for i in fp]
            self._z[key] = basis
            return basis
        self._check_window(k)
        low = self._low_indices(k + 1, p + r)
        cols = [{j: c for j, c in self._column(k, i).items() if j in low}
                for i in fp]
        basis = []
        for v in kernel_basis(self.bc.field, cols):
            basis.append({fp[i]: c for i, c in v.items()})
        self._z[key] = basis
        return basis

    def _boundary_span(self, r, p, q):
        red = SpanReducer(self.bc.field)
        for v in self.z_basis(r - 1, p + 1, q - 1):
            red.insert(v)
        k = p + q
        if k - 1 >= 0:
            self._check_window(k - 1)
            for v in self.z_basis(r - 1, p - r + 1, q + r - 2):
                red.insert(self._d_vec(v, k - 1))
        return red

    def e_block(self, r, p, q):
        """(representatives, boundary reducer) for E_r(p, q).

        Representatives are Tot^{p+q} coordinate vectors in Z_r whose classes
        form a basis."""
        key = (r, p, q)
        if key in self._e:
            return self._e[key]
        red = self._boundary_span(r, p, q)
        reps = []
        for v in self.z_basis(r, p, q):
            if red.insert(v):
                reps.append(v)
        self._e[key] = (reps, red)
        return self._e[key]

    def e_dim(self, r, p, q):
        return len(self.e_block(r, p, q)[0])

    def d_matrix(self, r, p, q):
        """Columns of d_r : E_r(p, q) -> E_r(p+r, q-r+1) in the chosen
        bases."""
        key = (r, p, q)
        if key in self._d:
            return self._d[key]
        src, _ = self.e_block(r, p, q)
        p2, q2 = p + r, q - r + 1
        self.e_block(r, p2, q2)  # the target basis, built before any column
        k = p + q
        cols = [self._project(self._d_vec(v, k), r, p2, q2) for v in src]
        self._d[key] = cols
        return cols

    def _project(self, y, r, p, q):
        """Class of a Z_r(p, q) coordinate vector in the E_r(p, q) basis."""
        reps, red = self.e_block(r, p, q)
        if not y:
            return {}
        x = solve(self.bc.field, list(reps) + red.basis(), y)
        if x is NO_SOLUTION:
            raise AssertionError("image not in the cycle space at E_%d(%d,%d)"
                                 % (r, p, q))
        return {i: c for i, c in x.items() if i < len(reps) and c}

    def project_class(self, el, r, p, q):
        """Class coordinates of a total-complex element lying in Z_r(p, q)."""
        _, pos = self.tot_keys(p + q)
        y = {pos[key]: c for key, c in el.items()}
        return self._project(y, r, p, q)

    # -- page summaries --------------------------------------------------------
    def page(self, r, pq_list=None):
        """Dims of E_r over the given blocks (default: all blocks)."""
        if pq_list is None:
            pq_list = sorted(self.bc.blocks)
        return {(p, q): self.e_dim(r, p, q) for (p, q) in pq_list}

    def differential_is_zero(self, r, pq_list=None):
        if pq_list is None:
            pq_list = sorted(self.bc.blocks)
        for (p, q) in pq_list:
            if self.e_dim(r, p, q) == 0:
                continue
            if any(self.d_matrix(r, p, q)):
                return False
        return True

    def collapse_page(self, pq_list=None):
        """Smallest r >= 1 with d_s = 0 for every s >= r.

        d_s vanishes structurally for s > pmax (the target column is empty),
        so only s in 1..pmax are examined."""
        pmax = self.bc.pmax
        last_nonzero = 0
        for s in range(1, pmax + 1):
            if not self.differential_is_zero(s, pq_list):
                last_nonzero = s
        return last_nonzero + 1


def total_cohomology(bc, kmin, kmax):
    """Dims of the total complex cohomology H^k for k in kmin..kmax."""
    ss = SpectralSequence(bc)
    dims = {k: len(ss.tot_keys(k)[0]) for k in range(kmin, kmax + 1)}

    def d(k):
        ss._check_window(k)
        return k, k + 1, [ss._column(k, i)
                          for i in range(len(ss.tot_keys(k)[0]))]

    # D into H^kmin is ranked last, so that a window error names the least
    # degree of the range whose D leaves the window
    low = [kmin - 1] if dims and kmin >= 1 else []
    return homology_dims(bc.field, dims, map(d, [*dims, *low]))
