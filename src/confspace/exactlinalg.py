"""Exact linear algebra over the rationals or a prime field.

Everything downstream (bicomplex differentials, spectral-sequence pages,
Massey defining systems) reduces to rank / kernel / solve / quotient over an
exact field, so no floating point appears anywhere in this package.  Matrices
are stored sparsely; elimination works on rows kept as ``{col: scalar}``
dicts, which is plenty fast at the desk scales we target (a few thousand
columns at most).
"""

from fractions import Fraction


class FieldError(ValueError):
    pass


class FpElement:
    """An element of the prime field F_p.  Supports arithmetic operators so
    generic elimination code can treat it exactly like ``Fraction``."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError("mixed prime fields")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, o.v - self.v)

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


class Field:
    """Field descriptor: knows how to build and print scalars."""

    def __init__(self, p=None):
        if p is not None:
            if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
                raise FieldError("p = %r is not prime" % (p,))
        self.p = p

    @property
    def name(self):
        return "Q" if self.p is None else "F%d" % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else FpElement(self.p, 0)

    @property
    def one(self):
        return Fraction(1) if self.p is None else FpElement(self.p, 1)

    def of(self, n):
        """Scalar from an integer (or a Fraction over Q)."""
        if self.p is None:
            return Fraction(n)
        if isinstance(n, Fraction):
            return FpElement(self.p, n.numerator) / FpElement(self.p, n.denominator)
        return FpElement(self.p, n)

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(%s)" % self.name


QQ = Field()


# ---------------------------------------------------------------------------
# sparse vectors: plain dicts {index: nonzero scalar}

def vec_iadd(u, v, c=None):
    """u += c*v in place (c defaults to 1) for sparse dict vectors; returns u.

    Accumulating term by term with this is linear in the terms, where
    ``u = vec_add(u, ...)`` copies the whole accumulator each time."""
    for j, x in v.items():
        y = u.get(j)
        t = x if c is None else c * x
        if y is None:
            if t:
                u[j] = t
        else:
            y = y + t
            if y:
                u[j] = y
            else:
                del u[j]
    return u


def vec_add(u, v, c=None):
    """u + c*v (c defaults to 1) for sparse dict vectors."""
    return vec_iadd(dict(u), v, c)


def vec_scale(v, c):
    if not c:
        return {}
    return {j: c * x for j, x in v.items()}


def vec_from_list(xs):
    return {j: x for j, x in enumerate(xs) if x}


class Matrix:
    """Sparse matrix over an exact field.

    Entries are stored per row as ``{col: scalar}`` with all stored scalars
    nonzero.  Immutable by convention once built.
    """

    def __init__(self, field, nrows, ncols, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None else rows
        assert len(self.rows) == nrows

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        sparse = []
        for r in rows:
            sparse.append({j: field.of(x) if isinstance(x, int) else x
                           for j, x in enumerate(r) if x})
        return cls(field, len(rows), ncols, sparse)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        rows = [dict() for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                if x:
                    rows[i][j] = x
        return cls(field, nrows, len(cols), rows)

    def entry(self, i, j):
        return self.rows[i].get(j, self.field.zero)

    def mulvec(self, v):
        """Matrix times sparse dict vector -> sparse dict vector."""
        out = {}
        for i, row in enumerate(self.rows):
            s = None
            for j, x in row.items():
                y = v.get(j)
                if y is not None:
                    s = x * y if s is None else s + x * y
            if s:
                out[i] = s
        return out

    def column(self, j):
        return {i: row[j] for i, row in enumerate(self.rows) if j in row}

    def is_zero(self):
        return all(not row for row in self.rows)

    def __repr__(self):
        return "Matrix(%s, %dx%d, nnz=%d)" % (
            self.field.name, self.nrows, self.ncols,
            sum(len(r) for r in self.rows))


class SpanReducer:
    """Incremental reduced row echelon span of sparse vectors.

    Maintains fully reduced rows keyed by pivot column (each normalized so
    the pivot entry is 1, and every row has zeros at all other pivots), so
    membership tests and quotient coordinates are single reduction passes.
    Deterministic: the pivot of a new row is its smallest-index column.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot col -> row dict

    @property
    def dim(self):
        return len(self.rows)

    @property
    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec):
        v = dict(vec)
        hits = [c for c in v if c in self.rows]
        while hits:
            for c in hits:
                x = v.get(c)
                if x:
                    v = vec_add(v, self.rows[c], -x)
            hits = [c for c in v if c in self.rows]
        return v

    def insert(self, vec):
        """Add vec to the span; returns True if the dimension grew."""
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = self.field.one / v[piv]
        v = vec_scale(v, inv)
        # keep existing rows fully reduced against the new pivot
        for c, row in list(self.rows.items()):
            x = row.get(piv)
            if x:
                self.rows[c] = vec_add(row, v, -x)
        self.rows[piv] = v
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def extend(self, vecs):
        for v in vecs:
            self.insert(v)
        return self

    def basis(self):
        return [self.rows[c] for c in sorted(self.rows)]


def echelon(matrix):
    """Reduced row echelon form.

    Returns (pivot_cols, rref_rows) with pivot_cols strictly increasing and
    rref_rows[k] the row whose pivot is pivot_cols[k] (pivot entry 1, zeros
    at every other pivot column).
    """
    red = SpanReducer(matrix.field)
    for row in matrix.rows:
        if row:
            red.insert(row)
    pivots = red.pivots
    return pivots, [red.rows[c] for c in pivots]


def rank(matrix):
    pivots, _ = echelon(matrix)
    return len(pivots)


def kernel_basis(matrix):
    """Basis of the right null space, as sparse dict vectors.

    One basis vector per free column, in increasing column order; each has a
    1 at its free column (deterministic for a fixed input).
    """
    pivots, rows = echelon(matrix)
    pivset = set(pivots)
    basis = []
    for f in range(matrix.ncols):
        if f in pivset:
            continue
        v = {f: matrix.field.one}
        for c, row in zip(pivots, rows):
            x = row.get(f)
            if x:
                v[c] = -x
        basis.append(v)
    return basis


class NoSolution:
    """Sentinel value: rhs not in the image.  A value, not an exception."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoSolution"

    def __bool__(self):
        return False


NO_SOLUTION = NoSolution()


def solve(matrix, rhs):
    """A particular solution x of matrix @ x = rhs, or NO_SOLUTION.

    rhs may be a sparse dict or a dense list over the rows.  Free variables
    are set to zero, so the answer is deterministic.
    """
    if not isinstance(rhs, dict):
        rhs = vec_from_list(rhs)
    field = matrix.field
    # Column-span elimination: reduce the columns of A over the row indices,
    # tracking the x-combination that produced each reduced column, then
    # express rhs in the reduced columns.
    combos = {}  # pivot row index -> (reduced col, combo dict over x-indices)
    for j in range(matrix.ncols):
        col = matrix.column(j)
        combo = {j: field.one}
        hits = [p for p in col if p in combos]
        while hits:
            for p in hits:
                x = col.get(p)
                if x:
                    pc, pcombo = combos[p]
                    col = vec_add(col, pc, -x)
                    combo = vec_add(combo, pcombo, -x)
            hits = [p for p in col if p in combos]
        if col:
            piv = min(col)
            inv = field.one / col[piv]
            combos[piv] = (vec_scale(col, inv), vec_scale(combo, inv))
    v = dict(rhs)
    sol = {}
    hits = [p for p in v if p in combos]
    while hits:
        for p in hits:
            x = v.get(p)
            if x:
                pc, pcombo = combos[p]
                v = vec_add(v, pc, -x)
                sol = vec_add(sol, pcombo, x)
        hits = [p for p in v if p in combos]
    if v:
        return NO_SOLUTION
    return sol


def quotient_basis(field, ambient_dim, vectors):
    """Complement representatives and projection for ambient / span(vectors).

    Returns (reps, project): reps is a list of sparse standard basis vectors
    e_j for the non-pivot columns j of the subspace span; project maps any
    ambient sparse vector to its coordinate list in the quotient basis.
    """
    red = SpanReducer(field)
    for v in vectors:
        if not isinstance(v, dict):
            v = vec_from_list(v)
        red.insert(v)
    pivset = set(red.rows)
    free = [j for j in range(ambient_dim) if j not in pivset]
    reps = [{j: field.one} for j in free]

    def project(vec):
        if not isinstance(vec, dict):
            vec = vec_from_list(vec)
        r = red.reduce(vec)
        return [r.get(j, field.zero) for j in free]

    return reps, project
