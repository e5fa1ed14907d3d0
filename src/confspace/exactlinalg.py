"""Exact linear algebra over the rationals or a prime field.

Everything downstream (bicomplex differentials, spectral-sequence pages,
Massey defining systems) reduces to rank / kernel / solve / quotient over an
exact field, so no floating point appears anywhere in this package.  Vectors
are sparse ``{index: scalar}`` dicts of field scalars (``Fraction`` over Q,
``FpElement`` over F_p), and a linear map is the list of its columns, each
such a dict over the rows; ``apply_map`` applies a map given by the images
of basis vectors, and ``transpose`` is the one place columns become rows.
Every elimination runs through one kernel, ``SpanReducer``: an incremental
reduced row echelon form whose rows are kept as ``{col: int}`` dicts,
fraction-free and primitive over Q and residues mod p over F_p, so
elimination does no scalar-object arithmetic; field scalars are formed only
where its rows or reductions are read.  ``rank`` and ``kernel_basis``
reduce the rows of a map, ``quotient_basis`` reduces the spanning vectors of
a subspace, and ``solve`` reduces the columns of a map, each extended by its
own index past every row index, so that every reduced row records the
combination of columns it is.  ``homology_dims`` reads the cohomology of a
complex of blocks off the ranks of its differentials, each ranked once.
"""

from fractions import Fraction
from math import gcd, lcm


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


# Miller-Rabin with the prime bases up to 41 is exact below this bound, the
# least strong pseudoprime to all of them; up to 37 it would be exact only
# below 318665857834031151167461
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin primality test, exact for p < _PRIME_BOUND."""
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Field descriptor: knows how to build scalars."""

    def __init__(self, p=None):
        if p is not None:
            if p >= _PRIME_BOUND:
                raise FieldError("p has %d bits; primality is decided only "
                                 "below 3.3e24" % p.bit_length())
            if not _is_prime(p):
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
        """Scalar from an integer, a Fraction, or a scalar of this field."""
        if self.p is None:
            return Fraction(n)
        if isinstance(n, FpElement):
            if n.p != self.p:
                raise FieldError("mixed prime fields")
            return n
        if isinstance(n, Fraction):
            return FpElement(self.p, n.numerator) / FpElement(self.p, n.denominator)
        return FpElement(self.p, n)

    def lift(self, c):
        """The exact constant of a scalar of this field, which ``of`` turns
        back into it: the residue over F_p; over Q an int where the scalar
        is integral, else the Fraction."""
        if self.p is not None:
            return c.v
        return c.numerator if c.denominator == 1 else c

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


def apply_map(image, vec):
    """sum_i vec[i] image(i): vec under the linear map that sends the i-th
    basis vector to the sparse vector image(i)."""
    out = {}
    for i, c in vec.items():
        # images hold field scalars already, so a unit adds them as they are
        vec_iadd(out, image(i), None if c == 1 else c)
    return out


def transpose(vecs):
    """{i: {j: vecs[j][i]}} over the i where some entry is nonzero, in
    increasing i: the nonzero rows of the map whose columns are vecs, keyed
    by row index (equally, the nonzero columns of the map whose rows are
    vecs).  Each row lists its entries in increasing j."""
    rows = {}
    for j, v in enumerate(vecs):
        for i, x in v.items():
            if x:
                rows.setdefault(i, {})[j] = x
    return {i: rows[i] for i in sorted(rows)}


class SpanReducer:
    """Incremental reduced row echelon span of sparse vectors.

    Rows are kept fully reduced (zero at every other pivot), keyed by pivot
    column, so membership tests and quotient coordinates are single reduction
    passes.  Deterministic: the pivot of a new row is its smallest-index
    column.  ``cols`` indexes the rows by the columns they have entries in,
    so a new pivot is cleared from just the rows that hold it.

    Inside, rows are ``{col: int}`` dicts and elimination never builds a
    field scalar: over Q each row is primitive (content gcd 1) with a
    positive pivot, and a step R <- b*R - a*v is taken fraction-free, after
    cancelling gcd(a, b); over F_p each row holds residues in [0, p) with
    pivot 1.  Field scalars appear only at the boundary: ``reduce`` and
    ``basis`` return ``Fraction`` or ``FpElement`` values, those of the
    unique reduced row echelon form with unit pivots.
    """

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.rows = {}  # pivot col -> integer row dict
        self.cols = {}  # col -> pivots of the rows with an entry there

    @property
    def dim(self):
        return len(self.rows)

    @property
    def pivots(self):
        return sorted(self.rows)

    def _ints(self, vec):
        """(integer row, scale s) with vec = row / s; over F_p s is 1."""
        if self.p is not None:
            v, s = {j: x.v for j, x in vec.items()}, 1
        else:
            s = lcm(*[x.denominator for x in vec.values()])
            if s == 1:
                v = {j: x.numerator for j, x in vec.items()}
            else:
                v = {j: x.numerator * (s // x.denominator)
                     for j, x in vec.items()}
        if not all(v.values()):
            v = {j: x for j, x in v.items() if x}
        return v, s

    def _scalars(self, v, s):
        """The field vector v / s (over F_p, v itself: s is always 1)."""
        p = self.p
        if p is None:
            return {j: Fraction(x, s) for j, x in v.items()}
        return {j: FpElement(p, x) for j, x in v.items()}

    def _combine(self, u, a, w, b):
        """u <- b*u - a*w in place; returns the factor u was multiplied by.
        Over Q gcd(a, b) is cancelled first; over F_p b is 1 and every entry
        is taken mod p."""
        p = self.p
        if p is not None:
            for j, x in w.items():
                t = (u.get(j, 0) - a * x) % p
                if t:
                    u[j] = t
                else:
                    del u[j]
            return 1
        g = gcd(a, b)
        if g != 1:
            a //= g
            b //= g
        if b != 1:
            for j in u:
                u[j] *= b
        for j, x in w.items():
            t = u.get(j, 0) - a * x
            if t:
                u[j] = t
            else:
                del u[j]
        return b

    def _normalise(self, v, piv):
        """Scale the row v in place to the stored form, pivot at piv: over Q
        primitive with a positive pivot, over F_p with pivot 1."""
        p = self.p
        if p is None:
            g = gcd(*v.values())
            if v[piv] < 0:
                g = -g
            if g != 1:
                for j in v:
                    v[j] //= g
        elif v[piv] != 1:
            inv = pow(v[piv], -1, p)
            for j in v:
                v[j] = v[j] * inv % p

    def _reduce(self, v, s):
        """Reduce the integer row v / s against the rows, in place; returns
        the new scale.  One pass: the rows are zero at each other's pivots."""
        rows = self.rows
        for c in [c for c in v if c in rows]:
            row = rows[c]
            s *= self._combine(v, v[c], row, row[c])
        return s

    def reduce(self, vec):
        v, s = self._ints(vec)
        s = self._reduce(v, s)
        return self._scalars(v, s)

    def insert(self, vec):
        """Add vec to the span; returns True if the dimension grew."""
        v, s = self._ints(vec)
        self._reduce(v, s)
        if not v:
            return False
        piv = min(v)
        self._normalise(v, piv)
        b = v[piv]
        rows, cols = self.rows, self.cols
        hits = cols.pop(piv, ())
        for j in v:
            cols.setdefault(j, set()).add(piv)
        # keep existing rows fully reduced against the new pivot; a row
        # changes only at v's columns, each of which now lists piv
        for c in hits:
            row = rows[c]
            self._combine(row, row[piv], v, b)
            self._normalise(row, c)
            for j in v:
                if j in row:
                    cols[j].add(c)
                else:
                    cols[j].discard(c)
        rows[piv] = v
        return True

    def contains(self, vec):
        v, s = self._ints(vec)
        self._reduce(v, s)
        return not v

    def extend(self, vecs):
        for v in vecs:
            self.insert(v)
        return self

    def basis(self):
        rows = self.rows
        return [self._scalars(rows[c], rows[c][c]) for c in sorted(rows)]


def _row_span(field, cols):
    return SpanReducer(field).extend(transpose(cols).values())


def rank(field, cols):
    """Rank of the map with columns cols."""
    return _row_span(field, cols).dim


def pivot_pairs(field, cols):
    """The pivot each column adds to the span of the columns before it.

    cols are inserted in the order given; entry j is the row index that
    became a pivot when cols[j] was inserted, or None if cols[j] lies in the
    span of cols[:j].  Pivots are least row indices, so for every prefix of
    the columns and every prefix of the rows the number of pairs inside is
    the rank of that submatrix.  With columns in filtration order and rows
    in increasing filtration, these are the pairs of a filtered complex (its
    persistence pairing)."""
    red = SpanReducer(field)
    # rows only gain keys, so the last key of red.rows is the newest pivot
    return [next(reversed(red.rows)) if red.insert(col) else None
            for col in cols]


def homology_dims(field, dims, maps):
    """{x: dims[x] - rank out of x - rank into x} over the indices of dims.

    dims maps each chain group of a complex to its dimension; maps yields
    (source, target, columns) once per differential, and each is ranked
    once.  A source or target that is not in dims is passed over."""
    out = dict(dims)
    for src, tgt, cols in maps:
        r = rank(field, cols)
        for x in (src, tgt):
            if x in out:
                out[x] -= r
    return out


def kernel_basis(field, cols):
    """Basis of the null space of the map with columns cols, as sparse dict
    vectors over the columns.

    One basis vector per free column, in increasing column order; each has a
    1 at its free column (deterministic for a fixed input).
    """
    red = _row_span(field, cols)
    basis = {f: {f: field.one} for f in range(len(cols))
             if f not in red.rows}
    # each reduced row gives the pivot coordinate of every free column in it
    for c in red.pivots:
        row = red.rows[c]
        neg = red._scalars({f: -x for f, x in row.items() if f != c}, row[c])
        for f, x in neg.items():
            basis[f][c] = x
    return list(basis.values())


NO_SOLUTION = None  # what solve returns when rhs is not in the image


def solve(field, cols, rhs):
    """A particular solution x of sum_j x_j cols[j] = rhs, or NO_SOLUTION.

    cols are the columns of a map and rhs is a sparse dict over its rows.
    x is supported on the columns independent of the columns before them,
    so free variables are zero and the answer is deterministic.  cols is
    only read: callers hand in shared caches.
    """
    # Column j is copied in increasing row order (so neither the reduction
    # nor the answer depends on the order its producer built it in) and
    # extended by its own index as the extra coordinate off + j, past every
    # row index, so every reduced row records the combination of columns it
    # came from.  Inserting only columns independent of the earlier ones
    # keeps the free variables at zero.
    off = 1 + max((i for v in (*cols, rhs) for i in v), default=-1)
    red = SpanReducer(field)
    one = field.one
    for j, col in enumerate(cols):
        v = {i: col[i] for i in sorted(col)}
        v[off + j] = one
        v = red.reduce(v)
        if min(v) < off:
            red.insert(v)
    # rhs - sum x_j col_j reduces to zero over the rows, leaving -x behind
    v = red.reduce(rhs)
    if any(i < off for i in v):
        return NO_SOLUTION
    return {i - off: -x for i, x in v.items()}


def quotient_basis(field, ambient_dim, vectors):
    """Complement representatives and projection for ambient / span(vectors).

    Returns (reps, project): reps is a list of sparse standard basis vectors
    e_j for the non-pivot columns j of the subspace span; project maps any
    ambient sparse vector to its coordinate list in the quotient basis.
    """
    red = SpanReducer(field).extend(vectors)
    pivset = set(red.rows)
    free = [j for j in range(ambient_dim) if j not in pivset]
    reps = [{j: field.one} for j in free]
    zero = field.zero

    def project(vec):
        r = red.reduce(vec)
        return [r.get(j, zero) for j in free]

    return reps, project
