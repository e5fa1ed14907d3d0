"""Exact linear algebra over the rationals or a prime field.

Everything downstream (bicomplex differentials, spectral-sequence pages,
Massey defining systems) reduces to rank / kernel / solve / quotient over an
exact field, so no floating point appears anywhere in this package.  Vectors
are sparse ``{index: scalar}`` dicts, either of field scalars (``Fraction``
over Q, ``FpElement`` over F_p) or of exact constants: ints, and Fractions
only where a constant is fractional, over Q; residues mod p over F_p.
``Field`` owns the exact constants: ``lift`` takes a scalar to one (and
leaves one unchanged), ``exact`` drops sums of them that are 0 in the field
(reducing them mod p), ``combine`` applies a map given by exact images of
basis vectors, summing the lifted products and reducing once, and
``scalars`` is the one place such sums become field scalars.  A linear
map is the list of its columns, each such a dict over the rows;
``transpose`` is the one place columns become rows, for the duality
check's adjointness test.
Every elimination runs through one kernel, ``SpanReducer``: an incremental
row echelon form whose rows are stored as inserted, as ``{col: int}`` dicts,
fraction-free and primitive over Q and residues mod p over F_p, so
elimination does no scalar-object arithmetic.  ``insert`` reduces a new
vector only until its least index is no pivot and stores it there (the
persistence reduction); every other reduction clears every pivot.  It
takes vectors of either kind, and an all-int one goes in as a copy, so
the D columns of a bicomplex reach it with no field scalar formed; field
scalars are formed only where its rows or reductions are read.
``pivot_pairs`` reduces the columns of a map in the order given, and every
rank is its number of pairs.  ``subquotient`` reduces a list of
relations and then each of a list of candidates once, extended by its own
index past every row index, so that every reduced row records the
combination of candidates it is (the recorded reduction R = D V); classes,
class coordinates and quotients (``quotient_basis``) are read off it.
``column_reduction`` is its one reader for a column list with no
relations: the kernel basis, from the reductions of the columns it does
not pick, and the preimage map, one reduction per right-hand side.
``kernel_basis`` and ``solve`` read it, and so do the spectral sequence's
cycle spaces, a carrier's cocycles and d-preimages (one per degree) and
its Poincare dual bases.  No homology is ranked here:
every page dimension, the reports' and the duality check's among them, is
read off the pairing of ``spectral``.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
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
        # the symmetric residue, so -1 prints as it does over Q
        return "%d" % (self.v - self.p if 2 * self.v > self.p else self.v)


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
        # built once and shared: the scalars are immutable
        self.zero = Fraction(0) if p is None else FpElement(p, 0)
        self.one = Fraction(1) if p is None else FpElement(p, 1)

    @property
    def name(self):
        return "Q" if self.p is None else "F%d" % self.p

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
        is integral, else the Fraction.  An exact constant is returned
        unchanged (over F_p an int is already a residue)."""
        if type(c) is int:
            return c
        if self.p is not None:
            return c.v
        return c.numerator if c.denominator == 1 else c

    def scalars(self, acc, s=1):
        """The exact sums acc divided by the int s, as field scalars, without
        the entries that are 0 in the field; key order is kept."""
        p = self.p
        if p is not None:
            # FpElement reduces each entry, once; its residue is the 0 test
            if s != 1:
                inv = pow(s, -1, p)
                return {k: e for k, x in acc.items()
                        if (e := FpElement(p, x * inv)).v}
            return {k: e for k, x in acc.items() if (e := FpElement(p, x)).v}
        # one-argument Fraction costs half what Fraction(x, 1) does
        if s == 1:
            return {k: Fraction(x) for k, x in acc.items() if x}
        return {k: Fraction(x, s) for k, x in acc.items() if x}

    def exact(self, acc):
        """The exact sums acc without the entries that are 0 in the field,
        taken mod p over F_p."""
        p = self.p
        if p is None:
            return {k: x for k, x in acc.items() if x}
        return {k: r for k, x in acc.items() if (r := x % p)}

    def combine(self, image, vec):
        """sum_i vec[i] image(i) in exact constants: image(i) holds exact
        constants and vec field scalars or exact constants; the lifted
        products are summed and the sums reduced once (``exact``)."""
        lift = self.lift
        acc = {}
        for i, c in vec.items():
            c = lift(c)
            for j, x in image(i).items():
                acc[j] = acc.get(j, 0) + c * x
        return self.exact(acc)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(%s)" % self.name


QQ = Field()

_INT = frozenset((int,))  # the entry types of an all-int vector


# ---------------------------------------------------------------------------
# sparse vectors: plain dicts {index: nonzero scalar}

def vec_iadd(u, v, c=None):
    """u += c*v in place (c defaults to 1); returns u."""
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
    """Incremental row echelon span of sparse vectors.

    Each row is stored as it is inserted, keyed by its pivot, its least
    index, and never changes after (no back-substitution, as in the
    persistence reduction).  ``insert`` clears pivots least first only
    while the least index is one, so the row it stores may hold entries at
    later pivots.  ``reduce`` and ``contains`` clear every pivot, so the
    remainder is the unique one that is zero at every pivot; ``basis``
    builds the reduced row echelon form when it is read.

    Inside, rows are ``{col: int}`` dicts and elimination never builds a
    field scalar: over Q each row is primitive (content gcd 1) with a
    positive pivot, and a step R <- b*R - a*v is taken fraction-free, after
    cancelling gcd(a, b); over F_p each row holds residues in [0, p) with
    pivot 1.  ``insert``, ``contains`` and ``reduce`` take field scalars
    or exact constants (see ``_ints``).  Field scalars appear only at the
    boundary: ``reduce`` and ``basis`` return ``Fraction`` or ``FpElement``
    values.
    """

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.rows = {}  # pivot col -> integer row dict

    @property
    def dim(self):
        return len(self.rows)

    def _ints(self, vec):
        """(integer row, scale s) with vec = row / s; over F_p s is 1.

        vec holds field scalars or exact constants: ints, and Fractions
        where a constant is fractional, over Q; residues mod p over F_p,
        as ``Field.exact`` leaves them.  An all-int vec is copied as it
        is, with no per-entry conversion."""
        vals = vec.values()
        # the first entry settles a vector of field scalars at once
        if (type(next(iter(vals), 0)) is int
                and _INT.issuperset(map(type, vals))):
            v, s = dict(vec), 1
        elif self.p is not None:
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

    def _reduce(self, v, s, full=True):
        """Reduce the integer row v / s against the rows, in place; returns
        the new scale.  Pivots are cleared least first: a row has entries
        only from its pivot on, so a cleared pivot never comes back, and
        the remainder is the one that is zero at every pivot.  With full
        false the heap holds every index of v, and the reduction stops at
        the first least index that is no pivot (the persistence
        reduction): v is then a new row with that pivot, and the pivots
        the full reduction would go on to clear lie after it."""
        rows = self.rows
        heap = [c for c in v if c in rows] if full else list(v)
        heapify(heap)
        while heap:
            c = heappop(heap)
            if c in v:
                row = rows.get(c)
                if row is None:
                    break
                for j in row:
                    if j not in v and (j in rows or not full):
                        heappush(heap, j)
                s *= self._combine(v, v[c], row, row[c])
        return s

    def reduce(self, vec):
        v, s = self._ints(vec)
        s = self._reduce(v, s)
        return self.field.scalars(v, s)

    def insert(self, vec):
        """Add vec to the span; returns True if the dimension grew.  The
        new row is stored as soon as its least index is no pivot."""
        v, s = self._ints(vec)
        self._reduce(v, s, full=False)
        if v:
            self._add(v)
        return bool(v)

    def _add(self, v):
        """Store the reduced nonzero int row v, pivot at its least index."""
        piv = min(v)
        self._normalise(v, piv)
        self.rows[piv] = v

    def contains(self, vec):
        v, s = self._ints(vec)
        self._reduce(v, s)
        return not v

    def extend(self, vecs):
        for v in vecs:
            self.insert(v)
        return self

    def basis(self):
        """The reduced row echelon form: each row with pivot 1, reduced
        against the rows after it."""
        out = []
        for c in sorted(self.rows):
            tail = dict(self.rows[c])
            s = self._reduce(tail, tail.pop(c))
            out.append({c: self.field.one} | self.field.scalars(tail, s))
        return out


def pivot_pairs(field, cols):
    """The pivot each column adds to the span of the columns before it.

    cols (field scalars or exact constants, see ``SpanReducer._ints``)
    are inserted in the order given; entry j is the row index that
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


def rank(field, cols):
    """Rank of the map with columns cols: its number of pivot pairs."""
    return sum(j is not None for j in pivot_pairs(field, cols))


NO_SOLUTION = None  # what coords and preimages return off the span


def _tagged_reduction(field, dim, relations, candidates):
    """(picked, coords, dependent): the reduction ``subquotient`` and
    ``column_reduction`` read.

    Candidate j is copied in increasing index order (so neither the
    reduction nor the answer depends on the order its producer built it in)
    and extended by its own index as the extra coordinate dim + j, so every
    reduced row records the combination of candidates it came from.
    Inserting only candidates independent of the span so far keeps every
    pivot below dim and the other candidates' coordinates at zero.  Each
    tagged candidate is reduced once, in ints, clearing every pivot: the
    reduction stores those it picks, and dependent maps every other index
    j to its reduced int row, which lies on the tags alone and records a
    combination of the candidates, with a nonzero tag at dim + j, that
    lies in span(relations).  coords is ``subquotient``'s, and also gives
    NO_SOLUTION for a vector with an index at or past dim."""
    red = SpanReducer(field).extend(relations)
    picked, dependent = [], {}
    for j, cand in enumerate(candidates):
        v, s = red._ints({i: cand[i] for i in sorted(cand)})
        v[dim + j] = s  # the tag, 1 once v is divided by its scale s
        red._reduce(v, s)
        if min(v) < dim:
            red._add(v)
            picked.append(j)
        else:
            dependent[j] = v

    def coords(vec):
        # reducing vec = sum c_j cand_j + relations clears every index
        # below dim and leaves -c_j at dim + j; an index past dim would
        # read as a tag
        if any(i >= dim for i in vec):
            return NO_SOLUTION
        v = red.reduce(vec)
        if any(i < dim for i in v):
            return NO_SOLUTION
        return {i - dim: -x for i, x in v.items()}

    return picked, coords, dependent


def subquotient(field, dim, relations, candidates):
    """(picked, coords) for the classes of candidates modulo relations.

    All vectors are sparse dicts over indices below dim.  picked lists, in
    increasing order, the indices of the candidates independent of the
    relations and of the candidates before them: the greedy choice of
    representatives.  coords(v) is {candidate index: c}, supported on
    picked, with v - sum c candidates[j] in span(relations), or NO_SOLUTION
    when v is not in span(relations + candidates); it is one reduction.
    relations and candidates are only read: callers hand in shared caches.
    """
    picked, coords, _ = _tagged_reduction(field, dim, relations, candidates)
    return picked, coords


def column_reduction(field, cols):
    """(kernel, preimage) of the map with columns cols, both read off one
    tagged reduction of the columns (``subquotient`` with no relations,
    its row indices read off cols); cols are only read.

    kernel is the basis of the null space, as sparse dict vectors over the
    columns: one vector per column the reduction does not pick (a free
    column), in increasing column order, 1 at that column, then minus its
    coords on the picked columns, in increasing order.  This is the
    canonical basis read off the reduced row echelon form of the map; the
    tagged reduction of a free column is that vector scaled by its tag.

    preimage(rhs) is a particular solution x of sum_j x_j cols[j] = rhs,
    supported on the picked columns (free variables are zero), or
    NO_SOLUTION when rhs is off the span or has an entry at a row that no
    column reaches; each is one reduction.
    """
    dim = 1 + max((i for v in cols for i in v), default=-1)
    _, preimage, dependent = _tagged_reduction(field, dim, (), cols)
    one = field.one
    kernel = [{f: one} | field.scalars({i - dim: v[i] for i in sorted(v)},
                                       v[dim + f])
              for f, v in dependent.items()]
    return kernel, preimage


def solve(field, cols, rhs):
    """A particular solution x of sum_j x_j cols[j] = rhs, or NO_SOLUTION:
    the preimage of ``column_reduction``, in one shot."""
    return column_reduction(field, cols)[1](rhs)


def kernel_basis(field, cols):
    """Basis of the null space of the map with columns cols: the kernel of
    ``column_reduction``."""
    return column_reduction(field, cols)[0]


def quotient_basis(field, ambient_dim, vectors):
    """Complement representatives and projection for ambient / span(vectors).

    Returns (reps, project): reps is a list of sparse standard basis vectors
    e_j for the non-pivot columns j of the subspace span; project maps any
    ambient sparse vector to its coordinate list in the quotient basis.
    The unit vectors go to ``subquotient`` last index first, so that it
    picks exactly those at the non-pivot columns.
    """
    last = ambient_dim - 1
    picked, coords = subquotient(field, ambient_dim, vectors,
                                 [{j: field.one} for j in range(last, -1, -1)])
    free = [last - t for t in reversed(picked)]
    zero = field.zero

    def project(vec):
        x = coords(vec)
        return [x.get(last - j, zero) for j in free]

    return [{j: field.one} for j in free], project
