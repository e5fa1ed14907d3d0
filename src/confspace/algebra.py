"""Finite graded-commutative algebras and truncated free CDGAs.

Two concrete carriers share one graded basis (``field``, ``labels``,
``degrees``, ``unit``, held by :class:`_GradedBasis`) and one small protocol
(``mul_basis``, ``d_basis``, ``multiply``, ``differentiate``):

* :class:`Algebra` - basis plus structure constants, optional differential,
  optional top class.  All axioms are checked at construction time.
* :class:`TruncatedFreeCDGA` - free graded-commutative algebra on a finite
  set of generators, expanded into a monomial basis up to a truncation
  bound.  Products are computed exactly in the free algebra; a nonzero
  component above the bound raises :class:`Overflow` rather than being
  dropped.

The carrier contract: tables in exact constants, elements in field
scalars.  ``mul_basis`` and ``d_basis`` return the carrier's one table of
structure constants, as ``Field.exact`` keeps them (ints, and Fractions
only where fractional, over Q; residues over F_p), which both spectral
sequences and the Massey products sum over.  The dicts are shared with the
carrier (the truncated CDGA keeps each product and each d of a basis
monomial once computed), so callers must not mutate them.  A truncated
carrier raises ``Overflow`` on every call whose result escapes the bound;
no such result is ever kept.  Elements are sparse dicts ``{basis_index:
scalar}``: ``multiply`` and ``differentiate`` sum over the table and
convert once with ``Field.scalars``.
"""

from functools import cached_property

from .exactlinalg import (column_reduction, quotient_basis, subquotient,
                          NO_SOLUTION)


class AxiomViolation(ValueError):
    def __init__(self, axiom, witnesses):
        self.axiom = axiom
        self.witnesses = witnesses
        super().__init__("axiom %r violated at %r" % (axiom, witnesses))


class DegeneratePairing(ValueError):
    def __init__(self, degree):
        self.degree = degree
        super().__init__("Poincare pairing degenerate in degree %d" % degree)


class Overflow(ArithmeticError):
    """A nonzero product or differential escaped the truncation bound."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__("nonzero component in degree %d exceeds the truncation bound"
                         % degree)


def sign(k):
    return -1 if k % 2 else 1


def koszul(p, q):
    """(-1)^{p q}."""
    return -1 if (p % 2) and (q % 2) else 1


# ---------------------------------------------------------------------------
# element helpers (sparse dicts over basis indices)

def el_degree(alg, u):
    """Degree of a homogeneous element; None for 0, error if mixed."""
    degs = {alg.degrees[i] for i in u}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("element not homogeneous: degrees %r" % sorted(degs))
    return degs.pop()


def format_element(alg, u):
    if not u:
        return "0"
    parts = []
    for i in sorted(u):
        c = u[i]
        lab = alg.labels[i]
        parts.append(lab if c == alg.field.one else "%s*%s" % (c, lab))
    return " + ".join(parts)


class _GradedBasis:
    """The graded basis of a carrier: basis index -> label and degree."""

    def __init__(self, field, labels, degrees, unit):
        self.field = field
        self.labels = labels
        self.degrees = degrees
        self.unit = unit
        self._by_degree = {}
        for i, d in enumerate(degrees):
            self._by_degree.setdefault(d, []).append(i)

    @property
    def dim(self):
        return len(self.labels)

    @cached_property
    def q_data(self):
        """``indecomposables`` of this carrier, made on first use."""
        return indecomposables(self)

    def basis_of_degree(self, d):
        return self._by_degree.get(d, [])

    def positive_indices(self):
        return [i for i, d in enumerate(self.degrees) if d > 0]

    def element(self, label):
        return {self.labels.index(label): self.field.one}


class Algebra(_GradedBasis):
    """Graded-commutative algebra given by a basis and structure constants."""

    def __init__(self, name, field, basis, unit, products,
                 differential=None, top=None):
        """basis: sequence of (label, degree).  products: dict
        (i, j) -> element; missing (j, i) entries are filled in by graded
        commutativity, missing unit products by unitality, anything else
        defaults to zero.  Each constant, an int, a Fraction or a scalar of
        this field, is kept as the exact ``field.lift(field.of(c))``."""
        super().__init__(field, [lab for lab, _ in basis],
                         [deg for _, deg in basis], unit)
        self.name = name
        self.top = top
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise AxiomViolation("distinct labels", self.labels)

        def exact(el):
            return field.exact({k: field.lift(field.of(c))
                                for k, c in el.items()})

        prods = {ij: exact(el) for ij, el in products.items()}
        for i in range(n):
            prods.setdefault((self.unit, i), {i: 1})
            prods.setdefault((i, self.unit), {i: 1})
        for i in range(n):
            for j in range(n):
                if (i, j) not in prods:
                    s = koszul(self.degrees[i], self.degrees[j])
                    prods[(i, j)] = exact({k: s * c for k, c
                                           in prods.get((j, i), {}).items()})
        self.products = prods
        self.differential = None
        if differential:
            self.differential = {i: exact(el)
                                 for i, el in differential.items() if el}
        self._check_axioms()

    # -- protocol ----------------------------------------------------------
    # a finite algebra is complete: slices beyond the top are truly zero
    is_truncation = False

    def mul_basis(self, i, j):
        return self.products[(i, j)]

    def d_basis(self, i):
        if self.differential is None:
            return {}
        return self.differential.get(i, {})

    @property
    def has_differential(self):
        return self.differential is not None and any(self.differential.values())

    def multiply(self, u, v):
        f = self.field
        return f.scalars(f.combine(
            lambda i: f.combine(lambda j: self.products[(i, j)], v), u))

    def differentiate(self, u):
        return self.field.scalars(self.field.combine(self.d_basis, u))

    @property
    def max_degree(self):
        return max(self.degrees)

    # -- load-time checks ---------------------------------------------------
    def _check_axioms(self):
        f = self.field
        degs = self.degrees
        prods = self.products
        if degs[self.unit] != 0:
            raise AxiomViolation("unit in degree 0", self.unit)
        if len(self.basis_of_degree(0)) != 1:
            raise AxiomViolation("degree-0 component is one-dimensional",
                                 self.basis_of_degree(0))
        n = self.dim
        for (i, j), el in prods.items():
            for k in el:
                if degs[k] != degs[i] + degs[j]:
                    raise AxiomViolation("degree additivity", (i, j, k))
        for i in range(n):
            if prods[(self.unit, i)] != {i: 1}:
                raise AxiomViolation("unit acts as identity", i)
        for i in range(n):
            for j in range(n):
                s = koszul(degs[i], degs[j])
                if prods[(j, i)] != f.exact({k: s * c for k, c
                                             in prods[(i, j)].items()}):
                    raise AxiomViolation("graded commutativity", (i, j))
        for i in range(n):
            for j in range(n):
                ij = prods[(i, j)]
                for k in range(n):
                    jk = prods[(j, k)]
                    if not ij and not jk:
                        continue   # both sides are 0
                    left = f.combine(lambda a: prods[(a, k)], ij)
                    right = f.combine(lambda b: prods[(i, b)], jk)
                    if left != right:
                        raise AxiomViolation("associativity", (i, j, k))
        if self.differential is not None:
            for i, el in self.differential.items():
                for k in el:
                    if degs[k] != degs[i] + 1:
                        raise AxiomViolation("differential has degree +1", (i, k))
            for i in range(n):
                if f.combine(self.d_basis, self.d_basis(i)):
                    raise AxiomViolation("d o d = 0", i)
            for i in range(n):
                for j in range(n):
                    # d(i j) = d(i) j + (-1)^|i| i d(j)
                    lhs = f.combine(self.d_basis, prods[(i, j)])
                    rhs = f.combine(lambda a: prods[(a, j)], self.d_basis(i))
                    s = sign(degs[i])
                    for k, x in f.combine(lambda b: prods[(i, b)],
                                          self.d_basis(j)).items():
                        rhs[k] = rhs.get(k, 0) + s * x
                    if lhs != f.exact(rhs):
                        raise AxiomViolation("Leibniz rule", (i, j))


# ---------------------------------------------------------------------------
# Poincare duality data

class PoincareData:
    """Dual basis, diagonal and pairing table of a Poincare duality algebra."""

    def __init__(self, algebra, m, dual, diagonal, pairing):
        self.algebra = algebra
        self.m = m
        self.dual = dual          # list: basis index -> dual element (dict)
        self.diagonal = diagonal  # list of (i, j, scalar) for delta in A (x) A
        # list: basis index c -> [(b, top coefficient of c b)] over the b
        # where it is nonzero, in increasing b
        self.pairing = pairing


def poincare_data(alg):
    """Dual basis {e_t'} with e_t * e_t' = top, the diagonal class
    delta = sum_t (-1)^{|e_t'|} e_t (x) e_t', and the pairing table."""
    if alg.top is None:
        raise ValueError("algebra %r has no top class" % alg.name)
    if alg.has_differential:
        raise ValueError("Poincare data requires a zero differential")
    f = alg.field
    m = alg.degrees[alg.top]
    if alg.basis_of_degree(m) != [alg.top]:
        raise DegeneratePairing(m)
    if any(d > m for d in alg.degrees):
        raise DegeneratePairing(m)
    dual = [None] * alg.dim
    pairing = [[] for _ in range(alg.dim)]
    for p in sorted(set(alg.degrees)):
        rows_idx = alg.basis_of_degree(p)
        cols_idx = alg.basis_of_degree(m - p)
        if len(rows_idx) != len(cols_idx):
            raise DegeneratePairing(p)
        # columns of the pairing: entry (r, c) is the top coefficient of
        # rows_idx[r] * cols_idx[c]
        cols = []
        for j in cols_idx:
            col = {}
            for r, i in enumerate(rows_idx):
                val = alg.mul_basis(i, j).get(alg.top)
                if val:
                    col[r] = val
                    pairing[i].append((j, val))
            cols.append(col)
        _, preimage = column_reduction(f, cols)
        for r, i in enumerate(rows_idx):
            x = preimage({r: f.one})
            if x is NO_SOLUTION:
                raise DegeneratePairing(p)
            dual[i] = {cols_idx[c]: v for c, v in x.items()}
    diagonal = []
    for t in range(alg.dim):
        s = f.of(sign(m - alg.degrees[t]))
        for j, c in sorted(dual[t].items()):
            diagonal.append((t, j, s * c))
    return PoincareData(alg, m, dual, diagonal, pairing)


def indecomposables(alg):
    """Basis and projection for Q = A+/(A+ . A+).

    Returns (reps, project): reps are elements of A+ whose classes form a
    basis of Q; project maps any element to its Q-coordinate list (the unit
    coefficient is discarded)."""
    pos = alg.positive_indices()
    local = {i: p for p, i in enumerate(pos)}
    prods = []
    for i in pos:
        for j in pos:
            prod = alg.mul_basis(i, j)
            if prod:
                prods.append({local[k]: c for k, c in prod.items()})
    qreps, qproject = quotient_basis(alg.field, len(pos), prods)
    reps = [{pos[p]: c for p, c in r.items()} for r in qreps]

    def project(u):
        return qproject({local[i]: c for i, c in u.items() if i in local})

    return reps, project


# ---------------------------------------------------------------------------
# truncated free CDGA

def _mono_degree(mono, gdeg):
    return sum(gdeg[g] for g in mono)


def _mono_mul(m1, m2, godd):
    """Product of two normal-ordered monomials: (monomial, sign) or None."""
    o1 = [g for g in m1 if godd[g]]
    inv = 0
    for g in m2:
        if godd[g]:
            if g in o1:
                return None
            inv += sum(1 for h in o1 if h > g)
    merged = tuple(sorted(m1 + m2))
    return merged, sign(inv)


class TruncatedFreeCDGA(_GradedBasis):
    """Free graded-commutative algebra on finite generators, truncated.

    Odd generators are exterior, even generators polynomial.  The monomial
    basis contains every degree <= bound; products and differentials are
    evaluated exactly in the free algebra, in exact constants, and any
    nonzero component above the bound raises Overflow."""

    def __init__(self, name, field, generators, d_gens, bound):
        """generators: sequence of (label, degree > 0).  d_gens: dict
        label -> list of (tuple of generator labels, int coeff), the
        differential of that generator as a sum of monomials."""
        self.name = name
        self.gen_labels = [lab for lab, _ in generators]
        self.gen_degrees = [deg for _, deg in generators]
        if any(d <= 0 for d in self.gen_degrees):
            raise ValueError("generator degrees must be positive")
        self.gen_odd = [d % 2 == 1 for d in self.gen_degrees]
        if bound < max(self.gen_degrees):
            raise ValueError("bound below a generator degree")
        self.bound = bound
        self._monomials = self._enumerate(bound)
        self._index = {m: i for i, m in enumerate(self._monomials)}
        super().__init__(
            field, [self._mono_label(m) for m in self._monomials],
            [_mono_degree(m, self.gen_degrees) for m in self._monomials],
            self._index[()])
        self.top = None
        self._mul = {}   # (i, j) -> product of monomials i and j, once made
        self._d = {}     # basis index -> d of that monomial, once computed
        # differential on generators, as monomial dicts of exact constants
        self.d_on_gens = {}
        for lab, terms in (d_gens or {}).items():
            g = self.gen_labels.index(lab)
            el = {}
            for mono_labels, coeff in terms:
                mono = tuple(sorted(self.gen_labels.index(x) for x in mono_labels))
                if _mono_degree(mono, self.gen_degrees) != self.gen_degrees[g] + 1:
                    raise AxiomViolation("differential has degree +1", (lab, mono_labels))
                el[mono] = el.get(mono, 0) + field.lift(field.of(coeff))
            self.d_on_gens[g] = field.exact(el)
        for g, dg in self.d_on_gens.items():
            if field.exact(self._d_monomials(dg)):
                raise AxiomViolation("d o d = 0", self.gen_labels[g])

    def _enumerate(self, bound):
        monos = [()]
        for g, deg in enumerate(self.gen_degrees):
            ext = []
            for m in monos:
                d0 = _mono_degree(m, self.gen_degrees)
                kmax = 1 if self.gen_odd[g] else (bound - d0) // deg
                for k in range(1, kmax + 1):
                    ext.append(m + (g,) * k)
            monos.extend(ext)
        monos.sort(key=lambda m: (_mono_degree(m, self.gen_degrees), m))
        return monos

    def _mono_label(self, mono):
        if not mono:
            return "1"
        parts = []
        for g in sorted(set(mono)):
            k = mono.count(g)
            parts.append(self.gen_labels[g] if k == 1
                         else "%s^%d" % (self.gen_labels[g], k))
        return "*".join(parts)

    # -- protocol ----------------------------------------------------------
    # slices beyond the bound are cut off, not zero
    is_truncation = True

    @property
    def has_differential(self):
        return any(self.d_on_gens.values())

    @property
    def max_degree(self):
        return self.bound

    def index_of(self, mono):
        return self._index[mono]

    def _collect(self, acc):
        """Monomial dict of exact sums -> basis-index element of exact
        constants (``Field.exact``); Overflow on escape."""
        out = {}
        for mono, c in self.field.exact(acc).items():
            i = self._index.get(mono)
            if i is None:
                raise Overflow(_mono_degree(mono, self.gen_degrees))
            out[i] = c
        return out

    def mul_basis(self, i, j):
        """Product of basis monomials i and j, computed on first use and
        kept, like ``d_basis``."""
        prod = self._mul.get((i, j))
        if prod is None:
            res = _mono_mul(self._monomials[i], self._monomials[j],
                            self.gen_odd)
            prod = self._mul[(i, j)] = {} if res is None else \
                self._collect({res[0]: res[1]})
        return prod

    def multiply(self, u, v):
        lift = self.field.lift
        acc = {}
        for i, a in u.items():
            a = lift(a)
            for j, b in v.items():
                res = _mono_mul(self._monomials[i], self._monomials[j], self.gen_odd)
                if res is not None:
                    mono, s = res
                    acc[mono] = acc.get(mono, 0) + s * a * lift(b)
        return self.field.scalars(self._collect(acc))

    def _d_monomials(self, el):
        """Differential of a monomial dict, as a monomial dict of exact sums
        (unbounded): the Leibniz rule applied generator by generator."""
        acc = {}
        for mono, a in el.items():
            for pos, g in enumerate(mono):
                dg = self.d_on_gens.get(g)
                if not dg:
                    continue
                pre = mono[:pos]
                post = mono[pos + 1:]
                s0 = sign(sum(self.gen_degrees[h] for h in pre))
                for dm, c in dg.items():
                    r1 = _mono_mul(pre, dm, self.gen_odd)
                    if r1 is None:
                        continue
                    m1, s1 = r1
                    r2 = _mono_mul(m1, post, self.gen_odd)
                    if r2 is None:
                        continue
                    m2, s2 = r2
                    acc[m2] = acc.get(m2, 0) + s0 * s1 * s2 * c * a
        return acc

    def d_basis(self, i):
        """d of basis monomial i, computed on first use and kept; shared, so
        callers must not mutate it.  Overflow is never kept: a monomial
        whose differential escapes the bound raises on every call."""
        if i not in self._d:
            self._d[i] = self._collect(
                self._d_monomials({self._monomials[i]: 1}))
        return self._d[i]

    def differentiate(self, u):
        lift = self.field.lift
        return self.field.scalars(self._collect(self._d_monomials(
            {self._monomials[i]: lift(a) for i, a in u.items()})))


# ---------------------------------------------------------------------------
# cohomology of a finite CDGA carrier

class CochainView:
    """Degreewise view of a carrier's underlying cochain complex.

    Each degree's slice positions, the columns of d out of it and their
    ``d_reduction`` are built on first use and kept, in every degree the
    carrier has: ``max_degree`` bounds the cohomology computed, not the
    degrees ``solve_d`` reaches.
    A truncated carrier needs max_degree + 1 within its bound so cocycles
    in the top requested degree are detected correctly."""

    def __init__(self, carrier, max_degree):
        if carrier.is_truncation and max_degree + 1 > carrier.max_degree:
            raise ValueError("max_degree + 1 exceeds the carrier's degree range")
        self.carrier = carrier
        self.max_degree = max_degree
        self._pos = {}     # degree -> {basis index: position in the slice}
        self._dcols = {}   # degree k -> columns of d: k -> k+1
        self._dred = {}    # degree k -> column_reduction of _dcols[k]

    def _slice_pos(self, k):
        if k not in self._pos:
            self._pos[k] = {i: p for p, i in
                            enumerate(self.carrier.basis_of_degree(k))}
        return self._pos[k]

    def local(self, u, k):
        pos = self._slice_pos(k)
        return {pos[i]: c for i, c in u.items()}

    def unlocal(self, v, k):
        idx = self.carrier.basis_of_degree(k)
        return {idx[p]: c for p, c in v.items()}

    def d_columns(self, k):
        """Columns of d: degree k -> k+1 in the slice bases."""
        if k not in self._dcols:
            self._dcols[k] = [self.local(self.carrier.d_basis(i), k + 1)
                              for i in self.carrier.basis_of_degree(k)]
        return self._dcols[k]

    def d_reduction(self, k):
        """(cocycles, preimage), the ``column_reduction`` of d: k -> k+1:
        the kernel ``cohomology`` reads and the map ``solve_d`` reads."""
        if k not in self._dred:
            self._dred[k] = column_reduction(self.carrier.field,
                                             self.d_columns(k))
        return self._dred[k]

    def solve_d(self, target):
        """x with d(x) = target, or NO_SOLUTION.  target must be homogeneous."""
        if not target:
            return {}
        k = el_degree(self.carrier, target) - 1
        x = self.d_reduction(k)[1](self.local(target, k + 1))
        if x is NO_SOLUTION:
            return NO_SOLUTION
        return self.unlocal(x, k)


class CohomologyAlgebra(Algebra):
    """Cohomology of a CDGA carrier, with the chosen cocycle representative
    of every class kept for secondary-operation (Massey) computations."""

    def __init__(self, name, field, basis, unit, products, top,
                 representatives, view, class_coords):
        super().__init__(name, field, basis, unit, products, top=top)
        self.representatives = representatives  # index -> cochain in carrier
        self.view = view
        # (cocycle w, its degree k) -> {class: c}; k at most max_degree
        self.class_coords = class_coords

    @property
    def ambient(self):
        return self.view.carrier

    def class_of(self, cocycle):
        """Cohomology class of a cocycle, as an element of this algebra."""
        if not cocycle:
            return {}
        k = el_degree(self.ambient, cocycle)
        if k > self.view.max_degree:
            raise ValueError("degree %d is above the computed range (%d)"
                             % (k, self.view.max_degree))
        x = self.class_coords(cocycle, k)
        if x is NO_SOLUTION:
            raise ValueError("not a cocycle (or representative set incomplete)")
        return x


def cohomology(carrier, max_degree):
    """Cohomology algebra of a carrier up to max_degree, with representatives.

    A carrier without differential is returned as-is conceptually: the result
    has the same dimensions and products degree by degree."""
    view = CochainView(carrier, max_degree)
    f = carrier.field
    reps = []
    degrees = []
    # degree k -> (coords over the cocycle basis, class of each picked one):
    # the classes are the cocycles independent modulo the boundaries
    classes = {}
    for k in range(max_degree + 1):
        cocycles, _ = view.d_reduction(k)
        picked, coords = subquotient(
            f, len(carrier.basis_of_degree(k)),
            view.d_columns(k - 1) if k > 0 else (), cocycles)
        classes[k] = coords, {j: len(reps) + t for t, j in enumerate(picked)}
        reps += [view.unlocal(cocycles[j], k) for j in picked]
        degrees += [k] * len(picked)

    def class_coords(w, k):
        coords, cls = classes[k]
        x = coords(view.local(w, k))
        return x if x is NO_SOLUTION else {cls[j]: c for j, c in x.items()}

    # labels from the representatives, the carrier label for single monomials
    labels = []
    for rep, k in zip(reps, degrees):
        if k == 0:
            labels.append("1")
        elif len(rep) == 1:
            labels.append("[%s]" % carrier.labels[next(iter(rep))])
        else:
            labels.append("[%s]" % format_element(carrier, rep))
    seen = set()
    for idx, lab in enumerate(labels):
        if lab in seen:
            labels[idx] = lab + "_%d" % idx
        seen.add(labels[idx])
    # degree 0 is spanned by the carrier unit, so it is the one class there
    unit = degrees.index(0)
    products = {}
    for i, ki in enumerate(degrees):
        for j, kj in enumerate(degrees):
            w = carrier.multiply(reps[i], reps[j])
            k = ki + kj
            if not w:
                products[(i, j)] = {}
            elif k <= max_degree:
                products[(i, j)] = class_coords(w, k)
                assert products[(i, j)] is not NO_SOLUTION
            else:
                # above the computed range the product must be exact
                if view.solve_d(w) is NO_SOLUTION:
                    raise Overflow(k)
                products[(i, j)] = {}
    top = None
    pos_degrees = [k for k in degrees if k > 0]
    if pos_degrees:
        mtop = max(pos_degrees)
        top_classes = [i for i, k in enumerate(degrees) if k == mtop]
        if len(top_classes) == 1:
            top = top_classes[0]
    return CohomologyAlgebra("H(%s)" % carrier.name, f,
                             list(zip(labels, degrees)), unit, products, top,
                             reps, view, class_coords)


# ---------------------------------------------------------------------------
# connected sum model

def connected_sum_model(alg, m):
    """Model of the connected sum with S^2 x S^{m-2}.

    Fibre product of alg with the cohomology of the sphere product over the
    ground field, with the top class of alg identified with the product of
    the two new sphere classes (labelled ``sx`` and ``sy``)."""
    if alg.top is None:
        raise ValueError("connected sum needs a top class")
    if alg.degrees[alg.top] != m:
        raise ValueError("top class is not in degree %d" % m)
    if m < 5:
        raise ValueError("need m >= 5 so the sphere factors have distinct degrees")
    f = alg.field
    n = alg.dim
    basis = list(zip(alg.labels, alg.degrees)) + [("sx", 2), ("sy", m - 2)]
    # every other product with sx or sy is zero or follows by graded
    # commutativity and unitality, which Algebra fills in (copying each
    # element, and the differential, so alg is left as it is)
    products = dict(alg.products)
    products[(n, n + 1)] = {alg.top: 1}
    return Algebra("%s#(S2xS%d)" % (alg.name, m - 2), f, basis, alg.unit,
                   products, differential=alg.differential, top=alg.top)


def tensor_algebra(a, b, name=None):
    """Graded tensor product of two finite carriers given as Algebras."""
    if a.field != b.field:
        raise ValueError("mixed fields")
    f = a.field
    basis = []
    idx = {}
    for i in range(a.dim):
        for j in range(b.dim):
            li = a.labels[i] if i != a.unit else ""
            lj = b.labels[j] if j != b.unit else ""
            lab = (li + lj) or "1"
            idx[(i, j)] = len(basis)
            basis.append((lab, a.degrees[i] + b.degrees[j]))
    unit = idx[(a.unit, b.unit)]
    # the constructor reduces these sums of exact constants
    products = {}
    for (i1, j1), p in idx.items():
        for (i2, j2), q in idx.items():
            s = koszul(b.degrees[j1], a.degrees[i2])
            el = {}
            for k1, c1 in a.mul_basis(i1, i2).items():
                for k2, c2 in b.mul_basis(j1, j2).items():
                    k = idx[(k1, k2)]
                    el[k] = el.get(k, 0) + s * c1 * c2
            products[(p, q)] = el
    differential = {}
    for (i, j), p in idx.items():
        el = {idx[(k, j)]: c for k, c in a.d_basis(i).items()}
        s = sign(a.degrees[i])
        for k, c in b.d_basis(j).items():
            el[idx[(i, k)]] = el.get(idx[(i, k)], 0) + s * c
        if el:
            differential[p] = el
    top = None
    if a.top is not None and b.top is not None:
        top = idx[(a.top, b.top)]
    return Algebra(name or "%s x %s" % (a.name, b.name), f, basis, unit,
                   products, differential=differential or None, top=top)
