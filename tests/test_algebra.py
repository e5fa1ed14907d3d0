"""Algebra carriers: axioms, duality data, truncated free CDGAs, cohomology."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confspace.exactlinalg import (QQ, Field, FieldError, FpElement,
                                   NO_SOLUTION, solve)
from confspace.algebra import (
    Algebra, TruncatedFreeCDGA, AxiomViolation, DegeneratePairing, Overflow,
    CochainView, poincare_data, indecomposables, cohomology,
    connected_sum_model, tensor_algebra, el_degree, format_element,
)
from confspace import algebra, catalog

from refvectors import vec_add

ALGS = ["s2", "s3", "t2", "cp2", "s2xs2", "cs_s5"]


# -- axioms -----------------------------------------------------------------

def test_unit_products_autofilled():
    a = catalog.load("s2")
    assert a.mul_basis(0, 1) == {1: QQ.one}
    assert a.mul_basis(1, 0) == {1: QQ.one}


def test_koszul_autofill():
    t2 = catalog.load("t2")
    a = t2.element("a1")
    b = t2.element("a2")
    ab = t2.multiply(a, b)
    ba = t2.multiply(b, a)
    assert ba == {i: -c for i, c in ab.items()}


def test_broken_associativity_rejected():
    # x*x = y but (x*x)*x != x*(x*x) when x*y and y*x disagree
    basis = [("1", 0), ("x", 2), ("y", 4), ("z", 6)]
    products = {(1, 1): {2: QQ.one}, (1, 2): {3: QQ.one}, (2, 1): {},
                (2, 2): {}, (3, 3): {}, (1, 3): {}, (2, 3): {}}
    with pytest.raises(AxiomViolation):
        Algebra("bad", QQ, basis, 0, products)


def test_one_sided_associativity_failure_rejected():
    # (xy)z = 0 but x(yz) = xu = t: the check may skip a triple only when
    # both xy and yz are zero, for then both sides are; every failing
    # triple here has exactly one of the two products zero
    basis = [("1", 0), ("x", 2), ("y", 2), ("z", 2), ("u", 4), ("t", 6)]
    products = {(2, 3): {4: QQ.one}, (1, 4): {5: QQ.one}}
    with pytest.raises(AxiomViolation) as e:
        Algebra("bad", QQ, basis, 0, products)
    assert e.value.axiom == "associativity"


def test_degree_additivity_enforced():
    basis = [("1", 0), ("x", 2)]
    with pytest.raises(AxiomViolation):
        Algebra("bad", QQ, basis, 0, {(1, 1): {1: QQ.one}})


def test_duplicate_labels_rejected():
    with pytest.raises(AxiomViolation):
        Algebra("bad", QQ, [("1", 0), ("1", 2)], 0, {})


# -- duality data -----------------------------------------------------------

def test_sphere_diagonal():
    for m in (2, 3, 4, 5):
        a = catalog.load("sphere(%d)" % m)
        pd = poincare_data(a)
        # delta = omega (x) 1 + (-1)^m 1 (x) omega
        want = sorted([(1, 0, QQ.one), (0, 1, QQ.of((-1) ** m))])
        assert sorted(pd.diagonal) == want


def test_cp2_diagonal_all_plus():
    pd = poincare_data(catalog.load("cp2"))
    assert sorted(pd.diagonal) == [(0, 2, QQ.one), (1, 1, QQ.one),
                                   (2, 0, QQ.one)]


def test_dual_basis_pairing_is_identity():
    for nm in ALGS:
        a = catalog.load(nm)
        pd = poincare_data(a)
        for i in range(a.dim):
            prod = a.multiply({i: QQ.one}, pd.dual[i])
            assert prod.get(a.top) == QQ.one


def test_diagonal_flip_symmetry():
    # applying the graded flip to delta gives (-1)^m delta
    for nm in ALGS:
        a = catalog.load(nm)
        m = a.degrees[a.top]
        pd = poincare_data(a)
        flipped = {}
        for (i, j, c) in pd.diagonal:
            s = -1 if (a.degrees[i] % 2 and a.degrees[j] % 2) else 1
            flipped[(j, i)] = c * QQ.of(s)
        orig = {(i, j): c * QQ.of((-1) ** m) for (i, j, c) in pd.diagonal}
        assert flipped == orig


@pytest.mark.parametrize("field", [QQ, Field(3), Field(101)],
                         ids=["Q", "F3", "F101"])
def test_pairing_table_is_the_top_coefficient_table(field):
    # every catalog carrier with Poincare data, and only those
    patterned = ["torus(3)"] + ["s%d" % m for m in range(1, 8)]
    found = []
    for nm in [nm for nm in catalog.names() if nm.isidentifier()] + patterned:
        a = catalog.load(nm, field=field)
        try:
            pd = poincare_data(a)
        except ValueError:  # no top class, a differential, or degenerate
            continue
        found.append(nm)
        want = [[(b, v) for b in range(a.dim)
                 if (v := a.mul_basis(c, b).get(a.top))]
                for c in range(a.dim)]
        assert pd.pairing == want
    assert sorted(found) == sorted(["cp2", "cs_s5", "point", "s2xs2", "t2",
                                    "stb_s2xs2_h"] + patterned)


def test_degenerate_pairing_detected():
    basis = [("1", 0), ("x", 2), ("w", 4)]
    products = {(1, 1): {}, (1, 2): {}, (2, 2): {}}
    with pytest.raises(DegeneratePairing):
        poincare_data(Algebra("bad", QQ, basis, 0, products, top=2))


def test_no_top_rejected():
    a = Algebra("openalg", QQ, [("1", 0), ("x", 2)], 0, {(1, 1): {}})
    with pytest.raises(ValueError):
        poincare_data(a)


# -- indecomposables --------------------------------------------------------

def test_indecomposables_dims():
    reps, project = indecomposables(catalog.load("s2"))
    assert len(reps) == 1
    reps, project = indecomposables(catalog.load("cp2"))
    assert len(reps) == 1  # h^2 = h . h is decomposable
    H = catalog.load("stb_s2xs2_h")
    reps, project = indecomposables(H)
    degs = sorted(el_degree(H, r) for r in reps)
    # both degree-5 classes survive; degree-7 class decomposability computed
    assert degs.count(5) == 2


# -- truncated free CDGA ----------------------------------------------------

def test_exterior_generator_truncation():
    c = TruncatedFreeCDGA("e3", QQ, [("e", 3)], {}, 5)
    assert c.labels == ["1", "e"]


def test_polynomial_generator_truncation():
    c = TruncatedFreeCDGA("x2", QQ, [("x", 2)], {}, 5)
    assert c.labels == ["1", "x", "x^2"]


def test_catalog_truncate_is_a_bound_of_truncated_models_only():
    assert catalog.load("stb_s2xs2", truncate=8).bound == 8
    assert catalog.load("stb_s2xs2").bound == 12
    # 0 is a bound (below the generator degrees), not an absent option
    with pytest.raises(ValueError, match="bound"):
        catalog.load("stb_s2xs2", truncate=0)
    with pytest.raises(ValueError, match="bound"):
        catalog.load("stb_s2xs2_h", truncate=0)
    for nm in ("s2", "t2", "heis3"):
        with pytest.raises(catalog.CatalogError, match="truncate"):
            catalog.load(nm, truncate=6)
        with pytest.raises(catalog.CatalogError, match="truncate"):
            catalog.load(nm, truncate=0)


def test_stb_degree_five_slice():
    c = catalog.load("stb_s2xs2", truncate=8)
    assert len(c.basis_of_degree(3)) == 3   # u, v, t
    assert len(c.basis_of_degree(5)) == 6   # ux, uy, vx, vy, tx, ty


def test_odd_square_is_zero_not_overflow():
    c = TruncatedFreeCDGA("e3", QQ, [("e", 3)], {}, 5)
    e = c.element("e")
    assert c.multiply(e, e) == {}


def test_overflow_is_loud():
    c = TruncatedFreeCDGA("x2", QQ, [("x", 2)], {}, 5)
    x2 = c.element("x^2")
    with pytest.raises(Overflow):
        c.multiply(x2, x2)


def test_d_basis_is_kept_but_overflow_is_not():
    # d of a basis monomial is computed once and reused; a monomial whose
    # differential leaves the bound raises on every call, never caches
    c = catalog.load("stb_s2xs2")
    # d(x^5*u) = x^7 is past the bound 12
    first = c.labels.index("x^5*u")
    for _ in range(2):
        with pytest.raises(Overflow):
            c.d_basis(first)
    escaping = 0
    for i in range(c.dim):
        try:
            want = c.differentiate({i: c.field.one})
        except Overflow:
            escaping += 1
            for _ in range(2):
                with pytest.raises(Overflow):
                    c.d_basis(i)
            continue
        assert c.d_basis(i) == want
        assert c.d_basis(i) == want
    assert (c.dim, escaping) == (224, 91)


def _exact_or_overflow(field, table, args):
    """{index: lift(of(c))} of table(*args) without its zeros in the field,
    or Overflow."""
    try:
        return field.exact({k: field.lift(field.of(c))
                            for k, c in table(*args).items()})
    except Overflow:
        return Overflow


@pytest.mark.parametrize("field", [QQ, Field(3), Field(101)],
                         ids=["Q", "F3", "F101"])
@pytest.mark.parametrize("nm", ["s2xs2", "heis3", "cs_s5", "stb_s2xs2"])
def test_lifted_tables_are_the_lifted_carrier(nm, field):
    # each table holds exact constants, lift(of(.)) of the constants the
    # carrier is built from (its rational ones); an escaping product
    # raises on every call, so it is never kept
    kw = {"truncate": 8} if nm == "stb_s2xs2" else {}
    c = catalog.load(nm, field=field, **kw)
    q = catalog.load(nm, **kw)
    tables = [(c.d_basis, q.d_basis, (a,)) for a in range(c.dim)] + [
        (c.mul_basis, q.mul_basis, (a, b))
        for a in range(c.dim) for b in range(c.dim)]
    escaping = 0
    for table, built, args in tables:
        want = _exact_or_overflow(field, built, args)
        if want is Overflow:
            escaping += 1
            for _ in range(2):
                with pytest.raises(Overflow):
                    table(*args)
            continue
        got = table(*args)
        assert got == want and table(*args) == got, (nm, args)
        for x in got.values():
            if field.p is None:
                assert type(x) is int or (type(x) is Fraction
                                          and x.denominator != 1)
            else:
                assert type(x) is int and 0 < x < field.p
        # Field.scalars turns the table into the field-scalar elements
        el = c.multiply(*({i: field.one} for i in args)) if len(args) == 2 \
            else c.differentiate({args[0]: field.one})
        assert field.scalars(got) == el, (nm, args)
    assert bool(escaping) == (nm == "stb_s2xs2")


@pytest.mark.parametrize("field", [QQ, Field(3), Field(101)],
                         ids=["Q", "F3", "F101"])
def test_constants_of_every_kind_give_one_table(field):
    # a b = 3 ab, a a = -ab, d x = -y/2: the same constants as ints (where
    # integral), Fractions or scalars of the field, over Q and F_p (3 is 0
    # over F3)
    basis = [("1", 0), ("x", 1), ("y", 2), ("a", 2), ("b", 2), ("ab", 4)]
    half = Fraction(1, 2)

    def build(conv):
        return Algebra("t", field, basis, 0,
                       {(3, 4): {5: conv(3)}, (3, 3): {5: conv(-1)}},
                       differential={1: {2: conv(-half)}})

    ints = build(lambda c: c if isinstance(c, Fraction) else int(c))
    tables = [(alg.products, alg.differential) for alg in
              (ints, build(Fraction), build(field.of))]
    # equal down to the type of each constant
    assert repr(tables[0]) == repr(tables[1]) == repr(tables[2])
    p = field.p
    assert ints.mul_basis(3, 3) == {5: -1 if p is None else p - 1}
    assert ints.mul_basis(3, 4) == ({} if p == 3 else {5: 3})
    assert ints.d_basis(1) == {2: -half if p is None else (p - 1) // 2}


def test_scalar_of_another_prime_raises():
    basis = [("1", 0), ("a", 2), ("b", 2), ("ab", 4)]
    with pytest.raises(FieldError):
        Algebra("t", Field(3), basis, 0, {(1, 2): {3: FpElement(5, 1)}})


def test_d_squared_nonzero_rejected():
    # d x = y, d y = z: d(d x) = z != 0
    with pytest.raises(AxiomViolation) as e:
        TruncatedFreeCDGA("bad", QQ, [("x", 1), ("y", 2), ("z", 3)],
                          {"x": [(("y",), 1)], "y": [(("z",), 1)]}, 3)
    assert e.value.axiom == "d o d = 0"


def test_leibniz_within_bound():
    c = catalog.load("stb_s2xs2", truncate=8)
    # d(t*x) = d(t)*x = x*y*x = x^2 y
    tx = c.multiply(c.element("t"), c.element("x"))
    d = c.differentiate(tx)
    assert d == c.multiply(c.multiply(c.element("x"), c.element("x")),
                           c.element("y"))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_truncated_product_never_silently_drops(i, j):
    c = catalog.load("stb_s2xs2", truncate=6)
    i %= c.dim
    j %= c.dim
    full = catalog.load("stb_s2xs2", truncate=12)
    try:
        small = c.mul_basis(i, j)
    except Overflow:
        # the untruncated product really is nonzero beyond the bound
        big = full.multiply(full.element(c.labels[i]), full.element(c.labels[j]))
        assert any(full.degrees[k] > 6 for k in big)
        return
    big = full.multiply(full.element(c.labels[i]), full.element(c.labels[j]))
    assert {full.labels[k]: v for k, v in big.items()} == \
        {c.labels[k]: v for k, v in small.items()}


# -- cohomology -------------------------------------------------------------

def test_tangent_bundle_betti_numbers():
    c = catalog.load("stb_s2xs2")
    H = cohomology(c, 7)
    betti = [sum(1 for d in H.degrees if d == k) for k in range(8)]
    assert betti == [1, 0, 2, 0, 0, 2, 0, 1]


def test_tangent_bundle_class_labels():
    H = catalog.load("stb_s2xs2_h")
    assert sorted(zip(H.degrees, H.labels)) == [
        (0, "1"), (2, "[x]"), (2, "[y]"),
        (5, "[-1*x*t + y*u]"), (5, "[-1*x*v + y*t]"),
        (7, "[-1*x^2*v + x*y*t]")]


def test_representatives_are_cocycles():
    H = catalog.load("stb_s2xs2_h")
    for rep in H.representatives:
        assert not H.ambient.differentiate(rep)


def test_product_of_degree_two_classes_vanishes():
    H = catalog.load("stb_s2xs2_h")
    x, y = H.element("[x]"), H.element("[y]")
    assert H.multiply(x, y) == {}
    assert H.multiply(x, x) == {}


def test_cohomology_of_formal_is_itself():
    a = catalog.load("cp2")
    H = cohomology(a, 4)
    assert H.degrees == a.degrees
    for i in range(a.dim):
        for j in range(a.dim):
            assert H.mul_basis(i, j) == a.mul_basis(i, j)


def test_exact_generator_dies():
    c = TruncatedFreeCDGA("xu", QQ, [("x", 2), ("u", 3)],
                          {"u": [(("x", "x"), 1)]}, 7)
    H = cohomology(c, 3)
    assert sorted(H.degrees) == [0, 2]


def test_class_of_roundtrip():
    H = catalog.load("stb_s2xs2_h")
    for i in range(H.dim):
        assert H.class_of(H.representatives[i]) == {i: QQ.one}


def test_solve_d_twice_reads_unchanged_caches():
    # solve_d and class_of both reduce the cached columns of d, at
    # different positions; neither may leave a mark on them
    H = catalog.load("stb_s2xs2_h")
    c, view = H.ambient, H.view
    w = c.d_basis(c.labels.index("u*v"))   # exact, in degree 7, with a class
    k = el_degree(c, w) - 1
    before = copy.deepcopy(view.d_columns(k))
    first = view.solve_d(w)
    assert c.differentiate(first) == w
    assert H.class_of(w) == {}
    assert view.solve_d(w) == first
    assert view.d_columns(k) == before


def test_solve_d_reduces_each_degree_once(monkeypatch):
    # cohomology reduces the columns of d once per degree, for its
    # cocycles; solve_d reads its preimages off the same reduction, which
    # only reads the columns, and each gets the answer solve gives
    H = catalog.load("stb_s2xs2_h")
    carrier = H.ambient
    built = []
    real = algebra.column_reduction

    def counted(field, cols):
        built.append(len(cols))
        return real(field, cols)

    monkeypatch.setattr(algebra, "column_reduction", counted)
    view = cohomology(carrier, 7).view
    # d out of degrees 0 to 7 for the cocycles, and out of 8, 9 and 11 for
    # the products above the computed range, which must be exact
    per_degree = [len(carrier.basis_of_degree(k))
                  for k in list(range(8)) + [8, 9, 11]]
    assert built == per_degree
    targets = [carrier.d_basis(i) for i in carrier.basis_of_degree(6)]
    targets = [w for w in targets if w][:2]
    assert len(targets) == 2 and targets[0] != targets[1]
    k = 6
    before = copy.deepcopy(view.d_columns(k))
    for w in targets + [vec_add(*targets)]:
        x = view.solve_d(w)
        assert carrier.differentiate(x) == w
        ref = solve(carrier.field, view.d_columns(k), view.local(w, k + 1))
        assert x == view.unlocal(ref, k)
    # off the image: the top class is a cocycle with no preimage
    assert view.solve_d(H.representatives[H.top]) is NO_SOLUTION
    assert built == per_degree
    assert view.d_columns(k) == before


def _reference_class_coords(view, reps, degrees, w, k):
    """Coordinates of a degree-k cocycle w over the classes of degree k by
    one solve over their representatives and the columns of d into degree
    k: how cohomology read classes before it kept its reductions, kept as
    the reference."""
    classes = [i for i, d in enumerate(degrees) if d == k]
    cols = [view.local(reps[i], k) for i in classes]
    if k > 0:
        cols += view.d_columns(k - 1)
    x = solve(view.carrier.field, cols, view.local(w, k))
    if x is NO_SOLUTION:
        return x
    return {classes[p]: c for p, c in x.items() if p < len(classes) and c}


@pytest.mark.parametrize("nm", ["stb_s2xs2_h", "heis3", "heis3_s2",
                                "cs_heis3_s2"])
def test_class_coords_match_reference(nm):
    a = catalog.load(nm)
    H = a if nm == "stb_s2xs2_h" else cohomology(a, a.max_degree)
    view, reps, carrier = H.view, H.representatives, H.ambient
    checked = 0
    for i, rep in enumerate(reps):
        ref = _reference_class_coords(view, reps, H.degrees, rep, H.degrees[i])
        assert H.class_of(rep) == ref == {i: H.field.one}
        for j, other in enumerate(reps):
            w = carrier.multiply(rep, other)
            k = H.degrees[i] + H.degrees[j]
            if not w or k > view.max_degree:
                continue
            ref = _reference_class_coords(view, reps, H.degrees, w, k)
            assert H.products[(i, j)] == H.class_coords(w, k) == ref
            # a boundary added changes the cocycle, not its class
            bd = [b for b in view.d_columns(k - 1) if b]
            if bd:
                w = vec_add(w, view.unlocal(bd[0], k))
                assert H.class_of(w) == ref
            checked += 1
    assert checked
    # a cochain that is not a cocycle has no class
    for k in range(view.max_degree):
        for i in carrier.basis_of_degree(k):
            if carrier.d_basis(i):
                u = {i: H.field.one}
                assert H.class_coords(u, k) is NO_SOLUTION
                assert _reference_class_coords(
                    view, reps, H.degrees, u, k) is NO_SOLUTION
                break


def test_class_of_refuses_cocycle_above_range():
    H = catalog.load("stb_s2xs2_h")
    x = H.representatives[H.labels.index("[x]")]
    top = H.representatives[H.top]
    w = H.ambient.multiply(x, top)   # a degree-9 cocycle, above max_degree 7
    assert w and not H.ambient.differentiate(w)
    with pytest.raises(ValueError, match="above the computed range"):
        H.class_of(w)


# -- connected sum and tensor ----------------------------------------------

def test_connected_sum_betti():
    cs = catalog.load("cs_s5")
    betti = [sum(1 for d in cs.degrees if d == k) for k in range(6)]
    assert betti == [1, 0, 1, 1, 0, 1]


def test_connected_sum_top_is_product_of_new_classes():
    cs = catalog.load("cs_s5")
    sx = cs.element("sx")
    sy = cs.element("sy")
    assert cs.multiply(sx, sy) == {cs.top: QQ.one}
    # old positive part annihilates the new classes
    w = cs.element("w5")
    assert cs.multiply(w, sx) == {}


@pytest.mark.parametrize("nm", ["s5", "heis3_s2"])
def test_connected_sum_fills_the_zero_products(nm):
    # the same algebra as with every product of sx or sy listed explicitly
    alg = catalog.load(nm)
    cs = connected_sum_model(alg, 5)
    n, f = alg.dim, alg.field
    products = {ij: dict(el) for ij, el in alg.products.items()}
    products[(n, n)] = products[(n + 1, n + 1)] = {}
    products[(n, n + 1)] = {alg.top: f.one}
    for i in range(n):
        if i != alg.unit:
            for x in (n, n + 1):
                products[(i, x)] = products[(x, i)] = {}
    explicit = Algebra(cs.name, f, list(zip(cs.labels, cs.degrees)), alg.unit,
                       products, differential=alg.differential, top=alg.top)
    assert cs.products == explicit.products
    assert cs.differential == explicit.differential
    assert cs.top == explicit.top and cs.degrees == explicit.degrees


def test_connected_sum_guard():
    with pytest.raises(ValueError):
        connected_sum_model(catalog.load("s2xs2"), 4)


def test_tensor_algebra_koszul_sign():
    t = catalog.load("heis3_s2")
    a = t.element("a")
    w = t.element("w2")
    aw = t.multiply(a, w)
    wa = t.multiply(w, a)
    assert aw == wa  # even times odd factor: no sign here
    assert t.has_differential


def test_heisenberg_cohomology_betti():
    h = catalog.load("heis3")
    H = cohomology(h, 3)
    betti = [sum(1 for d in H.degrees if d == k) for k in range(4)]
    assert betti == [1, 2, 2, 1]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ALGS + ["heis3", "heis3_s2", "cs_heis3_s2"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_associativity_random_triples(nm, i, j, k):
    a = catalog.load(nm)
    i, j, k = i % a.dim, j % a.dim, k % a.dim
    u, v, w = {i: QQ.one}, {j: QQ.of(2)}, {k: QQ.of(-3)}
    assert a.multiply(a.multiply(u, v), w) == a.multiply(u, a.multiply(v, w))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["heis3", "heis3_s2", "cs_heis3_s2"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_leibniz_random_pairs(nm, i, j):
    a = catalog.load(nm)
    i, j = i % a.dim, j % a.dim
    u, v = {i: QQ.one}, {j: QQ.one}
    lhs = a.differentiate(a.multiply(u, v))
    s = QQ.of(-1 if a.degrees[i] % 2 else 1)
    rhs_el = {}
    for t, c in a.multiply(a.differentiate(u), v).items():
        rhs_el[t] = rhs_el.get(t, QQ.zero) + c
    for t, c in a.multiply(u, a.differentiate(v)).items():
        rhs_el[t] = rhs_el.get(t, QQ.zero) + s * c
    assert lhs == {t: c for t, c in rhs_el.items() if c}
