"""Exact linear algebra: hand-checked anchors plus random properties."""

import copy
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confspace.exactlinalg import (
    Field, FpElement, QQ, rank, kernel_basis, solve, NO_SOLUTION,
    quotient_basis, SpanReducer, apply_map, transpose, vec_add, vec_scale,
    homology_dims,
)
from confspace import exactlinalg

F5 = Field(5)


def columns(rows, ncols):
    """The columns of the matrix with these sparse rows."""
    return [{i: row[j] for i, row in enumerate(rows) if j in row}
            for j in range(ncols)]


def sparse_rows(field, rows):
    return [{j: field.of(x) for j, x in enumerate(r) if x} for r in rows]


def cols_of(field, rows):
    """Columns of the matrix with these dense integer rows."""
    return columns(sparse_rows(field, rows), max(map(len, rows), default=0))


def test_field_of_takes_its_own_scalars():
    assert F5.of(FpElement(5, 3)) == FpElement(5, 3)
    assert QQ.of(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(exactlinalg.FieldError):
        F5.of(FpElement(7, 1))


def test_field_primality_is_exact_and_fast():
    # trial division once took minutes on a 61-bit prime
    t0 = time.perf_counter()
    assert Field(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - t0 < 1
    small = [p for p in range(2, 2000)
             if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    assert [p for p in range(-3, 2000) if exactlinalg._is_prime(p)] == small
    # 2**61 + 1 = 3 * 768614336404564651, and the least strong pseudoprime
    # to the bases 2, ..., 37 (a product of two primes)
    for p in (2**61 + 1, 318665857834031151167461, 1, 0, -7):
        with pytest.raises(exactlinalg.FieldError):
            Field(p)
    # past the bound where the test is exact, refused at once
    with pytest.raises(exactlinalg.FieldError, match="bits"):
        Field(10**400 + 7)


def test_rank_of_dependent_rows():
    assert rank(QQ, cols_of(QQ, [[1, 2], [2, 4]])) == 1


def test_rank_full():
    assert rank(QQ, cols_of(QQ, [[1, 2], [2, 5]])) == 2


def test_kernel_of_sum_functional():
    ker = kernel_basis(QQ, cols_of(QQ, [[1, 1]]))
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + v[1] == 0 and any(v.values())


def test_kernel_deterministic_normalization():
    # free columns get coefficient 1
    ker = kernel_basis(QQ, cols_of(QQ, [[1, 1]]))
    assert ker[0][1] == 1


def test_solve_and_no_solution():
    cols = cols_of(QQ, [[1, 0], [0, 0]])
    assert solve(QQ, cols, {0: QQ.of(3)}) == {0: QQ.of(3)}
    assert solve(QQ, cols, {1: QQ.one}) is NO_SOLUTION
    # row indices past the number of columns, in the columns and in rhs only
    cols = [{4: QQ.one}, {1: QQ.of(2), 4: QQ.one}]
    assert solve(QQ, cols, {1: QQ.one}) == {0: Fraction(-1, 2),
                                            1: Fraction(1, 2)}
    assert solve(QQ, cols, {4: QQ.one, 9: QQ.one}) is NO_SOLUTION


def test_solve_leaves_its_columns_unchanged():
    # callers hand in shared caches; the copy keeps the key order too
    cols = [{1: QQ.of(2), 0: QQ.one}, {}, {0: QQ.of(3), 1: QQ.of(6)},
            {1: QQ.one}]
    before = copy.deepcopy(cols)
    for rhs in ({0: QQ.one, 1: QQ.of(5)}, {2: QQ.one}, {}):
        solve(QQ, cols, rhs)
        assert cols == before
        assert [list(c) for c in cols] == [list(c) for c in before]


def test_homology_dims_of_a_toy_complex(monkeypatch):
    # C0 -> C1 -> C2 = 0, and C3 -> C4 where C4 is not an index of dims
    calls = []

    def counted(field, cols):
        calls.append(cols)
        return rank(field, cols)

    monkeypatch.setattr(exactlinalg, "rank", counted)
    dims = {3: 1, 0: 1, 1: 2, 2: 0}
    maps = iter([
        (0, 1, [{0: QQ.one, 1: QQ.of(-1)}]),
        (1, 2, [{}, {}]),
        (3, 4, [{0: QQ.of(2)}]),
    ])
    h = homology_dims(QQ, dims, maps)
    assert h == {3: 0, 0: 0, 1: 1, 2: 0}
    assert list(h) == [3, 0, 1, 2]
    assert len(calls) == 3
    assert dims == {3: 1, 0: 1, 1: 2, 2: 0}


def test_transpose_and_apply_map():
    cols = [{2: QQ.one, 0: QQ.of(2)}, {}, {0: QQ.of(-1), 1: QQ.zero}]
    rows = transpose(cols)
    assert list(rows) == [0, 2]
    assert [list(r.items()) for r in rows.values()] == [
        [(0, QQ.of(2)), (2, QQ.of(-1))], [(0, QQ.one)]]
    assert apply_map(cols.__getitem__, {0: QQ.of(3), 2: QQ.of(2)}) == {
        2: QQ.of(3), 0: QQ.of(4)}
    assert apply_map(cols.__getitem__, {0: QQ.one, 2: QQ.of(2)}) == {
        2: QQ.one}


def test_quotient_basis():
    reps, project = quotient_basis(QQ, 3, [{0: QQ.one, 1: QQ.one}])
    assert len(reps) == 2
    # the killed vector projects to zero
    assert not any(project({0: QQ.one, 1: QQ.one}))
    # representatives project to distinct unit vectors
    cols = [project(r) for r in reps]
    assert cols[0] != cols[1]


def test_span_reducer_dim():
    red = SpanReducer(QQ)
    assert red.insert({0: QQ.one})
    assert not red.insert({0: QQ.of(7)})
    assert red.insert({1: QQ.one})
    assert red.dim == 2


@st.composite
def random_matrix(draw, field):
    """(columns, number of rows) of a small random matrix."""
    nr = draw(st.integers(0, 5))
    nc = draw(st.integers(0, 5))
    rows = [[draw(st.integers(-3, 3)) for _ in range(nc)] for _ in range(nr)]
    return columns(sparse_rows(field, rows), nc), nr


@settings(max_examples=60, deadline=None)
@given(random_matrix(QQ))
def test_rank_nullity_rational(m):
    cols, _ = m
    assert rank(QQ, cols) + len(kernel_basis(QQ, cols)) == len(cols)


@settings(max_examples=60, deadline=None)
@given(random_matrix(F5))
def test_rank_nullity_mod_p(m):
    cols, _ = m
    assert rank(F5, cols) + len(kernel_basis(F5, cols)) == len(cols)


@settings(max_examples=60, deadline=None)
@given(random_matrix(QQ))
def test_kernel_vectors_annihilate(m):
    cols, _ = m
    for v in kernel_basis(QQ, cols):
        img = {}
        for j, c in v.items():
            img = vec_add(img, cols[j], c)
        assert not img


@settings(max_examples=40, deadline=None)
@given(random_matrix(QQ), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_solve_finds_consistent_rhs(m, coeffs):
    # rhs built from the column span must always be solvable
    cols, _ = m
    rhs = {}
    for j, col in enumerate(cols):
        rhs = vec_add(rhs, col, QQ.of(coeffs[j % 5]))
    x = solve(QQ, cols, rhs)
    assert x is not NO_SOLUTION
    img = {}
    for j, c in x.items():
        img = vec_add(img, cols[j], c)
    assert img == rhs


def _reference_solve(field, cols, rhs):
    """Column elimination with combination tracking: the solver that
    ``solve`` replaced, kept as its reference."""
    combos = {}  # pivot row index -> (reduced col, combo dict over x-indices)
    for j in range(len(cols)):
        col = cols[j]
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


@st.composite
def dependent_system(draw, field):
    """A matrix whose later columns mix earlier ones, and a rhs that is
    either a combination of its columns or a random vector."""
    nr = draw(st.integers(1, 5))
    ncols = draw(st.integers(0, 6))
    small = st.integers(-3, 3)
    cols = []
    for _ in range(ncols):
        if cols and draw(st.booleans()):
            col = {}
            for c in cols:
                col = vec_add(col, c, field.of(draw(small)))
        else:
            col = {i: field.of(x) for i in range(nr) if (x := draw(small))}
        cols.append(col)
    if draw(st.booleans()):
        rhs = {}
        for c in cols:
            rhs = vec_add(rhs, c, field.of(draw(small)))
    else:
        rhs = {i: field.of(x) for i in range(nr) if (x := draw(small))}
    return field, cols, rhs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, F5]).flatmap(dependent_system))
def test_solve_matches_reference(system):
    field, cols, rhs = system
    before = copy.deepcopy(cols)
    assert solve(field, cols, rhs) == _reference_solve(field, cols, rhs)
    assert cols == before


# -- the kernel against its field-scalar reference -----------------------------

class _ReferenceSpanReducer:
    """The reduced row echelon span kept over field scalars: the kernel that
    the integer-row ``SpanReducer`` replaced, kept as its reference."""

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot col -> row dict with pivot entry 1

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
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        v = vec_scale(v, self.field.one / v[piv])
        for c, row in list(self.rows.items()):
            x = row.get(piv)
            if x:
                self.rows[c] = vec_add(row, v, -x)
        self.rows[piv] = v
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def basis(self):
        return [self.rows[c] for c in sorted(self.rows)]


def _reference_kernel_basis(field, rows, ncols):
    red = _ReferenceSpanReducer(field)
    for row in rows:
        if row:
            red.insert(row)
    basis = []
    for f in range(ncols):
        if f not in red.rows:
            v = {f: field.one}
            for c in red.pivots:
                x = red.rows[c].get(f)
                if x:
                    v[c] = -x
            basis.append(v)
    return basis


def _reference_quotient_basis(field, ambient_dim, vectors):
    red = _ReferenceSpanReducer(field)
    for v in vectors:
        red.insert(v)
    free = [j for j in range(ambient_dim) if j not in red.rows]

    def project(vec):
        r = red.reduce(vec)
        return [r.get(j, field.zero) for j in free]

    return [{j: field.one} for j in free], project


F3, F101 = Field(3), Field(101)
NCOLS = 6


def _scalars(field):
    small = st.integers(-3, 3)
    if field.p is not None:
        return small.map(field.of)
    # non-integral rationals, so the integer rows must clear denominators
    return st.one_of(small, st.sampled_from(
        [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-7, 6)]
    )).map(field.of)


@st.composite
def vector_family(draw, field):
    """Sparse vectors over NCOLS columns, some mixing earlier ones, so that
    inserts both grow the span and fall into it."""
    scalar = _scalars(field)
    vecs = []
    for _ in range(draw(st.integers(0, 8))):
        if vecs and draw(st.booleans()):
            v = {}
            for u in vecs:
                v = vec_add(v, u, draw(scalar))
        else:
            v = {j: x for j in range(NCOLS) if (x := draw(scalar))}
        vecs.append(v)
    return vecs


@st.composite
def field_and_vectors(draw, families=1):
    field = draw(st.sampled_from([QQ, F3, F101]))
    return (field,) + tuple(draw(vector_family(field)) for _ in range(families))


def _is_field_vector(field, vec):
    kind = Fraction if field.p is None else FpElement
    return all(type(x) is kind and x for x in vec.values())


def _same(u, v):
    """Equal vectors with the same key order."""
    return list(u.items()) == list(v.items())


@settings(max_examples=150, deadline=None)
@given(field_and_vectors(families=2))
def test_span_reducer_matches_reference(case):
    field, vecs, probes = case
    red, ref = SpanReducer(field), _ReferenceSpanReducer(field)
    for v in vecs:
        assert red.insert(v) == ref.insert(v)
        assert red.dim == ref.dim and red.pivots == ref.pivots
        got = red.basis()
        assert all(_same(a, b) for a, b in zip(got, ref.basis()))
        assert all(_is_field_vector(field, b) for b in got)
    for v in vecs + probes:
        got = red.reduce(v)
        assert _same(got, ref.reduce(v))
        assert _is_field_vector(field, got)
        assert red.contains(v) == ref.contains(v)


@settings(max_examples=150, deadline=None)
@given(field_and_vectors())
def test_kernel_solve_quotient_match_reference(case):
    field, vecs = case
    # vecs as the rows of a map for the kernel, as its columns for solve
    ker = kernel_basis(field, columns(vecs, NCOLS))
    ref_ker = _reference_kernel_basis(field, vecs, NCOLS)
    assert len(ker) == len(ref_ker)
    assert all(_same(a, b) for a, b in zip(ker, ref_ker))
    assert all(_is_field_vector(field, v) for v in ker)
    for rhs in vecs[:3] + [{0: field.one}]:
        x = solve(field, vecs, rhs)
        assert x == _reference_solve(field, vecs, rhs)
        assert x is NO_SOLUTION or _is_field_vector(field, x)
    reps, project = quotient_basis(field, NCOLS, vecs)
    ref_reps, ref_project = _reference_quotient_basis(field, NCOLS, vecs)
    assert reps == ref_reps
    for v in vecs + reps + [{j: field.one for j in range(NCOLS)}]:
        coords = project(v)
        assert coords == ref_project(v)
        kind = Fraction if field.p is None else FpElement
        assert all(type(x) is kind for x in coords)


_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_elimination_does_no_scalar_arithmetic(field, monkeypatch):
    rng = random.Random(20)
    rows = sparse_rows(field, [[rng.randint(-3, 3) for _ in range(20)]
                               for _ in range(20)])
    cols = columns(rows, 20)
    ref = _ReferenceSpanReducer(field)
    for row in rows:
        ref.insert(row)
    calls = []
    for cls in (Fraction, FpElement):
        for name in _DUNDERS:
            op = getattr(cls, name, None)
            if op is not None:
                def counted(*args, _op=op, _name=cls.__name__ + name):
                    calls.append(_name)
                    return _op(*args)
                monkeypatch.setattr(cls, name, counted)
    assert rank(field, cols) == ref.dim
    assert not calls, "%d scalar operations, first %s" % (len(calls), calls[0])
