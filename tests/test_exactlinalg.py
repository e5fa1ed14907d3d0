"""Exact linear algebra: hand-checked anchors plus random properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confspace.exactlinalg import (
    Field, QQ, Matrix, rank, kernel_basis, solve, NO_SOLUTION,
    quotient_basis, SpanReducer, vec_add, vec_scale,
)

F5 = Field(5)


def column(m, j):
    return {i: row[j] for i, row in enumerate(m.rows) if j in row}


def mat(field, rows):
    dense = [{j: field.of(x) for j, x in enumerate(r) if x} for r in rows]
    ncols = max((len(r) for r in rows), default=0)
    return Matrix(field, len(rows), ncols, dense)


def test_rank_of_dependent_rows():
    assert rank(mat(QQ, [[1, 2], [2, 4]])) == 1


def test_rank_full():
    assert rank(mat(QQ, [[1, 2], [2, 5]])) == 2


def test_kernel_of_sum_functional():
    ker = kernel_basis(mat(QQ, [[1, 1]]))
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + v[1] == 0 and any(v.values())


def test_kernel_deterministic_normalization():
    # free columns get coefficient 1
    ker = kernel_basis(mat(QQ, [[1, 1]]))
    assert ker[0][1] == 1


def test_solve_and_no_solution():
    m = mat(QQ, [[1, 0], [0, 0]])
    assert solve(m, {0: QQ.of(3)}) == {0: QQ.of(3)}
    assert solve(m, {1: QQ.one}) is NO_SOLUTION


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
    nr = draw(st.integers(0, 5))
    nc = draw(st.integers(0, 5))
    rows = [[draw(st.integers(-3, 3)) for _ in range(nc)] for _ in range(nr)]
    return mat(field, rows) if nr else Matrix(field, 0, nc, [])


@settings(max_examples=60, deadline=None)
@given(random_matrix(QQ))
def test_rank_nullity_rational(m):
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@settings(max_examples=60, deadline=None)
@given(random_matrix(F5))
def test_rank_nullity_mod_p(m):
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@settings(max_examples=60, deadline=None)
@given(random_matrix(QQ))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        img = {}
        for j, c in v.items():
            img = vec_add(img, column(m, j), c)
        assert not img


@settings(max_examples=40, deadline=None)
@given(random_matrix(QQ), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_solve_finds_consistent_rhs(m, coeffs):
    # rhs built from the column span must always be solvable
    rhs = {}
    for j in range(m.ncols):
        rhs = vec_add(rhs, column(m, j), QQ.of(coeffs[j % 5]))
    x = solve(m, rhs)
    assert x is not NO_SOLUTION
    img = {}
    for j, c in x.items():
        img = vec_add(img, column(m, j), c)
    assert img == rhs


def _reference_solve(matrix, rhs):
    """Column elimination with combination tracking: the solver that
    ``solve`` replaced, kept as its reference."""
    field = matrix.field
    combos = {}  # pivot row index -> (reduced col, combo dict over x-indices)
    for j in range(matrix.ncols):
        col = column(matrix, j)
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
    m = Matrix.from_columns(field, cols, nr)
    if draw(st.booleans()):
        rhs = {}
        for c in cols:
            rhs = vec_add(rhs, c, field.of(draw(small)))
    else:
        rhs = {i: field.of(x) for i in range(nr) if (x := draw(small))}
    return m, rhs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, F5]).flatmap(dependent_system))
def test_solve_matches_reference(system):
    m, rhs = system
    assert solve(m, rhs) == _reference_solve(m, rhs)
