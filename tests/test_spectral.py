"""Column-filtration spectral sequence: hand oracles and page structure."""

import copy
from fractions import Fraction

import pytest

from confspace.exactlinalg import QQ, Field, kernel_basis, pivot_pairs, rank
from confspace import graphs as gr
from confspace import catalog
from confspace.algebra import TruncatedFreeCDGA
from confspace.bgcomplex import build_AG, build_C
from confspace.spectral import SpectralSequence, WindowError, total_cohomology

from refvectors import apply_map


def pages(bc, rmax):
    """Dims of pages 1..rmax: dict r -> {(p, q): dim}."""
    ss = SpectralSequence(bc)
    return {r: ss.page(r) for r in range(1, rmax + 1)}


def rep_elements(ss, r, p, q):
    """The E_r(p, q) basis representatives as total-complex elements."""
    keys, _ = ss.tot_keys(p + q)
    return [{keys[i]: c for i, c in v.items()}
            for v in ss.e_block(r, p, q)[0]]


class ToyBicomplex:
    """Two generators x at (0, 0) and y at (2, -1) with D x = y.

    The differential drops out of sight of d_1 (the (1, 0) block is empty)
    and reappears as a nonzero d_2."""

    def __init__(self):
        self.field = QQ
        self.qmax = None
        self.blocks = {(0, 0): ["x"], (2, -1): ["y"]}
        self.pmax = 2

    def dtotal_key(self, key):
        return {"y": 1} if key == "x" else {}


def test_toy_nonzero_d2():
    ss = SpectralSequence(ToyBicomplex())
    assert ss.e_dim(1, 0, 0) == 1
    assert ss.e_dim(1, 2, -1) == 1
    assert ss.e_dim(2, 0, 0) == 1
    assert any(ss.d_matrix(2, 0, 0))
    assert ss.e_dim(3, 0, 0) == 0
    assert ss.e_dim(3, 2, -1) == 0
    assert ss.collapse_page() == 3


def test_toy_total_cohomology_vanishes():
    assert total_cohomology(ToyBicomplex(), 0, 1) == {0: 0, 1: 0}


# -- hand oracle: the two-point quotient bicomplex over the 2-sphere ---------

def two_point_bar():
    return build_AG(catalog.load("s2"), 2, gr.NODUPTARGET)


def test_two_point_e1_equals_blocks_for_formal_carrier():
    bc = two_point_bar()
    ss = SpectralSequence(bc)
    for (p, q) in bc.blocks:
        assert ss.e_dim(1, p, q) == bc.block_dim(p, q)


def test_two_point_e2_by_hand():
    # d' kernel: span{1(x)w - w(x)1, w(x)w}; d' is onto the edge column
    ss = SpectralSequence(two_point_bar())
    dims = {pq: d for pq, d in ss.page(2).items() if d}
    assert dims == {(0, 2): 1, (0, 4): 1}


def test_two_point_total_cohomology():
    assert total_cohomology(two_point_bar(), 0, 4) == \
        {0: 0, 1: 0, 2: 1, 3: 0, 4: 1}


def test_e_infinity_matches_total_cohomology():
    bc = two_point_bar()
    ss = SpectralSequence(bc)
    tot = total_cohomology(bc, 0, 4)
    for k in range(5):
        s = sum(ss.e_dim(3, p, k - p) for p in range(0, 3))
        assert s == tot[k]


# -- structural properties ----------------------------------------------------

@pytest.mark.parametrize("nm,n", [("s2", 3), ("t2", 3)])
def test_page_dims_weakly_decrease(nm, n):
    bc = build_AG(catalog.load(nm), n, gr.NODUPTARGET)
    ss = SpectralSequence(bc)
    for (p, q) in sorted(bc.blocks):
        prev = ss.e_dim(1, p, q)
        for r in range(2, 5):
            cur = ss.e_dim(r, p, q)
            assert cur <= prev
            prev = cur


def test_left_column_boundaries_counted():
    # regression: page-r boundaries landing in column 0 come from sources
    # left of the filtration range and must still be quotiented out
    bc = build_AG(catalog.load("s2"), 3, gr.NODUPTARGET)
    ss = SpectralSequence(bc)
    e2 = {pq: d for pq, d in ss.page(2).items() if d}
    e3 = {pq: d for pq, d in ss.page(3).items() if d}
    assert e2 == {(0, 6): 1, (1, 2): 1}
    assert e3 == e2


def test_d_squares_to_zero_on_pages():
    bc = build_C(catalog.load("t2"), 3)
    ss = SpectralSequence(bc)
    for r in (1, 2):
        for (p, q) in sorted(bc.blocks):
            m1 = ss.d_matrix(r, p, q)
            reps, _ = ss.e_block(r, p, q)
            assert len(m1) == len(reps)
            for v in m1:
                # push the image class through the next differential
                img = {}
                tgt, _ = ss.e_block(r, p + r, q - r + 1)
                for i, c in v.items():
                    y = ss._d_vec(tgt[i], p + q + 1)
                    for ii, cc in ss._project(
                            y, r, p + 2 * r, q - 2 * r + 2).items():
                        img[ii] = img.get(ii, QQ.zero) + c * cc
                assert not any(img.values())


def test_project_class_on_representatives():
    bc = build_C(catalog.load("cp2"), 3)
    ss = SpectralSequence(bc)
    for (p, q) in sorted(bc.blocks):
        for i, el in enumerate(rep_elements(ss, 2, p, q)):
            assert ss.project_class(el, 2, p, q) == {i: QQ.one}


def test_project_class_twice_reads_unchanged_caches():
    # project_class solves over the cached representatives, which d_matrix
    # and a second project_class read again
    bc = build_C(catalog.load("cp2"), 3)
    ss = SpectralSequence(bc)
    for (p, q) in sorted(bc.blocks):
        reps = ss.e_block(1, p, q)[0]
        before = copy.deepcopy(reps)
        els = rep_elements(ss, 1, p, q)
        first = [ss.project_class(el, 1, p, q) for el in els]
        assert first == [{i: QQ.one} for i in range(len(els))]
        ss.d_matrix(1, p, q)
        assert [ss.project_class(el, 1, p, q) for el in els] == first
        assert reps == before


def test_formal_reduced_collapses_at_two():
    bc = build_C(catalog.load("s2"), 3)
    assert SpectralSequence(bc).collapse_page() <= 2


def test_pages_summary_shape():
    bc = build_C(catalog.load("s2"), 3)
    out = pages(bc, 2)
    assert sorted(out) == [1, 2]
    assert set(out[1]) == set(bc.blocks)


# -- page dimensions from pairs against the bases they replace ---------------

FAMILIES = {"bar": gr.NODUPTARGET, "full": gr.FULL, "j": gr.JFAMILY}

# (carrier, prime or None for Q, n, graph family or "C", qmax)
ORACLE_CASES = [
    *[(nm, None, 3, kind, None) for nm in ("s2", "t2", "cp2", "s2xs2")
      for kind in ("bar", "full", "j", "C")],
    ("heis3", None, 3, "C", None),
    ("heis3_s2", None, 3, "C", None),
    ("heis3", 3, 3, "C", None),
    ("stb_s2xs2", None, 4, "C", 10),
    ("heis3", None, 4, "C", 8),
    ("cs_heis3_s2", None, 4, "C", 6),
]


def _collapse_from_d_matrix(ss, pq_list):
    """The collapse page read off the page differentials themselves."""
    last = 0
    for s in range(1, ss.bc.pmax + 1):
        for (p, q) in pq_list:
            if ss.e_block(s, p, q)[0] and any(ss.d_matrix(s, p, q)):
                last = s
    return last + 1


def _check_pairs_against_page_bases(bc):
    ss = SpectralSequence(bc)
    qmax = bc.qmax
    # a block of total degree k has pages while D on Tot^k stays inside
    # the window, and page differentials while D on Tot^{k+1} does
    inside = [pq for pq in sorted(bc.blocks) if qmax is None or sum(pq) < qmax]
    for r in range(1, bc.pmax + 2):
        for (p, q) in inside:
            assert ss.e_dim(r, p, q) == len(ss.e_block(r, p, q)[0]), (r, p, q)
    for (p, q) in sorted(set(bc.blocks) - set(inside)):
        with pytest.raises(WindowError):
            ss.e_dim(1, p, q)
    with_d = [pq for pq in inside if qmax is None or sum(pq) + 1 < qmax]
    assert ss.collapse_page(with_d) == _collapse_from_d_matrix(ss, with_d)


def _oracle_id(case):
    nm, p, n, kind, qmax = case
    return "%s n=%d %s%s%s" % (nm, n, kind, "" if p is None else " F%d" % p,
                              "" if qmax is None else " qmax=%d" % qmax)


@pytest.mark.parametrize("nm,p,n,kind,qmax", ORACLE_CASES,
                         ids=map(_oracle_id, ORACLE_CASES))
def test_page_dims_from_pairs_match_page_bases(nm, p, n, kind, qmax):
    alg = catalog.load(nm, field=Field(p))
    if kind == "C":
        bc = build_C(alg, n, qmax=qmax)
    else:
        bc = build_AG(alg, n, FAMILIES[kind], qmax=qmax)
    _check_pairs_against_page_bases(bc)


def test_toy_page_dims_from_pairs_match_page_bases():
    _check_pairs_against_page_bases(ToyBicomplex())


# -- the cleared pairing against the uncleared one ----------------------------

def _uncleared_pairs(bc, k):
    """(out, into) of D on Tot^k as paired without clearing: every column,
    evaluated afresh through apply(dtotal_key, .), goes in by decreasing p, each block
    in its own order."""
    ss = SpectralSequence(bc)  # read for the row order only
    keys, _ = ss.tot_keys(k)
    keys1, pos1 = ss.tot_keys(k + 1)
    block_of = bc.block_of
    order = sorted(range(len(keys)), key=lambda i: -block_of[keys[i]][0])
    cols = [{pos1[key]: c
             for key, c in bc.apply(bc.dtotal_key,
                                    {keys[i]: bc.field.one}).items()}
            for i in order]
    out, into = {}, {}
    for i, j in zip(order, pivot_pairs(bc.field, cols)):
        if j is not None:
            src, tgt = block_of[keys[i]][:2], block_of[keys1[j]][:2]
            out.setdefault(src, []).append(tgt[0] - src[0])
            into.setdefault(tgt, []).append(tgt[0] - src[0])
    return out, into


def _gap_multisets(gaps):
    return {pq: sorted(g) for pq, g in gaps.items()}


# (carrier, prime or None for Q, n, qmax): formal carriers on the quotient
# and the reduced complex, non-formal ones windowed on the reduced complex
CLEARING_CASES = [
    *[(nm, p, n, None) for nm in ("s2", "t2", "cp2", "s2xs2")
      for p in (None, 3, 101) for n in (3, 4)],
    ("heis3", None, 4, 6),
    ("heis3_s2", None, 4, 6),
    ("stb_s2xs2", None, 4, 10),
]


def _clearing_id(case):
    nm, p, n, qmax = case
    return "%s n=%d %s%s" % (nm, n, "Q" if p is None else "F%d" % p,
                             "" if qmax is None else " qmax=%d" % qmax)


@pytest.mark.parametrize("nm,p,n,qmax", CLEARING_CASES,
                         ids=map(_clearing_id, CLEARING_CASES))
def test_cleared_pairing_matches_uncleared(nm, p, n, qmax):
    alg = catalog.load(nm, field=Field(p))
    bcs = [build_C(alg, n, qmax=qmax)]
    if qmax is None:
        bcs.append(build_AG(alg, n, gr.NODUPTARGET))
    for bc in bcs:
        ss = SpectralSequence(bc)
        ks = sorted({p + q for (p, q) in bc.blocks})
        for k in ks:
            if qmax is not None and k + 1 > qmax:
                continue
            out, into, pivots = ss._pairs(k)
            ref_out, ref_into = _uncleared_pairs(bc, k)
            assert _gap_multisets(out) == _gap_multisets(ref_out), k
            assert _gap_multisets(into) == _gap_multisets(ref_into), k
            assert len(pivots) == sum(map(len, ref_out.values())), k
            # no cleared column was evaluated
            if k - 1 in ss._gaps:
                assert not ss._gaps[k - 1][2] & set(ss._cols.get(k, ())), k


# Measured E2 -> E3 drops of the four-point reduced complex over non-formal
# carriers, and of the cohomology algebra stb_s2xs2_h as the control.  Only
# blocks whose d2 target is inside the window are compared beyond these.
FOUR_POINT_DROPS = [
    ("stb_s2xs2", 10, {(0, 8): (16, 14), (2, 7): (10, 8)}),
    ("stb_s2xs2_h", 10, {}),
    ("heis3", 6, {(0, 4): (22, 20), (2, 3): (10, 8)}),
    ("heis3_s2", 6, {(0, 4): (25, 23), (2, 3): (18, 16)}),
    ("cs_heis3_s2", 6, {(0, 4): (28, 26), (2, 3): (24, 22)}),
]


@pytest.mark.parametrize("nm,qmax,drops", FOUR_POINT_DROPS,
                         ids=[c[0] for c in FOUR_POINT_DROPS])
def test_four_point_second_page_drops(nm, qmax, drops):
    bc = build_C(catalog.load(nm), 4, qmax=qmax)
    ss = SpectralSequence(bc)
    assert {pq: (ss.e_dim(2, *pq), ss.e_dim(3, *pq)) for pq in drops} == drops
    for (p, q) in sorted(bc.blocks):
        if p + q + 1 < qmax and (p, q) not in drops:
            assert ss.e_dim(3, p, q) == ss.e_dim(2, p, q), (p, q)


def test_four_point_control_has_the_same_second_page():
    pages = {}
    for nm in ("stb_s2xs2", "stb_s2xs2_h"):
        bc = build_C(catalog.load(nm), 4, qmax=10)
        ss = SpectralSequence(bc)
        dims = {pq: ss.e_dim(2, *pq) for pq in bc.blocks if sum(pq) < 10}
        pages[nm] = {pq: d for pq, d in dims.items() if d}
    assert pages["stb_s2xs2"] == pages["stb_s2xs2_h"]


# -- q-window guards ----------------------------------------------------------

def test_window_error_on_out_of_range_total_degree():
    bc = build_C(catalog.load("stb_s2xs2"), 3, qmax=4)
    ss = SpectralSequence(bc)
    with pytest.raises(WindowError):
        ss.z_basis(1, 0, 4)


def test_window_error_in_total_cohomology():
    bc = build_C(catalog.load("stb_s2xs2"), 3, qmax=4)
    with pytest.raises(WindowError):
        total_cohomology(bc, 0, 5)


def test_window_errors_name_the_least_degree():
    # D on Tot^k needs the q-window above k; of the degrees a call needs,
    # the error names the least one leaving it
    bc = build_C(catalog.load("stb_s2xs2"), 3, qmax=4)
    with pytest.raises(WindowError, match="total degree 4 "):
        total_cohomology(bc, 0, 5)
    ss = SpectralSequence(bc)
    with pytest.raises(WindowError, match="total degree 4 "):
        ss.e_dim(1, 1, 4)
    with pytest.raises(WindowError, match="total degree 5 "):
        ss.e_dim(1, 2, 4)


# -- the per-column window ----------------------------------------------------

FIELD_IDS = {None: "Q", 3: "F3", 101: "F101"}
WINDOW_FIELDS = pytest.mark.parametrize("p", list(FIELD_IDS),
                                        ids=FIELD_IDS.values())

# (carrier, internal degree of a four-fold tensor class): d2 sends E2(0, q)
# to E2(2, q - 1) on the four-point reduced complex, whose blocks need the
# q-window up to q
D2_WINDOWS = pytest.mark.parametrize("nm,q", [("stb_s2xs2", 8), ("heis3", 4)])


@WINDOW_FIELDS
@D2_WINDOWS
def test_narrow_window_gives_the_wide_second_page(nm, q, p):
    # a narrower window drops only low-p blocks at the front of each Tot^k,
    # so the representatives and the classes stay the same
    alg = catalog.load(nm, field=Field(p))
    wide = SpectralSequence(build_C(alg, 4, qmax=q + 2))
    narrow = SpectralSequence(build_C(alg, 4, qmax=q))
    assert rep_elements(narrow, 2, 2, q - 1) == rep_elements(wide, 2, 2, q - 1)
    images = [wide.bc.apply(wide.bc.dtotal_key, x)
              for x in rep_elements(wide, 2, 0, q)]
    classes = [wide.project_class(y, 2, 2, q - 1) for y in images]
    assert any(classes)
    assert [narrow.project_class(y, 2, 2, q - 1) for y in images] == classes


@WINDOW_FIELDS
@D2_WINDOWS
def test_one_step_narrower_window_raises(nm, q, p):
    bc = build_C(catalog.load(nm, field=Field(p)), 4, qmax=q - 1)
    with pytest.raises(WindowError):
        SpectralSequence(bc).e_block(2, 2, q - 1)


def _z_basis_on_every_column(ss, r, p, q):
    """Z_r(p, q) as the kernel of D on every column of F^p Tot^{p+q},
    restricted to the rows below F^{p+r}: the windowed z_basis without its
    window, each index placed by a scan of its key's block."""
    k = p + q
    if k < 0:
        return []
    keys, _ = ss.tot_keys(k)
    block_of = ss.bc.block_of
    fp = [i for i, key in enumerate(keys) if block_of[key][0] >= max(p, 0)]
    if r <= 0:
        return [{i: ss.bc.field.one} for i in fp]
    keys1, _ = ss.tot_keys(k + 1)
    low = {j for j, key in enumerate(keys1) if block_of[key][0] < p + r}
    cols = [{j: c for j, c in ss._column(k, i).items() if j in low}
            for i in fp]
    return [{fp[i]: c for i, c in v.items()}
            for v in kernel_basis(ss.bc.field, cols)]


@WINDOW_FIELDS
@pytest.mark.parametrize("nm,n,qmax", [("heis3", 4, 6), ("t2", 3, None)])
def test_z_basis_matches_the_kernel_on_every_column(nm, n, qmax, p):
    bc = build_C(catalog.load(nm, field=Field(p)), n, qmax=qmax)
    ss, ref = SpectralSequence(bc), SpectralSequence(bc)
    for k in sorted({sum(pq) for pq in bc.blocks}):
        # column -1 stands for every F^p below the first column
        for col in range(-1, bc.pmax + 1):
            for r in range(bc.pmax + 2):
                if r and qmax is not None and k + 1 - max(col, 0) > qmax:
                    with pytest.raises(WindowError):
                        ss.z_basis(r, col, k - col)
                    continue
                got = ss.z_basis(r, col, k - col)
                want = _z_basis_on_every_column(ref, r, col, k - col)
                assert ([list(v.items()) for v in got]
                        == [list(v.items()) for v in want]), (r, col, k)


# -- each D column is evaluated once ------------------------------------------

@pytest.fixture
def dkey_calls(monkeypatch):
    """Counts of Bicomplex.dprime_key / dsecond_key calls while active."""
    from confspace.bgcomplex import Bicomplex
    calls = {"dprime_key": 0, "dsecond_key": 0}

    def counted(name):
        orig = getattr(Bicomplex, name)

        def wrapper(self, key):
            calls[name] += 1
            return orig(self, key)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Bicomplex, name, counted(name))
    return calls


def test_pages_evaluate_each_key_once(dkey_calls):
    bc = build_AG(catalog.load("t2"), 3, gr.NODUPTARGET)
    out = pages(bc, bc.pmax + 1)
    assert 0 < dkey_calls["dprime_key"] <= bc.total_dim()
    # t2 has no differential: D is d' alone and d'' is never evaluated
    assert dkey_calls["dsecond_key"] == 0
    e2 = {(0, 2): 3, (0, 3): 10, (0, 4): 12, (0, 5): 6, (0, 6): 1,
          (1, 1): 2, (1, 2): 4, (1, 3): 2}
    assert {pq: d for pq, d in out[1].items() if d} == {
        (0, 0): 1, (0, 1): 6, (0, 2): 15, (0, 3): 20, (0, 4): 15,
        (0, 5): 6, (0, 6): 1, (1, 0): 3, (1, 1): 12, (1, 2): 18,
        (1, 3): 12, (1, 4): 3, (2, 0): 2, (2, 1): 4, (2, 2): 2}
    assert {pq: d for pq, d in out[2].items() if d} == e2
    assert {pq: d for pq, d in out[3].items() if d} == e2


def test_pages_never_evaluate_cleared_columns(dkey_calls):
    # the cleared columns are the pivots of D from the degree below, as many
    # as the ranks of D add up to: (total_dim - sum of the Betti numbers) / 2
    bc = build_AG(catalog.load("t2"), 3, gr.NODUPTARGET)
    pages(bc, bc.pmax + 1)
    betti = {2: 5, 3: 14, 4: 14, 5: 6, 6: 1}
    cleared = (bc.total_dim() - sum(betti.values())) // 2
    assert dkey_calls["dprime_key"] == bc.total_dim() - cleared
    assert dkey_calls["dsecond_key"] == 0


def test_pages_add_each_edge_once_per_graph(monkeypatch):
    # d' reads its edges off one table per graph, however many keys share it
    bc = build_AG(catalog.load("t2"), 3, gr.NODUPTARGET)
    orig = gr.add_edge
    calls = []

    def counted(g, i, j):
        calls.append((g, i, j))
        return orig(g, i, j)

    monkeypatch.setattr(gr, "add_edge", counted)
    pages(bc, bc.pmax + 1)
    graphs = {g for g, _ in bc.block_of}
    assert 0 < len(calls) <= len(graphs) * (bc.n * (bc.n - 1) // 2)


def test_total_cohomology_evaluates_each_key_once(dkey_calls):
    bc = build_AG(catalog.load("t2"), 3, gr.NODUPTARGET)
    assert total_cohomology(bc, 0, 6) == \
        {0: 0, 1: 0, 2: 5, 3: 14, 4: 14, 5: 6, 6: 1}
    assert 0 < dkey_calls["dprime_key"] <= bc.total_dim()
    assert dkey_calls["dsecond_key"] == 0


def test_pages_with_a_differential_evaluate_both_parts_of_each_column(
        dkey_calls):
    # heis3 has d c = ab: D is d' + d'', each evaluated once per uncleared
    # column, and the cleared ones, (total_dim - sum of Betti numbers) / 2,
    # never
    bc = build_AG(catalog.load("heis3"), 3, gr.NODUPTARGET)
    pages(bc, bc.pmax + 1)
    betti = {2: 5, 3: 17, 4: 30, 5: 37, 6: 32, 7: 18, 8: 6, 9: 1}
    cleared = (bc.total_dim() - sum(betti.values())) // 2
    assert 0 < dkey_calls["dsecond_key"] <= bc.total_dim()
    assert dkey_calls["dsecond_key"] == bc.total_dim() - cleared
    assert dkey_calls["dprime_key"] == bc.total_dim() - cleared
    assert total_cohomology(bc, 0, 9) == {0: 0, 1: 0} | betti


# -- D columns are exact constants ---------------------------------------------

def half_heis3(field):
    """heis3 as a free CDGA with d c = ab/2: over Q its differential, and so
    the D columns of a bicomplex on it, has Fraction entries."""
    return TruncatedFreeCDGA("heis3/2", field, [("a", 1), ("b", 1), ("c", 1)],
                             {"c": [(("a", "b"), Fraction(1, 2))]}, 3)


def is_exact(vec, p):
    """vec holds exact constants, none 0 in the field: ints, and Fractions
    only where fractional, over Q; residues in (0, p) over F_p."""
    if p is None:
        return all(type(x) is int and x or type(x) is Fraction
                   and x.denominator != 1 for x in vec.values())
    return all(type(x) is int and 0 < x < p for x in vec.values())


EXACT_CASES = {
    "C heis3 n=3": lambda f: build_C(catalog.load("heis3", field=f), 3),
    "bar t2 n=3": lambda f: build_AG(catalog.load("t2", field=f), 3,
                                     gr.NODUPTARGET),
    "C heis3/2 n=3": lambda f: build_C(half_heis3(f), 3),
}


@WINDOW_FIELDS
@pytest.mark.parametrize("make", EXACT_CASES.values(), ids=EXACT_CASES)
def test_exact_columns_are_the_scalar_differential(make, p):
    bc = make(Field(p))
    field = bc.field
    ss = SpectralSequence(bc)
    fractional = False
    for k in sorted({sum(pq) for pq in bc.blocks}):
        keys, _ = ss.tot_keys(k)
        _, pos1 = ss.tot_keys(k + 1)

        def scalar_d(v):
            out = bc.apply(bc.dtotal_key,
                           {keys[i]: c for i, c in v.items()})
            return {pos1[key]: c for key, c in out.items()}

        for i, key in enumerate(keys):
            col = ss._column(k, i)
            assert is_exact(col, p), key
            assert field.scalars(col) == scalar_d({i: field.one}), key
            fractional |= any(type(x) is Fraction for x in col.values())
        # _d_vec on the kernel vectors of D on block p1 below F^{p1+1}
        for (p1, q1) in sorted(bc.blocks):
            if p1 + q1 == k:
                for v in ss.z_basis(1, p1, q1):
                    y = ss._d_vec(v, k)
                    assert is_exact(y, p), v
                    assert field.scalars(y) == scalar_d(v), v
    assert fractional == (p is None and "heis3/2" in bc.carrier.name)


def test_pairing_forms_no_field_scalar(monkeypatch):
    bc = build_AG(catalog.load("t2"), 3, gr.NODUPTARGET)
    calls = []
    orig = Field.scalars

    def counted(self, acc, s=1):
        calls.append(len(acc))
        return orig(self, acc, s)

    monkeypatch.setattr(Field, "scalars", counted)
    assert SpectralSequence(bc).collapse_page() == 2
    assert total_cohomology(bc, 0, 6) == \
        {0: 0, 1: 0, 2: 5, 3: 14, 4: 14, 5: 6, 6: 1}
    assert calls == []


# -- two constructions of the second page agree --------------------------------

def _page_failures(bc, blocks, r=2):
    """{(p, q): (dim E_r, dim E_{r+1}, rank d_r out, rank d_r in)} over the
    given blocks where dim E_{r+1} = dim E_r - rank d_r out - rank d_r in
    fails; the dimensions are read off the pairing, the ranks off the page
    bases.  Where d_r out of (p, q) lands in a given block, d_r after d_r
    must be the zero matrix."""
    ss = SpectralSequence(bc)
    bad = {}
    for (p, q) in blocks:
        er = ss.e_dim(r, p, q)
        assert len(ss.e_block(r, p, q)[0]) == er, (p, q)
        d = ss.d_matrix(r, p, q)
        out = rank(bc.field, d)
        into = (rank(bc.field, ss.d_matrix(r, p - r, q + r - 1))
                if (p - r, q + r - 1) in bc.blocks else 0)
        if (p + r, q - r + 1) in blocks:
            d_next = ss.d_matrix(r, p + r, q - r + 1)
            assert all(apply_map(d_next.__getitem__, v) == {} for v in d), \
                (p, q)
        e_next = ss.e_dim(r + 1, p, q)
        if e_next != er - out - into:
            bad[(p, q)] = (er, e_next, out, into)
    return bad


def _window_inside(bc):
    """The blocks whose pages and page differentials the window holds."""
    inside = [pq for pq in sorted(bc.blocks) if sum(pq) < bc.qmax]
    assert inside
    return inside


# (carrier, prime or None for Q, qmax) of build_C at n=4
REDUCED_PAGE_CASES = [("heis3", None, 7), ("heis3", 101, 7), ("t2", None, 5),
                      ("heis3_s2", None, 6), ("cs_heis3_s2", None, 6),
                      ("cp2", None, 7), ("s2xs2", None, 7), ("cs_s5", None, 8)]


@pytest.mark.parametrize(
    "nm,p,qmax", REDUCED_PAGE_CASES,
    ids=["%s-%s" % (nm, "Q" if p is None else "F%d" % p)
         for nm, p, _ in REDUCED_PAGE_CASES])
def test_second_page_ranks_match_the_third_page(nm, p, qmax):
    bc = build_C(catalog.load(nm, field=Field(p)), 4, qmax=qmax)
    assert _page_failures(bc, _window_inside(bc)) == {}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("p", [None, 101], ids=["Q", "F101"])
def test_quotient_page_ranks_match_the_next_page(p, r):
    # four columns, so d3 has room
    bc = build_AG(catalog.load("heis3", field=Field(p)), 4, gr.NODUPTARGET,
                  qmax=6)
    assert bc.pmax == 3
    assert _page_failures(bc, _window_inside(bc), r) == {}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the E2 bases at (0, 8) give d2 rank 8 against a drop "
    "of 2 from E2 to E3"))
def test_headline_second_page_rank_matches_the_third_page():
    bc = build_C(catalog.load("stb_s2xs2"), 4, qmax=9)
    assert _page_failures(bc, [(0, 8)]) == {}


# -- known defect: boundaries may project to a nonzero class ------------------

@pytest.mark.xfail(strict=True, reason=(
    "_project solves against reps + red.basis(), but e_block already put "
    "the reps into red, so the columns are dependent and the class "
    "coordinates depend on the reducer's row form"))
def test_boundaries_project_to_zero_class():
    H = catalog.load("stb_s2xs2_h")
    bc = build_C(H.ambient, 4, qmax=10)
    ss = SpectralSequence(bc)
    boundaries = ss._boundary_span(2, 2, 7).basis()
    assert len(boundaries) == 32
    assert [v for v in boundaries if ss._project(v, 2, 2, 7)] == []
