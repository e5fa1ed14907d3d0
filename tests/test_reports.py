"""Report checkers: verdicts, known dimension tables, json-stability."""

import json
from collections import Counter

import pytest

from confspace import catalog
from confspace import graphs as gr
from confspace import reports as rp
from confspace.algebra import TruncatedFreeCDGA, poincare_data
from confspace.bgcomplex import Bicomplex, build_AG, build_C
from confspace.ctcomplex import CTComplex
from confspace.exactlinalg import QQ, Field
from confspace.spectral import SpectralSequence, total_cohomology


@pytest.mark.parametrize("nm", ["s2", "t2"])
@pytest.mark.parametrize("n", [3, 4])
def test_acyclic_ideal(nm, n):
    out = rp.check_acyclic_ideal(catalog.load(nm), n)
    assert out["verdict"] == "pass"
    assert all(v == 0 for v in out["details"]["ideal_cohomology"].values())
    assert out["details"]["full"] == out["details"]["quotient"]


@pytest.mark.parametrize("nm,n", [("s2", 3), ("cp2", 3), ("t2", 4)])
def test_reduced_embedding(nm, n):
    out = rp.check_reduced_embedding(catalog.load(nm), n)
    assert out["verdict"] == "pass"
    assert out["details"]["failure"] is None
    assert out["details"]["reduced"] == out["details"]["quotient"]


# total cohomology of both sides on carriers with d'' != 0, which the
# chain-map clause compares along with d'
EMBEDDING_DIMS = {
    ("heis3", 3): {0: 0, 1: 0, 2: 5, 3: 17, 4: 30, 5: 37, 6: 32, 7: 18,
                   8: 6, 9: 1},
    ("heis3_s2", 2): {0: 0, 1: 2, 2: 7, 3: 15, 4: 23, 5: 27, 6: 25, 7: 18,
                      8: 10, 9: 4, 10: 1},
}


@pytest.mark.parametrize("p", [None, 101], ids=["Q", "F101"])
@pytest.mark.parametrize("nm,n", sorted(EMBEDDING_DIMS))
def test_reduced_embedding_on_carriers_with_a_differential(nm, n, p):
    dims = EMBEDDING_DIMS[(nm, n)]
    assert rp.check_reduced_embedding(catalog.load(nm, field=Field(p)),
                                      n) == {
        "check": "reduced-embedding", "inputs": {"algebra": nm, "n": n},
        "verdict": "pass",
        "details": {"failure": None, "reduced": dims, "quotient": dims}}


def test_reduced_embedding_names_the_first_failing_key(monkeypatch):
    # with every image left alive by the edges at vertex 1, the report
    # names the first key of the first block and checks no later key
    alg = catalog.load("t2")
    c = build_C(alg, 3)
    first = c.blocks[min(c.blocks)][0]
    seen = []

    def alive(bc, el, i, j):
        seen.append(el)
        return el

    monkeypatch.setattr(rp, "edge_multiply", alive)
    out = rp.check_reduced_embedding(alg, 3)
    assert out["verdict"] == "fail"
    assert out["details"]["failure"] == (
        "image not killed by edge at vertex 1", c.show_key(first))
    assert out["details"]["reduced"] is None
    assert len(seen) == 1


@pytest.mark.parametrize("nm", ["s2", "s3", "t2", "cp2"])
def test_collapse_three_points(nm):
    out = rp.check_collapse(catalog.load(nm), 3)
    assert out["verdict"] == "pass"
    assert out["details"]["quotient_collapse_page"] <= 2


def test_collapse_reduced_columns_four_points():
    out = rp.check_collapse(catalog.load("s2"), 4)
    assert out["verdict"] == "pass"
    # only three columns: d_3 and later vanish structurally
    assert out["details"]["reduced_columns"] == 3


def test_kahler_differentials_sphere():
    # one generator dw in degree m; w dw dies against the relation w^2 = 0
    out = rp.kahler_differentials(catalog.load("s2"))
    assert out == {2: 1}


def test_kahler_differentials_torus():
    # free module on da1, da2 over the exterior algebra: dims 2, 4, 2
    out = rp.kahler_differentials(catalog.load("t2"))
    assert out == {1: 2, 2: 4, 3: 2}


def projective_kernel(alg):
    """Dims per internal degree of the kernel of the three-point d1 (the
    image of the ambient-product restriction map)."""
    return rp._three_point_d1(alg)[0]


def test_projective_kernel_sphere():
    # only the all-top tensor survives
    out = projective_kernel(catalog.load("s2"))
    assert out == {6: 1}


def test_config_space_dims_against_known():
    assert rp.config_space_dims(catalog.load("s2"), 2) == {0: 1, 2: 1}
    assert rp.config_space_dims(catalog.load("s2"), 3) == {0: 1, 3: 1}
    assert rp.config_space_dims(catalog.load("t2"), 2) == \
        {0: 1, 1: 4, 2: 5, 3: 2}


def sphere_poincare(m, n):
    """Betti numbers of F(S^m, n), n >= 3, by degree (Feichtner-Ziegler,
    Doc. Math. 2000): (1+t^m) prod_{j=1}^{n-2} (1+j t^{m-1}) for odd m and
    (1+t^{2m-1}) prod_{j=2}^{n-2} (1+j t^{m-1}) for even m."""
    if m % 2:
        factors = [(1, m)] + [(j, m - 1) for j in range(1, n - 1)]
    else:
        factors = [(1, 2 * m - 1)] + [(j, m - 1) for j in range(2, n - 1)]
    poly = {0: 1}
    for c, d in factors:
        out = dict(poly)
        for k, v in poly.items():
            out[k + d] = out.get(k + d, 0) + c * v
        poly = out
    return poly


@pytest.mark.parametrize("nm,n", [("s2", 3), ("s2", 4), ("s2", 5), ("s2", 6),
                                  ("s3", 3), ("s3", 4), ("s3", 5), ("s3", 6),
                                  ("s4", 3), ("s4", 4), ("s4", 5)])
def test_config_space_dims_closed_form(nm, n):
    m = int(nm[1:])
    assert rp.config_space_dims(catalog.load(nm), n) == sphere_poincare(m, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("nm", ["point", "s1", "s2", "s3", "s4", "t2", "cp2",
                                "s2xs2", "cs_s5", "stb_s2xs2_h"])
def test_config_space_euler_characteristic(nm, n):
    # chi(F(M, n)) = chi(M) (chi(M) - 1) ... (chi(M) - n + 1), by induction
    # on the Fadell-Neuwirth fibrations F(M, n+1) -> F(M, n), whose fibre is
    # M minus n points
    alg = catalog.load(nm)
    chi = sum((-1) ** d for d in alg.degrees)
    want = 1
    for j in range(n):
        want *= chi - j
    dims = rp.config_space_dims(alg, n)
    assert sum((-1) ** k * d for k, d in dims.items()) == want


def graph_side_dims(alg, n):
    """Betti numbers of F(M, n) by degree from the graph side: the two
    second pages are dual, so H^k is the total cohomology of the
    no-duplicate-target complex in degree n m - k.  Its ranks are pair
    counts of the spectral sequence, so it never calls ``rank``."""
    bar = build_AG(alg, n, gr.NODUPTARGET)
    ks = [p + q for (p, q) in bar.blocks]
    top = n * poincare_data(alg).m
    return {top - k: d for k, d in
            total_cohomology(bar, min(ks), max(ks)).items() if d}


@pytest.mark.parametrize("field", [QQ, Field(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("nm", ["s2", "s3", "t2", "cp2", "s2xs2"])
def test_config_space_dims_match_the_graph_side(nm, n, field):
    # a cross-side oracle for the tensor-power ranks
    alg = catalog.load(nm, field=field)
    assert rp.config_space_dims(alg, n) == graph_side_dims(alg, n)


def _dimension_invariants(alg, n):
    bc = build_C(alg, n)
    ss = SpectralSequence(bc)
    return (CTComplex(alg, n).e2_dims(),
            {r: ss.page(r) for r in range(1, bc.pmax + 2)},
            rp.config_space_dims(alg, n))


@pytest.mark.parametrize("nm,n", [
    pytest.param(nm, 3, id=nm) for nm in ("s2", "t2", "cp2", "s2xs2")
] + [pytest.param(nm, 4, id=nm + "-n4")
     for nm in ("s2", "cp2", "t2", "s2xs2")])
def test_dimensions_agree_over_q_and_large_prime(nm, n):
    # a rank over F_p is at most the rank over Q, with equality for all but
    # finitely many p; a coefficient bug shows up as a disagreement
    q = _dimension_invariants(catalog.load(nm), n)
    fp = _dimension_invariants(catalog.load(nm, field=Field(32003)), n)
    assert q == fp
    assert any(q[0].values()) and q[2]


@pytest.mark.parametrize("nm", ["t2", "cp2", "s2xs2"])
@pytest.mark.parametrize("p", [5, 101])
def test_five_point_dims_agree_over_q_and_small_primes(nm, p):
    # F3 is left out: d1 carries chi(CP^2) = 3, so over F3 cp2 already
    # differs from Q at three points
    q = rp.config_space_dims(catalog.load(nm), 5)
    assert rp.config_space_dims(catalog.load(nm, field=Field(p)), 5) == q
    assert q[0] == 1


# heis3 and heis3_s2 carry a differential, so d'' pairs within a column
@pytest.mark.parametrize("nm", ["s2", "t2", "cp2", "s2xs2", "heis3",
                                "heis3_s2"])
def test_last_page_is_total_cohomology(nm):
    # the sequence converges to the total cohomology, and each d_r keeps the
    # Euler characteristic of the page it acts on
    bc = build_C(catalog.load(nm), 3)
    ss = SpectralSequence(bc)
    pages = [ss.page(r) for r in range(1, bc.pmax + 2)]
    ks = [p + q for (p, q) in bc.blocks]
    h = total_cohomology(bc, min(ks), max(ks))
    for k in h:
        assert sum(d for (p, q), d in pages[-1].items() if p + q == k) == h[k]
    assert any(h.values())
    euler = {sum((-1) ** (p + q) * d for (p, q), d in page.items())
             for page in pages}
    assert len(euler) == 1


@pytest.mark.parametrize("nm", ["s2", "s3", "t2", "cp2"])
def test_three_point_sequence(nm):
    out = rp.check_three_point_sequence(catalog.load(nm))
    assert out["verdict"] == "pass"
    for k, (lhs, rhs) in out["details"]["per_degree"].items():
        assert lhs == rhs


@pytest.mark.parametrize("nm", ["s2", "s3", "t2", "cp2"])
def test_four_point_corner(nm):
    out = rp.check_four_point_corner(catalog.load(nm))
    assert out["verdict"] == "pass"


# carriers with a differential: d'' is nonzero on their reduced complexes,
# so a corner read off D instead of d' alone gives other dims (heis3 would
# give {1: 4, 2: 10, 3: 10, 4: 2})
CORNER_TABLES = {
    "heis3": {1: 3, 2: 9, 3: 9, 4: 3},
    "heis3_s2": {1: 3, 2: 10, 3: 15, 4: 15, 5: 10, 6: 3},
    "cs_heis3_s2": {1: 3, 2: 11, 3: 19, 4: 19, 5: 12, 6: 1},
}


@pytest.mark.parametrize("p", [None, 101], ids=["Q", "F101"])
@pytest.mark.parametrize("nm", sorted(CORNER_TABLES))
def test_four_point_corner_on_carriers_with_a_differential(nm, p):
    alg = catalog.load(nm, field=Field(p))
    cok = CORNER_TABLES[nm]
    assert rp.kahler_differentials(alg) == cok
    out = rp.check_four_point_corner(alg)
    assert out["verdict"] == "pass"
    assert out["details"]["per_degree"] == {
        q: (2 * d, 2 * d) for q, d in cok.items()}


def test_four_point_corner_evaluates_d_prime_once(monkeypatch):
    # both reports' d' is the cached D of a sequence of d' alone: each key
    # image is evaluated at most once, d'' never, and no field scalar is
    # formed
    alg = catalog.load("heis3")
    calls = Counter()
    for name in ("dprime_key", "dsecond_key"):
        def counted(self, key, _name=name, _orig=getattr(Bicomplex, name)):
            calls[(_name, key)] += 1
            return _orig(self, key)
        monkeypatch.setattr(Bicomplex, name, counted)
    scalars = []
    orig = Field.scalars

    def counted_scalars(self, *args):
        scalars.append(args)
        return orig(self, *args)

    monkeypatch.setattr(Field, "scalars", counted_scalars)
    assert rp.check_four_point_corner(alg)["verdict"] == "pass"
    assert calls and set(calls.values()) == {1}
    assert {name for name, _ in calls} == {"dprime_key"}
    assert not scalars


@pytest.mark.parametrize("nm,n", [("s2", 2), ("s3", 3), ("cp2", 2)])
def test_duality_report(nm, n):
    out = rp.check_duality(catalog.load(nm), n)
    assert out["verdict"] == "pass"
    assert out["details"]["second_page"]


@pytest.mark.parametrize("nm,n", [
    pytest.param(nm, n, id="%s-n%d" % (nm, n))
    for nm in ("s2", "s3", "t2", "cp2", "s2xs2", "cs_s5") for n in (2, 3, 4)])
def test_duality_payload_over_large_prime_is_the_q_payload(nm, n):
    # the adjointness signs are (-1)^(p-1) over every field and print as
    # 1 or -1, not as residues; F3 is left out of the byte comparison
    # (cp2 has 3-torsion in E2 at three and four points) but not of the
    # sign text
    q = json.dumps(rp.check_duality(catalog.load(nm), n))
    fp = json.dumps(rp.check_duality(catalog.load(nm, field=Field(101)), n))
    assert fp == q
    out = rp.check_duality(catalog.load(nm, field=Field(3)), n)
    assert out["verdict"] == "pass"
    signs = set(out["details"]["adjointness_signs"].values())
    assert signs <= {None, "1", "-1"}
    assert ("-1" in signs) == (n > 2)   # d1 out of two edges


def test_anchors():
    out = rp.check_anchors()
    assert out["verdict"] == "pass"
    assert out["details"]["reduced_point_n3"] == 0
    assert out["details"]["graphs_n4"] == {"no_dup_target": 24, "reduced": 6}


def test_formal_negative_control():
    out = rp.check_formal_negative(catalog.load("s2xs2"))
    assert out["verdict"] == "pass"
    assert out["details"]["findings"] == 0
    assert out["details"]["collapse_page"] <= 2


def test_formal_negative_rejects_differential_carrier():
    with pytest.raises(ValueError):
        rp.check_formal_negative(catalog.load("stb_s2xs2"))


def test_four_point_corner_refuses_truncated_model(monkeypatch):
    # its complexes have no degree window, so over a truncated model the
    # check must refuse before it builds anything
    def build_C(*args, **kwargs):
        raise AssertionError("a complex was built before the refusal")

    monkeypatch.setattr(rp, "build_C", build_C)
    model = TruncatedFreeCDGA("xu", QQ, [("x", 2), ("u", 3)],
                              {"u": [(("x", "x"), 1)]}, 7)
    with pytest.raises(ValueError, match="truncated"):
        rp.check_four_point_corner(model)


def test_reports_are_json_stable():
    a = catalog.load("s2")
    r1 = json.dumps(rp.check_collapse(a, 3), sort_keys=True, default=str)
    r2 = json.dumps(rp.check_collapse(catalog.load("s2"), 3),
                    sort_keys=True, default=str)
    assert r1 == r2


def test_failing_identity_reports_fail_not_raise():
    # heis3 is not formal: at four points both graph-side sequences first
    # collapse at page 3, and the report says so without raising
    out = rp.check_collapse(catalog.load("heis3"), 4)
    assert out["verdict"] == "fail"
    assert out["details"]["quotient_collapse_page"] == 3
    assert out["details"]["reduced_collapse_page"] == 3
