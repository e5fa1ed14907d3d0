"""Report checkers: verdicts, known dimension tables, json-stability."""

import json

import pytest

from confspace import catalog
from confspace import reports as rp


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


def test_projective_kernel_sphere():
    # only the all-top tensor survives
    out = rp.projective_kernel(catalog.load("s2"))
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


@pytest.mark.parametrize("nm,n", [("s2", 3), ("s2", 4), ("s2", 5),
                                  ("s3", 3), ("s3", 4), ("s3", 5),
                                  ("s4", 3), ("s4", 4)])
def test_config_space_dims_closed_form(nm, n):
    m = int(nm[1:])
    assert rp.config_space_dims(catalog.load(nm), n) == sphere_poincare(m, n)


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


@pytest.mark.parametrize("nm,n", [("s2", 2), ("s3", 3), ("cp2", 2)])
def test_duality_report(nm, n):
    out = rp.check_duality(catalog.load(nm), n)
    assert out["verdict"] == "pass"
    assert out["details"]["second_page"]


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


def test_reports_are_json_stable():
    a = catalog.load("s2")
    r1 = json.dumps(rp.check_collapse(a, 3), sort_keys=True, default=str)
    r2 = json.dumps(rp.check_collapse(catalog.load("s2"), 3),
                    sort_keys=True, default=str)
    assert r1 == r2


def test_failing_identity_reports_fail_not_raise():
    # a deliberately wrong expectation flips the verdict without raising
    out = rp.check_collapse(catalog.load("s2"), 3, expect_at=0)
    assert out["verdict"] == "fail"
