"""End-to-end acceptance battery: the package's headline results, exactly.

Each test carries the wall-clock budget it must meet; all arithmetic is
exact, so every assertion is equality, never tolerance."""

import json
import time

import pytest

from confspace.exactlinalg import QQ
from confspace import graphs as gr
from confspace import catalog
from confspace import reports as rp
from confspace.algebra import cohomology
from confspace.bgcomplex import build_AG, build_C
from confspace.spectral import SpectralSequence
from confspace.ctcomplex import CTComplex
from confspace.massey import triple_massey, thm3_detector
from confspace.cli import main

FORMAL = ["s2", "s3", "t2", "cp2"]


class budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, \
                "budget exceeded: %.1fs > %ds" % (elapsed, self.seconds)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- 1: worked example: nonzero second-page differential -----------------------

def test_01_tangent_bundle_d2_example(capsys):
    with budget(60):
        code, out = run_cli(capsys, "d2", "--catalog", "stb_s2xs2",
                            "--n", "4", "--format", "json",
                            "x", "x", "y", "y")
        assert code == 0
        data = json.loads(out)
        # the corner tensor, written on the basis [ty-vx] = [-1*x*v + y*t]
        # and [tx-uy] = -[-1*x*t + y*u]:
        #   [x] (x) [ty-vx] - [ty-vx] (x) [x] - 2 [tx-uy] (x) [y]
        assert data["e23e34_component"] == {
            "[x] (x) [-1*x*v + y*t]": "1",
            "[-1*x*v + y*t] (x) [x]": "-1",
            "[-1*x*t + y*u] (x) [y]": "2",
        }
        assert data["e23e24_component"] == {}
        assert data["verdict"] == "nonzero in E2^{2,*}"
        # nonzero residual in the antisymmetrized indecomposable square
        qq = {k: v for k, v in data["residuals"]["e2334"].items()
              if not k.startswith("1 ")}
        assert qq and any(v != "0" for v in qq.values())
        assert data["zigzag_cross_validation"] == "agree"


# -- 2: the two triple Massey products behind the example ----------------------

def test_02_massey_classes():
    H = catalog.load("stb_s2xs2_h")
    c = H.ambient
    with budget(5):
        r = triple_massey(H, "[x]", "[x]", "[y]")
        # <x, x, y> = -[tx - uy] = [-xt + yu]
        assert r.class_modulo_indeterminacy() == \
            {H.labels.index("[-1*x*t + y*u]"): QQ.one}
        assert not c.differentiate(r.rep)
    with budget(5):
        r = triple_massey(H, "[x]", "[y]", "[y]")
        # <x, y, y> = [ty - vx] = [-xv + yt]
        assert r.class_modulo_indeterminacy() == \
            {H.labels.index("[-1*x*v + y*t]"): QQ.one}
        assert not c.differentiate(r.rep)


# -- 3: collapse of both spectral sequences ------------------------------------

def test_03_collapse_both_sides():
    with budget(60):
        for nm in FORMAL:
            a = catalog.load(nm)
            for n in (2, 3):
                out = rp.check_collapse(a, n)
                assert out["verdict"] == "pass", (nm, n)
                assert out["details"]["quotient_collapse_page"] <= 2
                assert out["details"]["reduced_collapse_page"] <= 2
                # tensor-power side: no bidegree admits a later differential
                ct = CTComplex(a, n)
                e2 = {k: d for k, d in ct.e2_dims().items() if d}
                for (p, h) in e2:
                    for r in range(2, p + 1):
                        assert not e2.get((p - r, h + r * (ct.m - 1) + 1)), \
                            (nm, n, p, h, r)
            # four points: the reduced complex has three columns, so every
            # differential from page three on vanishes structurally
            c4 = build_C(a, 4)
            assert c4.pmax == 2
            assert SpectralSequence(c4).collapse_page() <= 3


# -- 4: the perfect pairing --------------------------------------------------

def test_04_duality():
    with budget(120):
        for nm in FORMAL:
            for n in (2, 3, 4):
                out = rp.check_duality(catalog.load(nm), n)
                assert out["verdict"] == "pass", (nm, n)
                assert out["details"]["second_page"]
                for s in out["details"]["adjointness_signs"].values():
                    assert s in (None, "1", "-1")


# -- 5: the duplicate-target ideal is acyclic ----------------------------------

def test_05_acyclic_ideal():
    with budget(120):
        for nm in ("s2", "t2"):
            for n in (3, 4):
                out = rp.check_acyclic_ideal(catalog.load(nm), n)
                assert out["verdict"] == "pass", (nm, n)
                assert all(v == 0 for v in
                           out["details"]["ideal_cohomology"].values())
                assert out["details"]["full"] == out["details"]["quotient"]


# -- 6: the reduced embedding ----------------------------------------------------

def test_06_reduced_embedding():
    with budget(120):
        for nm in FORMAL:
            for n in (2, 3, 4):
                out = rp.check_reduced_embedding(catalog.load(nm), n)
                assert out["verdict"] == "pass", (nm, n)


# -- 7: dimension identities ------------------------------------------------------

def test_07_dimension_identities():
    with budget(60):
        for nm in FORMAL:
            a = catalog.load(nm)
            out = rp.check_three_point_sequence(a)
            assert out["verdict"] == "pass", nm
            out = rp.check_four_point_corner(a)
            assert out["verdict"] == "pass", nm


# -- 8: sanity anchors --------------------------------------------------------------

def test_08_anchors():
    with budget(5):
        out = rp.check_anchors()
        assert out["verdict"] == "pass"
        d = out["details"]
        for n in (2, 3, 4):
            assert d["reduced_point_n%d" % n] == 0
        for m in (2, 3):
            assert sum(d["two_points_s%d" % m].values()) == 2
        for n in range(1, 7):
            import math
            assert d["graphs_n%d" % n] == \
                {"no_dup_target": math.factorial(n),
                 "reduced": math.factorial(n - 1)}


# -- 9: formality negative control ----------------------------------------------------

def test_09_formal_negative_control():
    with budget(120):
        for nm in FORMAL + ["s2xs2", "cs_s5"]:
            out = rp.check_formal_negative(catalog.load(nm))
            assert out["verdict"] == "pass", nm
            assert out["details"]["findings"] == 0
            assert out["details"]["collapse_page"] <= 2


# -- 10: determinism ----------------------------------------------------------------------

BATTERY = [
    ("check", "prop1", "--catalog", "s2", "--n", "3"),
    ("check", "prop3", "--catalog", "t2", "--n", "3"),
    ("check", "thm2", "--catalog", "cp2", "--n", "3"),
    ("check", "thm1", "--catalog", "s3", "--n", "2"),
    ("check", "prop5", "--catalog", "t2"),
    ("check", "prop6", "--catalog", "s2"),
    ("check", "anchors"),
    ("pages", "--catalog", "s2", "--n", "3"),
    ("ct-e2", "--catalog", "t2", "--n", "2"),
    ("total", "--catalog", "s2", "--n", "3", "--kind", "c"),
    ("massey", "--catalog", "stb_s2xs2", "x", "x", "y"),
    ("d2", "--catalog", "stb_s2xs2", "--n", "4", "x", "x", "y", "y"),
]


def test_10_byte_identical_battery(capsys):
    def run_all():
        chunks = []
        for argv in BATTERY:
            code, out = run_cli(capsys, *argv, "--format", "json")
            assert code == 0, argv
            chunks.append(out)
        return "".join(chunks)

    first = run_all()
    second = run_all()
    assert first == second
    assert first.encode() == second.encode()
