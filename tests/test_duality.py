"""Perfect pairing between the tensor-power complex and the graph quotient."""

import pytest

from confspace.exactlinalg import QQ
from confspace import graphs as gr
from confspace import catalog
from confspace.algebra import sign
from confspace.ctcomplex import CTComplex
from confspace.bgcomplex import build_AG
from confspace.duality import Pairing, theorem1_check, DualityError


def make_pairing(nm, n):
    a = catalog.load(nm)
    return a, Pairing(CTComplex(a, n), build_AG(a, n, gr.NODUPTARGET))


# -- key-level pairing --------------------------------------------------------

def test_pair_keys_literal_two_points():
    a, pr = make_pairing("s2", 2)
    w = a.labels.index("w2")
    g1 = gr.Graph(2, [(1, 2)])
    # merged unit slot pairs against the top class
    assert pr.pair_keys(((0, 0), ((1, 2),)), (g1, (w,))) == QQ.one
    # w * w = 0 kills the pairing
    assert pr.pair_keys(((0, w), ((1, 2),)), (g1, (w,))) == QQ.zero
    # mismatched edge sets never pair
    assert pr.pair_keys(((0, w), ()), (g1, (0,))) == QQ.zero


def test_pair_keys_discrete_graph_slotwise():
    a, pr = make_pairing("s2", 2)
    w = a.labels.index("w2")
    g0 = gr.Graph(2)
    assert pr.pair_keys(((w, w), ()), (g0, (0, 0))) == QQ.one
    assert pr.pair_keys(((w, 0), ()), (g0, (0, w))) == QQ.one
    assert pr.pair_keys(((w, 0), ()), (g0, (w, 0))) == QQ.zero


def test_dual_block_arithmetic():
    _, pr = make_pairing("s2", 3)
    # (p, h) pairs with (p, (n - p) m - h)
    assert pr.dual_block(0, 2) == (0, 4)
    assert pr.dual_block(1, 2) == (1, 2)
    assert pr.dual_block(2, 0) == (2, 2)


# -- guards ---------------------------------------------------------------------

def test_pairing_requires_quotient_family():
    a = catalog.load("s2")
    with pytest.raises(ValueError):
        Pairing(CTComplex(a, 2), build_AG(a, 2, gr.FULL))


def test_pairing_requires_shared_algebra():
    with pytest.raises(ValueError):
        Pairing(CTComplex(catalog.load("s2"), 2),
                build_AG(catalog.load("s3"), 2, gr.NODUPTARGET))


def test_degenerate_blocks_rejected():
    # mismatched point counts break the block-dimension equality
    a = catalog.load("s2")
    ct = CTComplex(a, 2)
    bar = build_AG(a, 3, gr.NODUPTARGET)
    with pytest.raises(DualityError):
        theorem1_check(a, 2, ct=ct, bar=bar)


# -- full verification ------------------------------------------------------------

@pytest.mark.parametrize("nm", ["s2", "s3", "t2", "cp2"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_duality_verified(nm, n):
    a = catalog.load(nm)
    out = theorem1_check(a, n)
    # adjointness sign depends only on the column: (-1)^(p-1) for p edges
    for (p, h), s in out["signs"].items():
        if s is None:
            continue
        assert s == QQ.of(sign(p - 1)), (nm, n, p, h)
    # every nonzero second-page block is mirrored with equal dimension
    assert out["e2_pairs"]
    for (ph, q2, d, db) in out["e2_pairs"]:
        assert d == db


def test_relations_orthogonal_everywhere():
    a, pr = make_pairing("t2", 3)
    for (p, h) in pr.ct.blocks():
        keys = pr.ct._blocks[(p, h)]
        bar_keys = pr.bar.blocks.get(pr.dual_block(p, h), [])
        for v in pr.ct.relation_vectors(p, h):
            for bkey in bar_keys:
                assert not sum((c * pr.pair_keys(keys[i], bkey)
                                for i, c in v.items()), QQ.zero)


def test_pairing_matrix_square_and_full_rank():
    from confspace.exactlinalg import rank
    a, pr = make_pairing("cp2", 2)
    for (p, h) in pr.ct.blocks():
        d = pr.ct.dim(p, h)
        if d == 0:
            continue
        m = pr.matrix(p, h)
        assert m.nrows == d
        assert rank(m) == d
