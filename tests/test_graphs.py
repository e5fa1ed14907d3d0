"""Graph families, component bookkeeping, edge-insertion signs."""

from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from confspace import graphs as gr


def count(n, family):
    return sum(1 for _ in gr.enumerate_graphs(n, family))


def test_full_family_counts():
    # 2^(n choose 2)
    assert count(1, gr.FULL) == 1
    assert count(2, gr.FULL) == 2
    assert count(3, gr.FULL) == 8
    assert count(4, gr.FULL) == 64


def test_no_duplicate_target_counts_are_factorials():
    for n in range(1, 7):
        assert count(n, gr.NODUPTARGET) == factorial(n)


def test_reduced_family_counts():
    for n in range(1, 7):
        assert count(n, gr.HFAMILY) == factorial(n - 1)


def test_ideal_family_is_complement():
    for n in range(2, 5):
        assert count(n, gr.JFAMILY) == count(n, gr.FULL) - count(n, gr.NODUPTARGET)


@pytest.mark.parametrize("family", [gr.FULL, gr.NODUPTARGET, gr.JFAMILY,
                                    gr.HFAMILY])
def test_enumeration_matches_filtering_every_subset(family):
    # the distinct-target families are built directly; the reference keeps
    # every edge subset the family test accepts, in the same order
    for n in range(1, 7):
        all_edges = [(i, j) for i in range(1, n + 1)
                     for j in range(i + 1, n + 1)]
        want = []
        for k in range(len(all_edges) + 1):
            for sub in combinations(all_edges, k):
                g = gr.Graph(n, sub)
                if gr.in_family(g, family):
                    want.append(g)
        got = gr.enumerate_graphs(n, family)
        assert [g.edges for g in got] == [g.edges for g in want], n


def test_no_dup_graphs_are_forests():
    for g in gr.enumerate_graphs(4, gr.NODUPTARGET):
        comps = gr.components(g)
        assert g.edge_count == 4 - len(comps)


def test_components_ordered_by_minimum():
    g = gr.Graph(4, [(2, 4)])
    comps = gr.components(g)
    assert comps == [[1], [2, 4], [3]]
    assert gr.component_of(g, 4) == 1


def test_add_edge_duplicate_is_zero():
    g = gr.Graph(3, [(1, 2)])
    assert gr.add_edge(g, 1, 2) is gr.ZERO


def test_add_edge_sign_examples():
    # sign is (-1)^(number of existing edges lexicographically after (i,j))
    assert gr.add_edge(gr.Graph(3), 1, 2)[1] == 1
    assert gr.add_edge(gr.Graph(3, [(2, 3)]), 1, 2)[1] == -1
    assert gr.add_edge(gr.Graph(3, [(1, 2)]), 2, 3)[1] == 1
    assert gr.add_edge(gr.Graph(3, [(1, 2)]), 1, 3)[1] == 1
    assert gr.add_edge(gr.Graph(3, [(1, 3), (2, 3)]), 1, 2)[1] == 1


edges3 = st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)])


@settings(max_examples=100, deadline=None)
@given(st.sets(edges3, max_size=4), edges3, edges3)
def test_add_edge_anticommutes(base, e1, e2):
    # inserting two distinct edges in either order differs by a sign flip
    if e1 == e2 or e1 in base or e2 in base:
        return
    g = gr.Graph(4, sorted(base))
    r1 = gr.add_edge(g, *e1)
    ga, s1 = r1
    gb, s2 = gr.add_edge(ga, *e2)
    r2 = gr.add_edge(g, *e2)
    gc, t1 = r2
    gd, t2 = gr.add_edge(gc, *e1)
    assert gb == gd
    assert s1 * s2 == -t1 * t2


def test_graph_value_semantics():
    assert gr.Graph(3, [(1, 2)]) == gr.Graph(3, [(1, 2)])
    assert hash(gr.Graph(3, [(1, 2)])) == hash(gr.Graph(3, [(1, 2)]))


def test_vertex_guard():
    with pytest.raises(ValueError):
        list(gr.enumerate_graphs(7, gr.FULL))
