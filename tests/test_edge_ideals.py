"""Edge ideals, squarefree powers, colon constructions, forest templates."""

import pytest

from sqfpowers import edge_ideals
from sqfpowers.betti import regularity
from sqfpowers.edge_ideals import (
    classify_forest,
    colon_square_by_edge,
    edge_ideal,
    is_generated_in_degree,
    l_degree_hypothesis,
    l_ideal,
    l_ideal_shape,
    lambda_number,
    sqfree_power_via_matchings,
)
from sqfpowers.families import all_forests, all_graphs, disjoint_edges_graph
from sqfpowers.graphs import (
    Graph,
    builtin_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
    to_graph6,
)
from sqfpowers.ideals import (
    MonomialIdeal,
    colon_ideal,
    minimalize,
    monomial,
    sqfree_power,
)
from sqfpowers.matchings import edge_mask, matching_number, restricted_matching_number


# ---------------------------------------------------------------------------
# edge ideals and powers

def test_edge_ideal_generators():
    G = path_graph(3)
    I = edge_ideal(G)
    assert I.gens == (monomial([1, 2]), monomial([2, 3]))
    assert edge_mask((2, 1)) == monomial([1, 2])
    assert edge_ideal(Graph.from_edges(3, [])).is_zero


def test_power_routes_agree_exhaustively():
    for n in range(1, 8):
        for G in all_graphs(n):
            I = edge_ideal(G)
            nu = matching_number(G)
            for k in range(0, nu + 2):
                assert sqfree_power_via_matchings(G, k) == sqfree_power(I, k), (
                    to_graph6(G),
                    k,
                )
            assert sqfree_power_via_matchings(G, nu + 1).is_zero


def test_matching_supports_are_already_minimal(monkeypatch):
    # The power is built from the distinct supports without minimalize: they
    # all have degree 2k, so they already form an antichain.
    monkeypatch.setattr(edge_ideals, "minimalize", None)
    graphs = [G for n in range(2, 7) for G in all_graphs(n)] + [path_graph(14)]
    for G in graphs:
        for k in range(1, matching_number(G) + 1):
            P = sqfree_power_via_matchings(G, k)
            assert P == MonomialIdeal(G.n, P.gens), (to_graph6(G), k)
            assert P == minimalize(G.n, P.gens) == sqfree_power(edge_ideal(G), k)


def test_power_validation():
    with pytest.raises(ValueError):
        sqfree_power_via_matchings(path_graph(3), -1)
    assert sqfree_power_via_matchings(path_graph(3), 0).is_unit


# ---------------------------------------------------------------------------
# the colon graph of a squared power

def test_colon_square_by_edge_pinned():
    H = colon_square_by_edge(cycle_graph(7), (1, 2))
    assert H.n == 7
    assert H.edge_list == ((3, 4), (3, 7), (4, 5), (5, 6), (6, 7))
    with pytest.raises(ValueError):
        colon_square_by_edge(cycle_graph(7), (1, 3))


def test_colon_square_formula_exhaustively():
    # I(H) = I(G)^[2] : x_a x_b for every edge of every graph with n <= 6
    for n in range(2, 7):
        for G in all_graphs(n):
            if not G.edges:
                continue
            I2 = sqfree_power_via_matchings(G, 2)
            for e in G.edge_list:
                H = colon_square_by_edge(G, e)
                lhs = edge_ideal(H)
                rhs = colon_ideal(I2, MonomialIdeal(G.n, (edge_mask(e),)))
                assert lhs == rhs, (to_graph6(G), e)


def test_colon_regularity_bounded_by_matching_number():
    for G in (cycle_graph(7), builtin_graph("fig1"), path_graph(6)):
        nu = matching_number(G)
        I2 = sqfree_power_via_matchings(G, 2)
        for e in G.edge_list:
            Q = colon_ideal(I2, MonomialIdeal(G.n, (edge_mask(e),)))
            assert regularity(Q) <= nu, (to_graph6(G), e)


# ---------------------------------------------------------------------------
# the intersection ideal attached to an edge

def test_l_ideal_validation():
    G = path_graph(4)
    with pytest.raises(ValueError):
        l_ideal(G, (1, 3), 1)
    with pytest.raises(ValueError):
        l_ideal(G, (1, 2), 0)
    with pytest.raises(ValueError):
        l_ideal_shape(G, (1, 3), 1)
    with pytest.raises(ValueError):
        l_degree_hypothesis(G, (1, 3), 1)


def test_l_ideal_shape_under_hypothesis():
    hits = 0
    for n in range(2, 7):
        for G in all_graphs(n):
            if not G.edges:
                continue
            nu = matching_number(G)
            for e in G.edge_list:
                for k in range(1, nu + 1):
                    if not l_degree_hypothesis(G, e, k):
                        continue
                    hits += 1
                    L = l_ideal(G, e, k)
                    assert L == l_ideal_shape(G, e, k), (to_graph6(G), e, k)
                    assert is_generated_in_degree(L, 2 * k + 1)
    assert hits > 100  # the hypothesis holds often; the test is not vacuous


def test_is_generated_in_degree():
    I = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
    assert is_generated_in_degree(I, 2)
    assert not is_generated_in_degree(I, 3)
    assert is_generated_in_degree(MonomialIdeal.zero(4), 5)


# ---------------------------------------------------------------------------
# the linear-relatedness threshold

def test_lambda_knowns():
    assert lambda_number(cycle_graph(7)) == 2
    assert lambda_number(builtin_graph("fig1")) == 4
    assert lambda_number(builtin_graph("fig2")) == 4
    assert lambda_number(path_graph(4)) == 1
    assert lambda_number(star_graph(5)) == 1
    assert lambda_number(complete_graph(4)) == 1
    with pytest.raises(ValueError):
        lambda_number(Graph.from_edges(3, []))


def test_lambda_exceeds_restricted_matching_number_on_examples():
    for name in ("fig1", "fig2"):
        G = builtin_graph(name)
        assert restricted_matching_number(G) == 3
        assert lambda_number(G) == 4 > 3


# ---------------------------------------------------------------------------
# forest templates

def test_classify_rejects_nonforests():
    with pytest.raises(ValueError):
        classify_forest(cycle_graph(4))


def test_classify_paths():
    # P2 fits no template: the single known exception
    assert not classify_forest(path_graph(2)).matched
    # P3 is a bare G1 spine
    got = classify_forest(path_graph(3))
    assert got.kinds() == ("G1",)
    assert got.matches[0].spine == (1, 2, 3)
    assert got.matches[0].bouquets == ((), (), ())
    # P4 fits G1 two ways (leaf on either end of the spine), never G2
    got = classify_forest(path_graph(4))
    assert got.kinds() == ("G1",)
    assert len(got.matches) == 2
    # P6 fits G2 with the central spine only
    got = classify_forest(path_graph(6))
    assert got.kinds() == ("G2",)
    assert [m.spine for m in got.matches] == [(2, 3, 4, 5)]
    assert got.matches[0].bouquets == ((1,), (6,))
    # P7 fits nothing
    assert not classify_forest(path_graph(7)).matched


def test_classify_stars_and_brooms():
    got = classify_forest(star_graph(4))
    assert got.kinds() == ("G1",)
    # H'' = 5-path with a leaf on the middle: G1 around the center
    got = classify_forest(builtin_graph("h-double-prime"))
    assert got.kinds() == ("G1",)
    assert got.matches[0].spine == (2, 3, 4)
    assert got.matches[0].bouquets == ((1,), (6,), (5,))
    # double broom: 1-2-3-4 path, extra leaves 5,6 on 1 and 7 on 4
    broom = Graph.from_edges(
        7, [(1, 2), (2, 3), (3, 4), (1, 5), (1, 6), (4, 7)]
    )
    got = classify_forest(broom)
    assert got.kinds() == ("G2",)
    assert got.matches[0].spine == (1, 2, 3, 4)
    assert got.matches[0].bouquets == ((5, 6), (7,))


def test_classify_star_pairs():
    # two single edges: either endpoint of each may serve as the center
    got = classify_forest(disjoint_edges_graph(2))
    assert got.kinds() == ("G3",)
    assert len(got.matches) == 4
    # a pair of genuine stars has a unique center each
    H = disjoint_union(star_graph(2), star_graph(3))
    got = classify_forest(H)
    assert got.kinds() == ("G3",)
    assert len(got.matches) == 1
    (m,) = got.matches
    assert m.spine == (1, 4)
    assert m.bouquets == ((2, 3), (5, 6, 7))
    # an isolated vertex spoils the two-star shape
    K2K1 = Graph.from_edges(3, [(1, 2)])
    assert not classify_forest(K2K1).matched


def test_realize_roundtrip_on_all_matches():
    for n in range(2, 9):
        for F in all_forests(n):
            for m in classify_forest(F).matches:
                assert m.realize(F.n) == F, (to_graph6(F), m)


def test_matched_equals_small_restricted_matching_number():
    # across forests without isolated vertices, template membership is
    # exactly nu0 <= 2 -- except the single edge, which fits no template
    for n in range(2, 11):
        for F in all_forests(n):
            if F.n == 2:
                continue
            assert classify_forest(F).matched == (
                restricted_matching_number(F) <= 2
            ), to_graph6(F)


def test_realize_unknown_kind_raises():
    from sqfpowers.edge_ideals import TemplateMatch

    with pytest.raises(ValueError):
        TemplateMatch("G9", (1,), ((),)).realize(3)
