"""Matching invariants against brute-force oracles and pinned values."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings

import oracles
from sqfpowers.defaults import DEFAULT_SEED
from sqfpowers.families import all_graphs, random_graphs
from sqfpowers.graphs import (
    Graph,
    builtin_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    path_graph,
    star_graph,
    to_graph6,
)
from sqfpowers.matchings import (
    edge_mask,
    enumerate_matchings,
    enumerate_maximal_matchings,
    greedy_matching_extension,
    has_perfect_matching,
    induced_matching_number,
    is_equimatchable,
    is_gap_free,
    matching_number,
    matching_number_within,
    restricted_matching_number,
    tree_perfect_matching_criterion,
)
from strategies import graphs_st

DISJOINT_PAIR = Graph.from_edges(4, [(1, 2), (3, 4)])


def _invariants(G):
    return (
        matching_number(G),
        induced_matching_number(G),
        restricted_matching_number(G),
    )


def _brute_invariants(G):
    return (
        oracles.brute_matching_number(G),
        oracles.brute_induced_matching_number(G),
        oracles.brute_restricted_matching_number(G),
    )


# ---------------------------------------------------------------------------
# pinned values

def test_known_invariants():
    # (nu, nu1, nu0) triples
    assert _invariants(cycle_graph(7)) == (3, 2, 2)
    assert _invariants(builtin_graph("fig1")) == (4, 2, 3)
    assert _invariants(builtin_graph("fig2")) == (4, 2, 3)
    assert _invariants(path_graph(4)) == (2, 1, 1)
    assert _invariants(path_graph(6)) == (3, 2, 2)
    assert _invariants(star_graph(5)) == (1, 1, 1)
    assert _invariants(complete_graph(4)) == (2, 1, 1)
    assert _invariants(DISJOINT_PAIR) == (2, 2, 2)
    assert _invariants(Graph.from_edges(3, [])) == (0, 0, 0)


def test_matching_number_within():
    G = path_graph(6)
    assert matching_number_within(G, G.vertices) == 3
    assert matching_number_within(G, [1, 2, 3]) == 1
    assert matching_number_within(G, [1, 3, 5]) == 0
    assert matching_number_within(G, []) == 0


# ---------------------------------------------------------------------------
# the blossom kernel against networkx

# (n, edges, nu).  In the two joined and nested entries the labels are chosen
# so that the greedy start leaves one augmenting path, which a search from
# either end finds only by contracting a blossom.  Each graph is also tried
# under random relabellings.
BLOSSOM_GRAPHS = {
    "petersen": (10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7), (3, 8),
                      (4, 9), (5, 10), (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)], 5),
    # 5-cycles 1-3-4-5-6 and 7-8-9-10-11 joined by the edge 3-7, with the
    # exposed ends 13-2-1 and 11-12-14
    "two_5_cycles_joined_by_a_path": (14, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 1), (7, 8), (8, 9),
                                           (9, 10), (10, 11), (11, 7), (3, 7), (1, 2), (2, 13),
                                           (11, 12), (12, 14)], 7),
    # from 19: the blossom at 4 (4-5-6-8-7) must be contracted before 7-12
    # closes the blossom at 1 around it; from 20: the blossom 13-14-15-16-17
    "blossom_inside_a_blossom": (20, [(1, 2), (1, 3), (3, 4), (4, 5), (5, 6), (4, 7), (7, 8), (6, 8),
                                      (1, 9), (9, 10), (10, 11), (11, 12), (7, 12), (9, 13), (13, 14),
                                      (14, 15), (15, 16), (16, 17), (17, 13), (17, 18), (18, 20),
                                      (19, 2)], 10),
    # 5-cycle 1-3-4-6-5 with the pendant path 1-2-7 and the pendant edge 3-8
    "5_cycle_with_pendants": (8, [(1, 2), (1, 3), (1, 5), (3, 4), (4, 6), (5, 6), (2, 7), (3, 8)], 4),
    "7_cycle_with_pendants": (10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1), (1, 8),
                                   (3, 9), (5, 10)], 4),
}


def _nx_matching_number(G):
    H = nx.Graph()
    H.add_nodes_from(G.vertices)
    H.add_edges_from(G.edges)
    return len(nx.max_weight_matching(H, maxcardinality=True))


def _gnp(n, p, rng):
    return Graph.from_edges(
        n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if rng.random() < p]
    )


def _relabel(G, rng):
    image = list(G.vertices)
    rng.shuffle(image)
    return Graph.from_edges(G.n, [(image[u - 1], image[v - 1]) for u, v in G.edges])


def _seeded_gnp_graphs():
    rng = random.Random(20261018)
    graphs = [_gnp(40, 0.2, random.Random(1)), _gnp(64, 0.1, random.Random(2))]
    for n in range(2, 65, 2):
        for p in (1.5 / n, 0.1, 0.3):
            graphs.append(_gnp(n - rng.randrange(2), p, rng))
    return graphs


@pytest.mark.parametrize("name", sorted(BLOSSOM_GRAPHS))
def test_matching_number_on_blossom_graphs(name):
    n, edges, nu = BLOSSOM_GRAPHS[name]
    G = Graph.from_edges(n, edges)
    rng = random.Random(name)
    for H in [G] + [_relabel(G, rng) for _ in range(20)]:
        assert matching_number(H) == nu == _nx_matching_number(H), to_graph6(H)


def test_matching_number_matches_networkx_on_random_graphs():
    # the first graph is G(40, 0.2), on which the former subset recursion ran for minutes
    for G in _seeded_gnp_graphs():
        assert matching_number(G) == _nx_matching_number(G), to_graph6(G)


def test_matching_number_within_matches_induced_subgraph():
    rng = random.Random(7)
    for G in _seeded_gnp_graphs():
        for _ in range(3):
            W = [v for v in G.vertices if rng.random() < 0.6]
            assert matching_number_within(G, W) == matching_number(induced_subgraph(G, W))


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_matchings_counts():
    # C7 has 7 edges, 14 2-matchings, 7 3-matchings
    C7 = cycle_graph(7)
    assert len(list(enumerate_matchings(C7, 1))) == 7
    assert len(list(enumerate_matchings(C7, 2))) == 14
    assert len(list(enumerate_matchings(C7, 3))) == 7
    assert list(enumerate_matchings(C7, 4)) == []
    assert list(enumerate_matchings(C7, 0)) == [()]
    with pytest.raises(ValueError):
        list(enumerate_matchings(C7, -1))


def test_enumerate_matchings_are_matchings_and_sorted():
    G = builtin_graph("fig1")
    seen = list(enumerate_matchings(G, 3))
    assert len(seen) == len(set(seen))
    assert seen == sorted(seen)
    for M in seen:
        assert oracles.is_matching(G, M)


def test_is_matching():
    G = path_graph(4)
    assert oracles.is_matching(G, [(1, 2), (3, 4)])
    assert not oracles.is_matching(G, [(1, 2), (2, 3)])  # shared vertex
    assert not oracles.is_matching(G, [(1, 3)])  # not an edge
    assert oracles.is_matching(G, [])


def test_enumerate_maximal_matchings():
    # P4's maximal matchings: {12,34} and {23}
    G = path_graph(4)
    assert sorted(enumerate_maximal_matchings(G)) == [
        ((1, 2), (3, 4)),
        ((2, 3),),
    ]
    # every maximal matching is maximal: no edge extends it
    for M in enumerate_maximal_matchings(builtin_graph("fig1")):
        used = 0
        for e in M:
            used |= edge_mask(e)
        assert all(
            edge_mask(e) & used
            for e in builtin_graph("fig1").edge_list
        )


# ---------------------------------------------------------------------------
# gaps

def test_is_gap_free():
    assert is_gap_free(complete_graph(5))
    assert is_gap_free(star_graph(4))
    assert is_gap_free(cycle_graph(4))
    assert not is_gap_free(path_graph(5))
    assert is_gap_free(Graph.from_edges(2, [(1, 2)]))


def _gnp(n, p, rng):
    """G(n, p) drawn pair by pair in lexicographic order, as the benchmark draws it."""
    edges = [
        (u, v) for u in range(1, n) for v in range(u + 1, n + 1) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def test_is_gap_free_agrees_with_nu1():
    graphs = [G for n in range(1, 8) for G in all_graphs(n)]
    rng = random.Random(17)
    graphs += [
        _gnp(n, p, rng) for n in range(8, 15) for p in (0.2, 0.4, 0.6, 0.8, 0.95)
    ]
    for G in graphs:
        assert is_gap_free(G) == (induced_matching_number(G) <= 1), to_graph6(G)


def test_is_gap_free_returns_on_a_sparse_graph_at_the_vertex_cap():
    # nu1 did not return on this graph within 100 s; the pair scan decides it
    G = _gnp(64, 0.05, random.Random(3))
    assert len(G.edges) == 93
    assert not is_gap_free(G)


# ---------------------------------------------------------------------------
# oracle agreement

def test_invariants_match_brute_force_exhaustively():
    for n in range(1, 6):
        for G in all_graphs(n):
            assert _invariants(G) == _brute_invariants(G), to_graph6(G)


def test_invariants_match_brute_force_random():
    for G in random_graphs(120, 8, seed=20260816):
        assert _invariants(G) == _brute_invariants(G), to_graph6(G)


@settings(max_examples=80, deadline=None)
@given(graphs_st(max_n=8))
def test_invariants_match_brute_force_property(G):
    assert _invariants(G) == _brute_invariants(G)


def test_matching_chain_exhaustive():
    # nu1 <= nu0 <= nu on every graph with at most 8 vertices
    for n in range(1, 9):
        for G in all_graphs(n):
            nu, nu1, nu0 = (
                matching_number(G),
                induced_matching_number(G),
                restricted_matching_number(G),
            )
            assert nu1 <= nu0 <= nu, to_graph6(G)


def test_matching_chain_random(exhaustive_7):
    # nu1 <= nu0 <= nu on random_graphs(1000, 12) from the default seed: the
    # graphs of the sweep's matching-chain-random report
    reports = exhaustive_7.of(["matching-chain-random"])
    instance = f"random;seed={DEFAULT_SEED};count=1000;max_n=12"
    assert [(r.instance, r.outcome, r.witness) for r in reports] == [
        (instance, "pass", None)
    ]


def test_restricted_matching_number_matches_gap_mate_scan():
    # nu0 from G - N[a] - N[b] against the scan of each edge's gap-mates
    rng = random.Random(20261019)
    graphs = [G for n in range(1, 8) for G in all_graphs(n)] + [
        _gnp(n, p, rng) for n in range(8, 31) for p in (1.5 / n, 0.1, 0.3, 0.6)
    ]
    for G in graphs:
        assert restricted_matching_number(G) == (
            oracles.gap_mates_restricted_matching_number(G)
        ), to_graph6(G)


# ---------------------------------------------------------------------------
# perfect matchings

def test_has_perfect_matching():
    assert has_perfect_matching(path_graph(4))
    assert not has_perfect_matching(path_graph(5))
    assert not has_perfect_matching(star_graph(3))
    assert has_perfect_matching(complete_graph(6))
    assert has_perfect_matching(Graph.from_edges(0, []))


def test_tree_criterion_rejects_nontrees():
    with pytest.raises(ValueError):
        tree_perfect_matching_criterion(cycle_graph(4))
    with pytest.raises(ValueError):
        tree_perfect_matching_criterion(DISJOINT_PAIR)


def test_tree_criterion_matches_brute_force_all_trees():
    from sqfpowers.families import all_trees

    for n in range(1, 13):
        for T in all_trees(n):
            assert tree_perfect_matching_criterion(T) == oracles.brute_has_perfect_matching(T), to_graph6(T)
            assert has_perfect_matching(T) == oracles.brute_has_perfect_matching(T)


# ---------------------------------------------------------------------------
# equimatchable graphs

def test_is_equimatchable_knowns():
    assert is_equimatchable(cycle_graph(7))
    assert is_equimatchable(complete_graph(4))
    assert is_equimatchable(star_graph(5))
    assert not is_equimatchable(path_graph(4))
    assert not is_equimatchable(builtin_graph("fig1"))
    assert is_equimatchable(Graph.from_edges(1, []))


def test_greedy_extension_postcondition():
    rng = random.Random(99)
    cases = [g for n in range(1, 8) for g in all_graphs(n) if is_equimatchable(g)]
    for G in cases:
        nu = matching_number(G)
        for _ in range(3):
            V = [v for v in G.vertices if rng.random() < 0.5]
            base = matching_number_within(G, V)
            picked = greedy_matching_extension(G, V)
            assert len(picked) == nu - base
            covered = set(V)
            size = base
            for e in picked:
                covered.update(e)
                size += 1
                assert matching_number_within(G, covered) == size
        assert matching_number_within(G, G.vertices) == nu


def test_greedy_extension_raises_nu_by_one_per_edge_on_larger_graphs():
    rng = random.Random(3)
    k35 = Graph.from_edges(8, [(u, v) for u in range(1, 4) for v in range(4, 9)])
    c7_k5 = disjoint_union(cycle_graph(7), complete_graph(5))
    for G in (complete_graph(9), c7_k5, k35, _relabel(k35, rng)):
        assert is_equimatchable(G)
        nu = matching_number(G)
        for _ in range(5):
            covered = {v for v in G.vertices if rng.random() < 0.4}
            size = matching_number_within(G, covered)
            for e in greedy_matching_extension(G, covered):
                covered.update(e)
                size += 1
                assert matching_number_within(G, covered) == size
            assert size == nu


def test_greedy_extension_rejects_non_equimatchable():
    with pytest.raises(ValueError):
        greedy_matching_extension(path_graph(4), [])
