"""Instance families: exhaustive enumeration, canonical forms, random draws."""

import itertools
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfpowers.defaults import FAMILY_HELP
from sqfpowers.families import (
    DEFAULT_SEED,
    TREE_ENUM_CAP,
    SIZED_FAMILIES,
    all_forests,
    all_graphs,
    all_trees,
    disjoint_edges_graph,
    random_graphs,
    random_squarefree_ideals,
    resolve_family,
    tree_canonical_form,
    tree_centers,
)
from sqfpowers.graphs import (
    Graph,
    builtin_graph,
    cycle_graph,
    induced_subgraph,
    is_forest,
    is_tree,
    isolated_vertices,
    path_graph,
    star_graph,
    to_graph6,
)
from oracles import _perm_powers, canonical_code, format_edge_list, generated_graphs
from strategies import graphs_st

# counts of non-isomorphic graphs, trees, forests (no isolated vertices)
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551,
}
FOREST_COUNTS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 10, 7: 17, 8: 39, 9: 77}


def test_graph_counts():
    for n, count in GRAPH_COUNTS.items():
        assert len(all_graphs(n)) == count, n
    assert len(resolve_family("exhaustive-5")) == sum(GRAPH_COUNTS[n] for n in range(1, 6))


def _edge_code(G: Graph) -> int:
    """Bit k set for the k-th vertex pair of itertools.combinations order."""
    slots = itertools.combinations(range(G.n), 2)
    index = {s: k for k, s in enumerate(slots)}
    return sum(1 << index[(u - 1, v - 1)] for u, v in G.edge_list)


def test_graph_table_matches_generator():
    for n in range(1, 8):
        assert all_graphs(n) == generated_graphs(n), n


def test_graph_table_is_complete_at_eight():
    # Distinct least codes are distinct isomorphism classes, and there are
    # 12346 classes (A000088), so the table lists every graph on 8 vertices.
    codes = [_edge_code(G) for G in all_graphs(8)]
    assert len(codes) == GRAPH_COUNTS[8]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    powers = _perm_powers(8)  # (8!, 28): 2^(image of each pair)
    bits = np.arange(28)[:, None]
    for start in range(0, len(codes), 128):  # 128 columns: a 41 MB product
        chunk = np.array(codes[start : start + 128])
        indicators = ((chunk[None, :] >> bits) & 1).astype(np.float64)
        least = (powers @ indicators).min(axis=0)
        assert np.array_equal(least, chunk), start


def test_graph_table_is_package_data():
    text = resources.files("sqfpowers").joinpath("data/graphs.txt").read_text()
    counts: dict[int, int] = {}
    n = 0
    for line in text.splitlines():
        if line.startswith("n "):
            n = int(line[2:])
            counts[n] = 0
        elif not line.startswith("#"):
            counts[n] += 1
    assert counts == GRAPH_COUNTS


def test_graph_enumeration_validates():
    with pytest.raises(ValueError):
        all_graphs(0)
    with pytest.raises(ValueError):
        all_graphs(9)
    with pytest.raises(ValueError):
        canonical_code(Graph.from_edges(9, []))


@pytest.mark.parametrize("n", [1, 0, -3])
def test_forest_enumeration_rejects_sizes_below_two(n):
    with pytest.raises(ValueError, match=">= 2"):
        all_forests(n)


def test_tree_and_forest_enumeration_is_capped():
    assert TREE_ENUM_CAP == max(TREE_COUNTS)
    for enumerate_ in (all_trees, all_forests):
        with pytest.raises(ValueError, match="capped at n = 12"):
            enumerate_(TREE_ENUM_CAP + 1)


def test_tree_counts():
    for n, count in TREE_COUNTS.items():
        assert len(all_trees(n)) == count, n
    assert all(is_tree(T) for n in range(1, 10) for T in all_trees(n))
    assert len(resolve_family("trees-8")) == sum(TREE_COUNTS[n] for n in range(1, 9))


def test_forest_counts():
    for n, count in FOREST_COUNTS.items():
        assert len(all_forests(n)) == count, n
    for n in range(2, 10):
        for F in all_forests(n):
            assert is_forest(F) and not isolated_vertices(F), to_graph6(F)
    assert len(resolve_family("forests-6")) == sum(FOREST_COUNTS[n] for n in range(2, 7))


def test_enumerations_have_no_isomorphic_duplicates():
    for n in range(1, 7):
        codes = [canonical_code(G) for G in all_graphs(n)]
        assert len(codes) == len(set(codes))
    for n in range(1, 10):
        forms = [tree_canonical_form(T) for T in all_trees(n)]
        assert len(forms) == len(set(forms))


@settings(max_examples=60, deadline=None)
@given(graphs_st(min_n=1, max_n=6), st.randoms(use_true_random=False))
def test_canonical_code_is_permutation_invariant(G, rng):
    perm = list(range(1, G.n + 1))
    rng.shuffle(perm)
    relabeled = Graph.from_edges(
        G.n, [(perm[u - 1], perm[v - 1]) for u, v in G.edge_list]
    )
    assert canonical_code(relabeled) == canonical_code(G)


def test_tree_centers():
    assert tree_centers(path_graph(5)) == [3]
    assert tree_centers(path_graph(6)) == [3, 4]
    assert tree_centers(star_graph(5)) == [1]
    assert tree_centers(Graph.from_edges(1, [])) == [1]


def test_tree_canonical_form_invariance():
    rng = random.Random(8)
    for n in range(2, 10):
        for T in all_trees(n):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabeled = Graph.from_edges(
                n, [(perm[u - 1], perm[v - 1]) for u, v in T.edge_list]
            )
            assert tree_canonical_form(relabeled) == tree_canonical_form(T)
    with pytest.raises(ValueError):
        tree_canonical_form(cycle_graph(4))


def test_disjoint_edges_graph():
    G = disjoint_edges_graph(3)
    assert G.n == 6
    assert G.edge_list == ((1, 2), (3, 4), (5, 6))
    with pytest.raises(ValueError):
        disjoint_edges_graph(0)


# ---------------------------------------------------------------------------
# random families

def test_random_graphs_deterministic():
    a = random_graphs(25, 9, seed=123)
    b = random_graphs(25, 9, seed=123)
    c = random_graphs(25, 9, seed=124)
    assert a == b
    assert a != c
    assert len(a) == 25
    assert all(2 <= G.n <= 9 for G in a)


def test_random_ideals_deterministic():
    a = random_squarefree_ideals(30, max_n=6, max_gens=5, seed=9)
    b = random_squarefree_ideals(30, max_n=6, max_gens=5, seed=9)
    assert a == b
    assert all(I.n <= 6 and len(I.gens) <= 5 for I in a)


# ---------------------------------------------------------------------------
# family specs

def test_resolve_family_forms(tmp_path):
    assert len(resolve_family("exhaustive-4")) == sum(
        GRAPH_COUNTS[n] for n in range(1, 5)
    )
    assert len(resolve_family("trees-5")) == 1 + 1 + 1 + 2 + 3
    assert len(resolve_family("forests-4")) == 1 + 1 + 3
    assert resolve_family("random-6-10", seed=5) == random_graphs(10, 6, seed=5)
    builtins = resolve_family("builtin")
    assert builtin_graph("c7") in builtins and len(builtins) == 7

    g6 = tmp_path / "two.g6"
    g6.write_text(to_graph6(cycle_graph(5)) + "\n" + to_graph6(path_graph(3)) + "\n")
    assert resolve_family(f"graph6:{g6}") == [cycle_graph(5), path_graph(3)]
    assert resolve_family(str(g6)) == [cycle_graph(5), path_graph(3)]

    edges = tmp_path / "one.edges"
    edges.write_text(format_edge_list(builtin_graph("fig1")))
    assert resolve_family(str(edges)) == [builtin_graph("fig1")]

    with pytest.raises(ValueError):
        resolve_family("exhaustive-abc")
    with pytest.raises(ValueError):
        resolve_family("no-such-family")
    with pytest.raises(ValueError):
        resolve_family("exhaustive-9")


@pytest.mark.parametrize(
    "spec", ["exhaustive-0", "trees-0", "forests-1", "random-3-0", "random-1-5"]
)
def test_resolve_family_rejects_empty_families(spec):
    with pytest.raises(ValueError, match="is empty"):
        resolve_family(spec)


@pytest.mark.parametrize(
    "spec, cap",
    [("trees-13", 12), ("forests-13", 12), ("exhaustive-9", 8), ("random-65-3", 64)],
)
def test_resolve_family_rejects_an_oversize_family_before_listing(spec, cap):
    listers = (all_graphs, all_trees, all_forests)
    for lister in listers:
        lister.cache_clear()
    with pytest.raises(ValueError, match=f"capped at n = {cap}"):
        resolve_family(spec)
    assert [lister.cache_info().misses for lister in listers] == [0, 0, 0]


def test_family_help_names_every_sized_family():
    # the parser prints FAMILY_HELP without importing families
    for name in SIZED_FAMILIES:
        assert f"{name}-N" in FAMILY_HELP, name
