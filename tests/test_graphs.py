"""Graph type, surgery operations, predicates, and text formats."""

import pickle
import random

import pytest
from hypothesis import given, settings

import oracles
from sqfpowers.families import all_graphs
from sqfpowers.graphs import (
    BUILTIN_GRAPH_NAMES,
    Graph,
    builtin_graph,
    complement,
    connected_components,
    cycle_graph,
    complete_graph,
    disjoint_union,
    edges_within,
    induced_subgraph,
    is_chordal,
    is_connected,
    is_forest,
    is_tree,
    isolated_vertices,
    parse_edge_list,
    parse_graph6,
    parse_graphs,
    path_graph,
    remove_edge,
    remove_vertices,
    star_graph,
    to_graph6,
    vertices_to_mask,
)
from sqfpowers.ideals import monomial_vars
from strategies import graphs_st


# ---------------------------------------------------------------------------
# construction and validation

def test_from_edges_canonicalizes():
    G = Graph.from_edges(3, [(3, 1), (2, 3)])
    assert G.edge_list == ((1, 3), (2, 3))
    assert G.has_edge(1, 3) and G.has_edge(3, 1)
    assert not G.has_edge(1, 2)


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(2, 2)])


def test_noncanonical_edges_rejected():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))


def test_vertex_cap():
    with pytest.raises(ValueError):
        Graph.from_edges(65, [])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])
    Graph.from_edges(64, [(1, 64)])  # at the cap is fine


def test_graph_value_semantics():
    G = Graph.from_edges(3, [(1, 2), (2, 3)])
    same = Graph(3, frozenset({(2, 3), (1, 2)}))
    assert G == same and hash(G) == hash(same)
    assert G != Graph.from_edges(4, [(1, 2), (2, 3)])
    assert G != Graph.from_edges(3, [(1, 2)])
    assert G != (3, G.edges)
    assert len({G, same, Graph.from_edges(3, [])}) == 2
    assert G.adjacency == (0, 0b10, 0b101, 0b10)
    for name in ("n", "edges", "edge_list"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(G, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(G, name)
    assert G.n == 3 and G.edge_list == ((1, 2), (2, 3))
    assert repr(same) == f"Graph(n=3, edges={same.edges!r})"
    back = pickle.loads(pickle.dumps(same))
    assert back == G
    assert back.edge_list == G.edge_list and back.adjacency == G.adjacency
    with pytest.raises(AttributeError):
        back.n = 4
    for args, message in (
        ((65, frozenset()), "vertex count 65 outside 0..64"),
        ((-1, frozenset()), "vertex count -1 outside 0..64"),
        ((3, frozenset({(2, 1)})), r"edge \(2, 1\) is not canonical for n=3"),
        ((3, frozenset({(1, 4)})), r"edge \(1, 4\) is not canonical for n=3"),
    ):
        with pytest.raises(ValueError, match=message):
            Graph(*args)


def test_accessors():
    G = Graph.from_edges(4, [(1, 2), (2, 3)])
    assert list(G.vertices) == [1, 2, 3, 4]
    assert G.vertex_mask == 0b1111
    assert G.degree(2) == 2
    assert G.neighbors(2) == {1, 3}
    assert G.degree(4) == 0
    with pytest.raises(ValueError):
        G.degree(5)
    with pytest.raises(ValueError):
        G.neighbors(0)


def test_mask_helpers_roundtrip():
    assert vertices_to_mask([3, 1]) == 0b101
    assert monomial_vars(0b101) == (1, 3)
    for mask in range(64):
        assert vertices_to_mask(monomial_vars(mask)) == mask


# ---------------------------------------------------------------------------
# surgery

def test_induced_subgraph_full_vertex_set_is_identity():
    G = Graph.from_edges(4, [(1, 2), (3, 4)])
    assert induced_subgraph(G, G.vertices) == G


def test_induced_subgraph_relabels_order_preservingly():
    G = path_graph(5)
    H = induced_subgraph(G, [2, 4, 5])
    assert H.n == 3
    # 2, 4, 5 become 1, 2, 3: only the edge 4-5 survives, relabeled to 2-3
    assert H.edge_list == ((2, 3),)
    assert induced_subgraph(G, [5, 2, 4]) == H  # the order of W is not read


def test_induced_subgraph_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [1, 7])


def test_remove_vertices():
    G = cycle_graph(5)
    assert remove_vertices(G, []) == G
    H = remove_vertices(G, [1])
    assert H.n == 4 and is_tree(H)  # a 4-path
    assert remove_vertices(G, G.vertices).n == 0


def test_remove_edge():
    G = cycle_graph(4)
    H = remove_edge(G, (4, 1))
    assert H.n == 4 and len(H.edges) == 3 and is_tree(H)
    with pytest.raises(ValueError):
        remove_edge(H, (1, 4))


def test_edges_within_keeps_labels():
    G = cycle_graph(4)
    H = edges_within(G, [1, 2, 3])
    assert H.n == 4
    assert H.edge_list == ((1, 2), (2, 3))


def test_complement_small():
    assert complement(complete_graph(4)).edges == frozenset()
    assert complement(Graph.from_edges(3, [])) == complete_graph(3)
    # C5 is self-complementary
    C5 = cycle_graph(5)
    comp = complement(C5)
    assert len(comp.edges) == 5
    assert all(comp.degree(v) == 2 for v in comp.vertices)


def test_disjoint_union():
    G = disjoint_union(path_graph(2), path_graph(3))
    assert G.n == 5
    assert G.edge_list == ((1, 2), (3, 4), (4, 5))
    with pytest.raises(ValueError):
        disjoint_union(Graph.from_edges(40, []), Graph.from_edges(40, []))


def test_isolated_vertices():
    G = Graph.from_edges(5, [(1, 2)])
    assert isolated_vertices(G) == {3, 4, 5}
    assert isolated_vertices(complete_graph(3)) == frozenset()


# ---------------------------------------------------------------------------
# predicates

def test_connected_components():
    G = Graph.from_edges(6, [(1, 2), (2, 3), (5, 6)])
    comps = connected_components(G)
    assert comps == [frozenset({1, 2, 3}), frozenset({4}), frozenset({5, 6})]
    assert not is_connected(G)
    assert is_connected(path_graph(4))
    assert is_connected(Graph.from_edges(0, []))


def test_forest_and_tree_predicates():
    assert is_tree(path_graph(5))
    assert is_forest(disjoint_union(path_graph(2), path_graph(3)))
    assert not is_tree(disjoint_union(path_graph(2), path_graph(3)))
    assert not is_forest(cycle_graph(3))
    assert not is_tree(Graph.from_edges(0, []))
    assert is_forest(Graph.from_edges(0, []))
    assert is_tree(Graph.from_edges(1, []))


def test_chordal_knowns():
    assert is_chordal(complete_graph(5))
    assert is_chordal(path_graph(6))
    assert is_chordal(star_graph(4))
    assert is_chordal(cycle_graph(3))
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(7))
    # two triangles sharing nothing, plus a chorded 4-cycle
    assert is_chordal(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]))


def test_chordal_matches_brute_force_exhaustively():
    # every graph on at most 8 vertices, up to isomorphism
    for n in range(1, 9):
        for G in all_graphs(n):
            assert is_chordal(G) == (not oracles.brute_has_chordless_cycle(G)), (
                f"chordality mismatch on {to_graph6(G)}"
            )


def test_constructors():
    assert path_graph(1).n == 1
    assert len(cycle_graph(3).edges) == 3
    assert star_graph(1).edge_list == ((1, 2),)
    assert len(complete_graph(5).edges) == 10
    for bad in (path_graph, complete_graph):
        with pytest.raises(ValueError):
            bad(0)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        star_graph(0)


# ---------------------------------------------------------------------------
# builtins

def test_builtin_names_resolve():
    assert BUILTIN_GRAPH_NAMES == (
        "fig1", "fig2", "h", "h-prime", "h-double-prime", "h-tilde", "c7",
    )
    for name in BUILTIN_GRAPH_NAMES:
        G = builtin_graph(name)
        assert G.n >= 1
    with pytest.raises(ValueError) as info:
        builtin_graph("petersen")
    assert str(info.value) == (
        "unknown builtin graph 'petersen'; choose from ['c7', 'fig1', 'fig2', "
        "'h', 'h-double-prime', 'h-prime', 'h-tilde']"
    )


def test_builtin_shapes():
    fig1, fig2, hpp = (builtin_graph(name) for name in ("fig1", "fig2", "h-double-prime"))
    assert fig1.n == 9 and len(fig1.edges) == 8 and is_tree(fig1)
    assert sorted(fig1.degree(v) for v in fig1.vertices) == [
        1, 1, 1, 1, 2, 2, 2, 3, 3,
    ]
    assert fig2.n == 8 and len(fig2.edges) == 8
    assert [len(c) for c in connected_components(fig2)] == [4, 4]
    assert all(fig2.degree(v) == 2 for v in fig2.vertices)
    assert builtin_graph("h") == path_graph(4)
    assert builtin_graph("h-prime") == path_graph(5)
    assert builtin_graph("h-tilde") == path_graph(6)
    assert hpp.n == 6 and is_tree(hpp)
    assert sorted(hpp.degree(v) for v in hpp.vertices) == [1, 1, 1, 2, 2, 3]
    assert builtin_graph("c7") == cycle_graph(7)


# ---------------------------------------------------------------------------
# edge-list text format

def test_parse_edge_list_with_header_and_comments():
    text = "# a comment\nn 5\n1 2\n2 3  # trailing\n\n"
    G = parse_edge_list(text)
    assert G.n == 5 and G.edge_list == ((1, 2), (2, 3))


def test_parse_edge_list_infers_n():
    G = parse_edge_list("1 2\n2 7\n")
    assert G.n == 7


def test_parse_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("n 3\nn 4\n1 2\n")  # duplicate header
    with pytest.raises(ValueError):
        parse_edge_list("n 3 9\n")  # malformed header
    with pytest.raises(ValueError):
        parse_edge_list("1 2 3\n")  # not a pair
    with pytest.raises(ValueError):
        parse_edge_list("0 2\n")  # nonpositive vertex
    with pytest.raises(ValueError):
        parse_edge_list("n 3\n2 5\n")  # exceeds declared n
    with pytest.raises(ValueError):
        parse_edge_list("1 1\n")  # loop


def test_format_parse_edge_list_roundtrip():
    G = builtin_graph("fig1")
    assert parse_edge_list(oracles.format_edge_list(G)) == G
    assert oracles.format_edge_list(G).startswith("n 9\n")


# ---------------------------------------------------------------------------
# graph6 format

def test_graph6_hand_checked_encodings():
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(complete_graph(3)) == "Bw"
    assert to_graph6(Graph.from_edges(1, [])) == "@"
    assert to_graph6(Graph.from_edges(2, [(1, 2)])) == "A_"
    assert to_graph6(Graph.from_edges(2, [])) == "A?"
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6(">>graph6<<A_") == Graph.from_edges(2, [(1, 2)])


def test_graph6_long_form():
    for n in (63, 64):
        G = Graph.from_edges(n, [(1, n), (2, 3)])
        enc = to_graph6(G)
        assert enc.startswith("~??") or enc.startswith("~?@")
        assert parse_graph6(enc) == G


def test_graph6_errors():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("C")  # truncated body for n=4
    with pytest.raises(ValueError):
        parse_graph6("C~\x19")  # character below the graph6 range
    with pytest.raises(ValueError):
        parse_graph6("~?B?" + "?" * 1000)  # n = 128 exceeds the cap
    with pytest.raises(ValueError):
        parse_graph6("A_zzzz")  # characters after the body of the one-edge graph
    with pytest.raises(ValueError):
        parse_graph6("A`")  # a padding bit is set


def test_graph6_roundtrip_every_order():
    rng = random.Random(6)
    for n in range(65):  # n >= 63 takes the 4-byte header
        pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
        G = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5])
        assert parse_graph6(to_graph6(G)) == G, n


@settings(max_examples=150, deadline=None)
@given(graphs_st(max_n=12))
def test_graph6_roundtrip(G):
    assert parse_graph6(to_graph6(G)) == G


def test_parse_graphs_dispatch():
    lines = "\n".join(to_graph6(G) for G in (complete_graph(4), path_graph(3)))
    parsed = parse_graphs(lines)
    assert parsed == [complete_graph(4), path_graph(3)]
    assert parse_graphs("n 3\n1 2\n") == [parse_edge_list("n 3\n1 2\n")]
    # digit-only lines are treated as an edge list even with no header
    assert parse_graphs("1 2\n") == [Graph.from_edges(2, [(1, 2)])]
    assert parse_graphs("n 0\n") == [Graph.from_edges(0, [])]


@pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n", "  # indented\n\n"])
def test_parse_graphs_rejects_a_text_without_a_graph(text):
    with pytest.raises(ValueError):
        parse_graphs(text)


# ---------------------------------------------------------------------------
# property tests

@settings(max_examples=100, deadline=None)
@given(graphs_st(max_n=9))
def test_complement_involution(G):
    assert complement(complement(G)) == G


@settings(max_examples=100, deadline=None)
@given(graphs_st(max_n=9))
def test_induced_on_everything_is_identity(G):
    assert induced_subgraph(G, G.vertices) == G
    assert remove_vertices(G, []) == G


@settings(max_examples=100, deadline=None)
@given(graphs_st(min_n=1, max_n=9))
def test_components_partition_vertices(G):
    comps = connected_components(G)
    seen = sorted(v for c in comps for v in c)
    assert seen == list(G.vertices)
