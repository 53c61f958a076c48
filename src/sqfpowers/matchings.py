"""Matching invariants of simple graphs.

A k-matching is a set of k pairwise disjoint edges.  Three numbers are
computed throughout: the matching number nu (largest k with a k-matching),
the induced matching number nu1 (largest matching whose edges pairwise form
gaps), and the restricted matching number nu0 (largest matching containing
one edge that forms a gap with every other edge of the matching).  Two edges
form a gap when no edge of the graph joins them, i.e. they induce a
2-matching.  Always nu1 <= nu0 <= nu.

nu and nu0 are polynomial.  nu1 and the maximal matchings are exhaustive
searches, which read the request's time budget (see ``memo``) once per
recursive step; without a budget they are unbounded.  The k-matchings are
walked only in ``edge_ideals``, as the supports that generate I(G)^[k].
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import memo
from .graphs import (
    Edge,
    Graph,
    connected_components,
    is_tree,
    remove_vertices,
    vertices_to_mask,
)

Matching = tuple[Edge, ...]


def edge_mask(e: Edge) -> int:
    return (1 << (e[0] - 1)) | (1 << (e[1] - 1))


def _nu(adj: tuple[int, ...], avail: int) -> int:
    """Matching number of the subgraph on the vertices in `avail`.

    Edmonds' blossom algorithm, O(n^3): a greedy matching is grown by one
    augmenting path per exposed vertex that has one.  Each search builds an
    alternating tree from the exposed root; an edge joining two outer
    vertices closes an odd cycle (a blossom), which is contracted by giving
    its vertices a common base.  A vertex with no augmenting path never gets
    one later, so every vertex is searched at most once.
    """
    mate = [0] * (avail.bit_length() + 1)  # 0: exposed (vertices are 1-based)
    size = 0
    rest = avail
    while rest:  # greedy start; a lower exposed neighbour would have taken v
        low = rest & -rest
        rest ^= low
        v = low.bit_length()
        nb = adj[v] & rest
        if nb:
            w = nb & -nb
            rest ^= w
            u = w.bit_length()
            mate[v], mate[u] = u, v
            size += 1
    most = avail.bit_count() // 2
    rest = avail
    while rest and size < most:
        low = rest & -rest
        rest ^= low
        root = low.bit_length()
        if not mate[root] and _augment(adj, avail, mate, root):
            size += 1
    return size


def _augment(adj: tuple[int, ...], avail: int, mate: list[int], root: int) -> bool:
    """Search for an augmenting path from the exposed `root`; flip it if found."""
    parent = [0] * len(mate)  # tree parent of each inner vertex
    base = list(range(len(mate)))  # base of the blossom holding each vertex
    outer = 1 << (root - 1)
    queue = [root]
    for v in queue:
        nb = adj[v] & avail
        while nb:
            low = nb & -nb
            nb ^= low
            w = low.bit_length()
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] and parent[mate[w]]):
                # w is outer too: contract the blossom the edge vw closes
                b = _common_base(base, mate, parent, v, w)
                blossom = _mark_path(base, mate, parent, v, b, w)
                blossom |= _mark_path(base, mate, parent, w, b, v)
                rest = avail
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    u = bit.bit_length()
                    if blossom >> (base[u] - 1) & 1:
                        base[u] = b
                        if not outer & bit:
                            outer |= bit
                            queue.append(u)
            elif not parent[w]:
                parent[w] = v
                if not mate[w]:
                    while w:  # flip the path root ... v w
                        v = parent[w]
                        nxt = mate[v]
                        mate[v], mate[w] = w, v
                        w = nxt
                    return True
                u = mate[w]
                outer |= 1 << (u - 1)
                queue.append(u)
    return False


def _common_base(base: list[int], mate: list[int], parent: list[int], a: int, b: int) -> int:
    """Base of the nearest common ancestor of two outer vertices."""
    seen = 0
    while True:
        a = base[a]
        seen |= 1 << (a - 1)
        if not mate[a]:
            break
        a = parent[mate[a]]
    while True:
        b = base[b]
        if seen >> (b - 1) & 1:
            return b
        b = parent[mate[b]]


def _mark_path(base: list[int], mate: list[int], parent: list[int], v: int, b: int, child: int) -> int:
    """Reroute the tree path from v down to the base b through the blossom.

    Returns the mask of blossom bases met on the way.
    """
    blossom = 0
    while base[v] != b:
        blossom |= 1 << (base[v] - 1) | 1 << (base[mate[v]] - 1)
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]
    return blossom


def matching_number(G: Graph) -> int:
    """Within a request (see ``memo``), computed once per edge set."""
    return memo.get(G.edges, lambda: _nu(G.adjacency, G.vertex_mask))


def matching_number_within(G: Graph, vertices: Iterable[int]) -> int:
    """Matching number of the subgraph induced on the given vertices."""
    return _nu(G.adjacency, vertices_to_mask(vertices))


def _closed_edge_mask(G: Graph, e: Edge) -> int:
    adj = G.adjacency
    return adj[e[0]] | adj[e[1]] | edge_mask(e)


def is_gap_free(G: Graph) -> bool:
    """No pair of edges forms a gap; equivalently nu1 <= 1.

    One scan over the pairs of edges, so it returns where the nu1 search
    does not, as on sparse graphs near the vertex cap.
    """
    emasks = [edge_mask(e) for e in G.edge_list]
    for i, e in enumerate(G.edge_list):
        closed = _closed_edge_mask(G, e)
        if any(f & closed == 0 for f in emasks[i + 1 :]):
            return False
    return True


def induced_matching_number(G: Graph) -> int:
    """Largest matching whose edges pairwise form gaps.

    Within a request (see ``memo``), computed once per edge set.
    """
    return memo.get(G.edges, lambda: _induced_nu(G))


def _induced_nu(G: Graph) -> int:
    edges = G.edge_list
    emasks = [edge_mask(e) for e in edges]
    closed = [_closed_edge_mask(G, e) for e in edges]
    m = len(edges)

    def rec(start: int, blocked: int, count: int) -> int:
        memo.check_deadline()
        best = count
        for i in range(start, m):
            if emasks[i] & blocked:
                continue
            best = max(best, rec(i + 1, blocked | closed[i], count + 1))
        return best

    return rec(0, 0, 0)


def restricted_matching_number(G: Graph) -> int:
    """Largest matching with an edge forming a gap with every other member.

    The edges forming a gap with e = (a, b) are exactly the edges of
    G - N[a] - N[b], so the answer is 1 + max over e of nu(G - N[a] - N[b]).
    Within a request (see ``memo``), computed once per edge set.
    """
    return memo.get(G.edges, lambda: _restricted_nu(G))


def _restricted_nu(G: Graph) -> int:
    if not G.edges:
        return 0
    adj, full = G.adjacency, G.vertex_mask
    return 1 + max(_nu(adj, full & ~_closed_edge_mask(G, e)) for e in G.edge_list)


def has_perfect_matching(G: Graph) -> bool:
    return G.n % 2 == 0 and 2 * matching_number(G) == G.n


def tree_perfect_matching_criterion(G: Graph) -> bool:
    """Perfect-matching test for trees by vertex deletion.

    A tree has a perfect matching exactly when deleting any single vertex
    leaves exactly one odd component.
    """
    if not is_tree(G):
        raise ValueError("criterion applies to trees only")
    for v in G.vertices:
        H = remove_vertices(G, [v])
        odd = sum(1 for comp in connected_components(H) if len(comp) % 2 == 1)
        if odd != 1:
            return False
    return True


def enumerate_maximal_matchings(G: Graph) -> Iterator[Matching]:
    """Yield every maximal matching, lexicographically by sorted edge list."""
    edges = G.edge_list
    masks = [edge_mask(e) for e in edges]
    m = len(edges)
    chosen: list[Edge] = []

    def rec(start: int, used: int) -> Iterator[Matching]:
        memo.check_deadline()
        if all(mask & used for mask in masks):
            yield tuple(chosen)
            return
        for i in range(start, m):
            if masks[i] & used:
                continue
            chosen.append(edges[i])
            yield from rec(i + 1, used | masks[i])
            chosen.pop()

    yield from rec(0, 0)


def is_equimatchable(G: Graph) -> bool:
    """Every maximal matching has maximum size.

    Within a request (see ``memo``), decided once per edge set.
    """
    return memo.get(G.edges, lambda: _equimatchable(G))


def _equimatchable(G: Graph) -> bool:
    nu = matching_number(G)
    return all(len(M) == nu for M in enumerate_maximal_matchings(G))


def greedy_matching_extension(G: Graph, V: Iterable[int]) -> list[Edge]:
    """Edges extending a vertex set of an equimatchable graph one step at a time.

    Returns edges e_1, ..., e_r such that adding the endpoints of e_1..e_i to V
    raises the induced matching number by exactly i, ending at nu(G).
    """
    if not is_equimatchable(G):
        raise ValueError("graph is not equimatchable")
    adj = G.adjacency
    covered = vertices_to_mask(V)
    target = matching_number(G)
    current = _nu(adj, covered)
    picked: list[Edge] = []
    while current < target:
        for e in G.edge_list:
            trial = covered | edge_mask(e)
            if _nu(adj, trial) == current + 1:
                picked.append(e)
                covered = trial
                current += 1
                break
        else:
            raise RuntimeError("no extending edge found; equimatchable guarantee violated")
    return picked
