"""Independent brute-force oracles used to validate the library.

Everything here is deliberately written from first principles with different
algorithms and data structures than the package: exhaustive edge-subset
search for the matching invariants, the Taylor complex over the rationals for
multigraded Betti numbers, the K-polynomial of S/I for their alternating
sums, the minimal generators of each colon and unpruned prefix search for
linear quotients, induced-subset search for chordless cycles, and the graph
that a forest template's parameters spell out.  Slow but obviously correct.

There are three exceptions.  ``generated_graphs``, the numpy generator that
produced the package's bundled graph table, stays here to cross-check that
table, beside ``canonical_code``, the least edge code of a graph over all
relabelings, which checks the enumerations for isomorphic duplicates.
``gap_mates_restricted_matching_number`` is the package's earlier nu0: it
scans the gap-mates of each edge by hand but takes their matching number from
the package, and is fast enough to cross-check nu0 on 30 vertices.
``format_edge_list`` is no oracle at all: it writes the edge-list format that
the tests read back.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict

from sqfpowers import Graph, MonomialIdeal, TemplateMatch
from sqfpowers.families import GRAPH_ENUM_CAP, _edge_slots, _graph_from_code
from sqfpowers.matchings import edge_mask, matching_number

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# matchings by exhaustive search over edge subsets

def _pairwise_disjoint(edges: tuple[Edge, ...]) -> bool:
    seen: set[int] = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def is_matching(G: Graph, edges: list[Edge] | tuple[Edge, ...]) -> bool:
    return _pairwise_disjoint(edges) and all(G.has_edge(*e) for e in edges)


def brute_matching_number(G: Graph) -> int:
    best = 0
    edges = sorted(G.edges)
    for size in range(1, G.n // 2 + 1):  # more edges than n/2 always share a vertex
        if any(
            _pairwise_disjoint(M) for M in itertools.combinations(edges, size)
        ):
            best = size
    return best


def brute_induced_matching_number(G: Graph) -> int:
    best = 0
    edges = sorted(G.edges)
    for size in range(1, G.n // 2 + 1):  # more edges than n/2 always share a vertex
        for M in itertools.combinations(edges, size):
            if not _pairwise_disjoint(M):
                continue
            vertices = {v for e in M for v in e}
            induced = {e for e in G.edges if e[0] in vertices and e[1] in vertices}
            if induced == set(M):
                best = size
                break
    return best


def _is_gap_pair(G: Graph, e: Edge, f: Edge) -> bool:
    if set(e) & set(f):
        return False
    return not any(G.has_edge(a, b) for a in e for b in f)


def brute_restricted_matching_number(G: Graph) -> int:
    best = 0
    edges = sorted(G.edges)
    for size in range(1, G.n // 2 + 1):  # more edges than n/2 always share a vertex
        for M in itertools.combinations(edges, size):
            if not _pairwise_disjoint(M):
                continue
            if size == 1 or any(
                all(_is_gap_pair(G, e, f) for f in M if f != e) for e in M
            ):
                best = size
                break
    return best


def gap_mates_restricted_matching_number(G: Graph) -> int:
    """nu0 as 1 + the matching number of the edges forming a gap with e, over e.

    Each edge e is compared with every other edge, and its gap-mates become a
    graph of their own; the package reads the same mates off G - N[e].
    """
    edges = G.edge_list
    if not edges:
        return 0
    best = 1
    for a, b in edges:
        closed = G.adjacency[a] | G.adjacency[b] | edge_mask((a, b))
        mates = [f for f in edges if edge_mask(f) & closed == 0]
        if mates:
            best = max(best, 1 + matching_number(Graph(G.n, frozenset(mates))))
    return best


def brute_has_perfect_matching(G: Graph) -> bool:
    return 2 * brute_matching_number(G) == G.n


# ---------------------------------------------------------------------------
# chordless cycles by induced-subset search

def brute_has_chordless_cycle(G: Graph) -> bool:
    """Some vertex subset of size >= 4 induces a connected 2-regular graph."""
    for size in range(4, G.n + 1):
        for W in itertools.combinations(range(1, G.n + 1), size):
            inside = set(W)
            induced = [
                e for e in G.edges if e[0] in inside and e[1] in inside
            ]
            if len(induced) != size:
                continue
            deg: dict[int, int] = {v: 0 for v in W}
            for u, v in induced:
                deg[u] += 1
                deg[v] += 1
            if any(d != 2 for d in deg.values()):
                continue
            # connectivity of the induced subgraph
            reach = {W[0]}
            frontier = [W[0]]
            while frontier:
                x = frontier.pop()
                for u, v in induced:
                    if u == x and v not in reach:
                        reach.add(v)
                        frontier.append(v)
                    elif v == x and u not in reach:
                        reach.add(u)
                        frontier.append(u)
            if len(reach) == size:
                return True
    return False


# ---------------------------------------------------------------------------
# the exhaustive graph families by vertex extension

@functools.lru_cache(maxsize=None)
def _perm_powers(n: int) -> "np.ndarray":
    """(n!, C(n,2)) float array of 2^(edge slot image) per vertex permutation.

    Codes stay below 2^28 for n <= 8, so float64 arithmetic is exact and the
    min-over-permutations reduces to fast BLAS operations.
    """
    import numpy as np

    slots = _edge_slots(n)
    index = {s: i for i, s in enumerate(slots)}
    perms = list(itertools.permutations(range(n)))
    powers = np.empty((len(perms), len(slots)), dtype=np.float64)
    for r, perm in enumerate(perms):
        for c, (i, j) in enumerate(slots):
            a, b = perm[i], perm[j]
            powers[r, c] = float(1 << index[(a, b) if a < b else (b, a)])
    return powers


def canonical_code(G: Graph) -> int:
    """Isomorphism-invariant integer: minimal edge-indicator code over relabelings."""
    if G.n > GRAPH_ENUM_CAP:
        raise ValueError(f"canonical codes support n <= {GRAPH_ENUM_CAP}")
    if G.n <= 1:
        return 0
    slots = _edge_slots(G.n)
    index = {s: i for i, s in enumerate(slots)}
    cols = [index[(u - 1, v - 1)] for u, v in G.edge_list]
    if not cols:
        return 0
    powers = _perm_powers(G.n)
    return int(powers[:, cols].sum(axis=1).min())


@functools.lru_cache(maxsize=None)
def generated_graphs(n: int) -> tuple[Graph, ...]:
    """Non-isomorphic graphs on n <= 8 vertices, generated by vertex extension.

    Every graph on n - 1 vertices is joined to a new vertex n in all 2^(n-1)
    ways, and each result is reduced to its least edge code over all n!
    relabelings at once, as one matrix product per graph.  The distinct codes,
    in increasing order, give the representatives.
    """
    import numpy as np

    if n == 1:
        return (Graph.from_edges(1, []),)
    index = {s: i for i, s in enumerate(_edge_slots(n))}
    powers = _perm_powers(n)
    new_block = powers[:, [index[(v - 1, n - 1)] for v in range(1, n)]]
    subsets = np.array(
        [[(s >> b) & 1 for s in range(1 << (n - 1))] for b in range(n - 1)],
        dtype=np.float64,
    )  # (n-1, 2^(n-1))
    codes: set[int] = set()
    for G in generated_graphs(n - 1):
        cols = [index[(u - 1, v - 1)] for u, v in G.edge_list]
        base = powers[:, cols].sum(axis=1) if cols else np.zeros(len(powers))
        all_codes = base[:, None] + new_block @ subsets
        codes.update(int(c) for c in all_codes.min(axis=0))
    return tuple(_graph_from_code(n, c) for c in sorted(codes))


# ---------------------------------------------------------------------------
# squarefree power membership from the definition

def _exponent_vector(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def brute_sqfree_power_members(I: MonomialIdeal, k: int) -> set[int]:
    """All squarefree monomials inside I^k, via products of k generators."""
    n = I.n
    members: set[int] = set()
    products: set[tuple[int, ...]] = set()
    for combo in itertools.combinations_with_replacement(I.gens, k):
        vec = [0] * n
        for g in combo:
            for i, e in enumerate(_exponent_vector(g, n)):
                vec[i] += e
        products.add(tuple(vec))
    for m in range(1 << n):
        target = _exponent_vector(m, n)
        if any(all(p <= t for p, t in zip(prod, target)) for prod in products):
            members.add(m)
    return members


# ---------------------------------------------------------------------------
# minimal generators by comparing every pair

def minimal_masks(masks: set[int]) -> set[int]:
    """The masks that no other given mask divides (is a subset of)."""
    return {
        m
        for m in masks
        if not any(other != m and other & ~m == 0 for other in masks)
    }


# ---------------------------------------------------------------------------
# linear quotients from the minimal generators of each colon

def _colon_is_variable_generated(prefix: tuple[int, ...], u: int) -> bool:
    quotients = {t & ~u for t in prefix}
    return all(q.bit_count() == 1 for q in minimal_masks(quotients))


def is_linear_quotients_order(gens: tuple[int, ...]) -> bool:
    """Whether each colon (g_1, ..., g_{j-1}) : g_j is generated by variables."""
    return all(
        _colon_is_variable_generated(gens[:j], gens[j]) for j in range(1, len(gens))
    )


def first_linear_quotients_order(ranking: list[int]) -> tuple[int, ...] | None:
    """The first linear-quotients order of the generators in the order of
    sequences that the ranking induces, or None when there is none: a
    depth-first search over prefixes, with no pruning and no memo."""

    def extend(prefix: tuple[int, ...], rest: list[int]) -> tuple[int, ...] | None:
        if not rest:
            return prefix
        for i, u in enumerate(rest):
            if _colon_is_variable_generated(prefix, u):
                found = extend(prefix + (u,), rest[:i] + rest[i + 1 :])
                if found is not None:
                    return found
        return None

    return extend((), ranking)


# ---------------------------------------------------------------------------
# forest templates, rebuilt from their parameters

def realize(match: TemplateMatch, n: int) -> Graph:
    """The forest on n vertices whose edges the template match encodes."""
    edges: list[Edge] = []
    if match.kind == "G1":
        x1, x2, x3 = match.spine
        edges += [(x1, x2), (x2, x3)]
        for x, leaves in zip(match.spine, match.bouquets):
            edges += [(x, v) for v in leaves]
    elif match.kind == "G2":
        x1, x2, x3, x4 = match.spine
        edges += [(x1, x2), (x2, x3), (x3, x4)]
        for x, leaves in ((x1, match.bouquets[0]), (x4, match.bouquets[1])):
            edges += [(x, v) for v in leaves]
    elif match.kind == "G3":
        for c, leaves in zip(match.spine, match.bouquets):
            edges += [(c, v) for v in leaves]
    else:
        raise ValueError(f"unknown template kind {match.kind!r}")
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# the edge-list text format, written

def format_edge_list(G: Graph) -> str:
    """G in the edge-list format that ``parse_edge_list`` and the CLI read."""
    return "".join([f"n {G.n}\n", *(f"{u} {v}\n" for u, v in G.edge_list)])


# ---------------------------------------------------------------------------
# multigraded Betti numbers from the Taylor complex over the rationals

def rational_rank(rows: list[list[int]]) -> int:
    """Exact rank over Q, by fraction-free (Bareiss) elimination over Z.

    After j pivots every entry below them is a (j+1)-minor of the input, so
    each division by the previous pivot is exact and no entry leaves Z.
    """
    mat = [list(row) for row in rows]
    n_rows = len(mat)
    rank, previous = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, n_rows):
            a = mat[r][col]
            mat[r] = [(p * x - a * y) // previous for x, y in zip(mat[r], top)]
        previous = p
        rank += 1
    return rank


def taylor_betti_table(I: MonomialIdeal) -> dict[tuple[int, int], int]:
    """All multigraded Betti numbers of I over Q via the Taylor complex.

    For each multidegree m the complex has one basis element per subset of
    generators with lcm exactly m; the boundary keeps the faces whose lcm is
    still m.  beta_{i,m}(I) is the homology dimension at subset size i + 1.
    """
    gens = I.gens
    g = len(gens)
    if g == 0:
        return {}
    assert g <= 10, "Taylor oracle enumerates 2^g subsets; keep g small"
    by_degree: dict[int, dict[int, list[tuple[int, ...]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for size in range(1, g + 1):
        for sigma in itertools.combinations(range(g), size):
            m = 0
            for t in sigma:
                m |= gens[t]
            by_degree[m][size].append(sigma)

    entries: dict[tuple[int, int], int] = {}
    for m, by_size in by_degree.items():
        max_size = max(by_size)

        def boundary_rank(j: int) -> int:
            dom = by_size.get(j, [])
            cod = by_size.get(j - 1, [])
            if not dom or not cod:
                return 0
            index = {sigma: idx for idx, sigma in enumerate(cod)}
            rows = []
            for sigma in dom:
                row = [0] * len(cod)
                for t in range(len(sigma)):
                    face = sigma[:t] + sigma[t + 1 :]
                    idx = index.get(face)
                    if idx is not None:
                        row[idx] = -1 if t % 2 else 1
                rows.append(row)
            return rational_rank(rows)

        ranks = {j: boundary_rank(j) for j in range(1, max_size + 2)}
        for j in range(1, max_size + 1):
            dim = len(by_size.get(j, []))
            homology = dim - ranks[j] - ranks.get(j + 1, 0)
            if homology:
                entries[(j - 1, m)] = homology
    return entries


def taylor_regularity(I: MonomialIdeal) -> int:
    if I.is_zero:
        return 1
    return max(m.bit_count() - i for (i, m) in taylor_betti_table(I))


# ---------------------------------------------------------------------------
# alternating sums of multigraded Betti numbers from the K-polynomial

def alternating_betti_sums(I: MonomialIdeal) -> dict[int, int]:
    """sum_i (-1)^i b_{i,m}(I) for every multidegree m != 1 where it is nonzero.

    The K-polynomial of S/I has the coefficient sum over F <= m, F not in I,
    of (-1)^|m - F| at x^m, and for m != 1 that coefficient is
    -sum_i (-1)^i b_{i,m}(I) (Miller-Sturmfels, Combinatorial Commutative
    Algebra, Ch. 1 and 4).  Membership comes from the generators, closed
    upwards one variable at a time; the signed subset sum is one pass per
    variable over all 2^n masks.  Only the sums are checked, not each b_{i,m}.
    """
    import numpy as np

    n = I.n
    member = np.zeros(1 << n, dtype=np.int64)
    member[list(I.gens)] = 1
    for j in range(n):  # axis 1 of the view is bit j of the mask
        view = member.reshape(-1, 2, 1 << j)
        view[:, 1, :] |= view[:, 0, :]
    coeff = 1 - member
    for j in range(n):
        view = coeff.reshape(-1, 2, 1 << j)
        view[:, 1, :] -= view[:, 0, :]
    return {int(m): -int(coeff[m]) for m in np.flatnonzero(coeff[1:]) + 1}
