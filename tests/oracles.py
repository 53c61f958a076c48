"""Independent brute-force oracles used to validate the library.

Everything here is deliberately written from first principles with different
algorithms and data structures than the package: exhaustive edge-subset
search for the matching invariants, the Taylor complex over the rationals for
multigraded Betti numbers, permutation search for linear quotients, and
induced-subset search for chordless cycles.  Slow but obviously correct.

The one exception is ``generated_graphs``, the numpy generator that produced
the package's bundled graph table; it stays here to cross-check that table.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from fractions import Fraction

from sqfpowers import Graph, MonomialIdeal
from sqfpowers.families import _edge_slots, _graph_from_code, _perm_powers

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
# linear quotients by permutation search

def _minimal_masks(masks: set[int]) -> set[int]:
    return {
        m
        for m in masks
        if not any(other != m and other & ~m == 0 for other in masks)
    }


def _colon_is_variable_generated(prefix: tuple[int, ...], u: int) -> bool:
    quotients = {t & ~u for t in prefix}
    return all(q.bit_count() == 1 for q in _minimal_masks(quotients))


def brute_linear_quotients_orders(I: MonomialIdeal) -> list[tuple[int, ...]]:
    """Every linear-quotients order of the generators (permutation search)."""
    gens = I.gens
    found = []
    for perm in itertools.permutations(gens):
        if all(
            _colon_is_variable_generated(perm[:j], perm[j])
            for j in range(1, len(perm))
        ):
            found.append(perm)
    return found


def brute_has_linear_quotients(I: MonomialIdeal) -> bool:
    if I.is_zero or len(I.gens) == 1:
        return True
    gens = I.gens
    return any(
        all(
            _colon_is_variable_generated(perm[:j], perm[j])
            for j in range(1, len(perm))
        )
        for perm in itertools.permutations(gens)
    )


# ---------------------------------------------------------------------------
# multigraded Betti numbers from the Taylor complex over the rationals

def rational_rank(rows: list[list[int]]) -> int:
    """Exact Gaussian elimination over Q."""
    if not rows or not rows[0]:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(n_rows):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == n_rows:
            break
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
