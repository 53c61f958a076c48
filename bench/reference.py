"""Computations the benchmark checks the program's outputs against.

Nothing here imports the program.  A graph is ``(n, edges)`` with vertices
``1..n`` and each edge a pair ``(u, v)`` with ``u < v``; a squarefree
monomial is an int whose bit ``v - 1`` stands for the variable ``x_v``.  The
algorithms differ from the program's on purpose: the Betti table is checked
through the Moebius function of the lcm lattice (Gasharov-Peeva-Welker) and
the Taylor complex over the rationals, linear relatedness through the
connectivity of open lattice intervals, and the matching invariants through
networkx.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

import networkx as nx

Graph = tuple[int, tuple[tuple[int, int], ...]]


# ---------------------------------------------------------------------------
# graphs

def path(n: int) -> Graph:
    return n, tuple((v, v + 1) for v in range(1, n))


def cycle(n: int) -> Graph:
    return n, tuple(sorted(path(n)[1] + ((1, n),)))


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = tuple(
        (u, v) for u in range(1, n) for v in range(u + 1, n + 1) if rng.random() < p
    )
    return n, edges


def relabel(G: Graph, rng: random.Random) -> Graph:
    """The same graph under a uniformly random vertex permutation."""
    n, edges = G
    image = list(range(1, n + 1))
    rng.shuffle(image)
    moved = (tuple(sorted((image[u - 1], image[v - 1]))) for u, v in edges)
    return n, tuple(sorted(moved))


def graph6(G: Graph) -> str:
    """graph6 encoding (McKay) for n <= 62."""
    n, edges = G
    present = set(edges)
    bits = [int((i, j) in present) for j in range(2, n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    words = [int("".join(map(str, bits[k : k + 6])), 2) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + w) for w in [n] + words)


def from_graph6(text: str) -> Graph:
    data = [ord(c) - 63 for c in text]
    n = data[0]
    bits = [(w >> s) & 1 for w in data[1:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    return n, tuple(sorted(pair for pair, bit in zip(pairs, bits) if bit))


def nx_graph(G: Graph) -> nx.Graph:
    n, edges = G
    H = nx.Graph()
    H.add_nodes_from(range(1, n + 1))
    H.add_edges_from(edges)
    return H


# ---------------------------------------------------------------------------
# squarefree monomials and the lcm lattice

def mask(variables) -> int:
    out = 0
    for v in variables:
        out |= 1 << (v - 1)
    return out


def variables(m: int) -> list[int]:
    return [v + 1 for v in range(m.bit_length()) if m >> v & 1]


def matching_supports(G: Graph, k: int) -> set[int]:
    """Distinct vertex sets covered by the k-matchings of G."""
    edges = [mask(e) for e in G[1]]
    out: set[int] = set()

    def grow(start: int, used: int, left: int) -> None:
        if not left:
            out.add(used)
            return
        for i in range(start, len(edges)):
            if not edges[i] & used:
                grow(i + 1, used | edges[i], left - 1)

    grow(0, 0, k)
    return out


def lcm_lattice(gens) -> list[int]:
    """Every lcm of a nonempty set of generators, with 1 (the mask 0) first."""
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                j = m | g
                if j not in seen:
                    seen.add(j)
                    fresh.append(j)
        frontier = fresh
    return [0] + sorted(seen, key=lambda m: (m.bit_count(), m))


def moebius_from_bottom(lattice: list[int]) -> dict[int, int]:
    """mu(1, m) for every m of a lattice listed bottom first, by degree."""
    mu = {lattice[0]: 1}
    below: list[int] = [lattice[0]]
    for m in lattice[1:]:
        mu[m] = -sum(mu[x] for x in below if x & ~m == 0)
        below.append(m)
    return mu


def interval_components(gens, m: int) -> int:
    """Connected components of the open lattice interval (1, m).

    Every element of the interval lies above a generator, and two generators
    dividing m share a component exactly when a chain of generators joins
    them with each consecutive lcm strictly below m.  By Gasharov-Peeva-
    Welker, beta_{1,m}(I) is this count minus one.
    """
    below = [g for g in gens if g & ~m == 0 and g != m]
    parent = list(range(len(below)))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in itertools.combinations(range(len(below)), 2):
        if below[a] | below[b] != m:
            parent[root(a)] = root(b)
    return len({root(a) for a in range(len(below))})


def linearly_related(gens) -> bool:
    """beta_{1,m} = 0 at every lattice m above the linear strand."""
    d = min(g.bit_count() for g in gens)
    return all(
        interval_components(gens, m) <= 1
        for m in lcm_lattice(gens)[1:]
        if m.bit_count() > d + 1
    )


def colon_is_linear(earlier, u: int) -> bool:
    """Whether (earlier) : u is generated by variables.

    The colon is generated by the monomials g / gcd(g, u); it is generated by
    variables exactly when each of its minimal generators has degree one.
    """
    quotients = {g & ~u for g in earlier}
    minimal = [q for q in quotients if not any(p != q and p & ~q == 0 for p in quotients)]
    return all(q.bit_count() == 1 for q in minimal)


# ---------------------------------------------------------------------------
# the Taylor complex over the rationals

def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    rows = [r[:] for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            a = rows[r][col]
            if a:
                row = [top[col] * x - a * y for x, y in zip(rows[r], top)]
                div = 0
                for x in row:
                    div = gcd(div, x)
                rows[r] = [x // div for x in row] if div > 1 else row
        rank += 1
    return rank


def taylor_betti(gens, m: int) -> dict[int, int]:
    """beta_{i,m}(I) over Q for the ideal restricted to the generators dividing m.

    The degree-m strand of the Taylor resolution tensored with the field has
    one basis element per set of generators with lcm exactly m, in
    homological degree (size - 1); a face survives in the boundary only when
    its lcm is still m.
    """
    dividing = [g for g in gens if g & ~m == 0]
    cells: dict[int, list[tuple[int, ...]]] = {}
    for size in range(1, len(dividing) + 1):
        for subset in itertools.combinations(range(len(dividing)), size):
            join = 0
            for t in subset:
                join |= dividing[t]
            if join == m:
                cells.setdefault(size, []).append(subset)

    def boundary_rank(size: int) -> int:
        upper, lower = cells.get(size, []), cells.get(size - 1, [])
        if not upper or not lower:
            return 0
        index = {s: i for i, s in enumerate(lower)}
        rows = []
        for s in upper:
            row = [0] * len(lower)
            for t in range(size):
                face = index.get(s[:t] + s[t + 1 :])
                if face is not None:
                    row[face] = -1 if t % 2 else 1
            rows.append(row)
        return rational_rank(rows)

    ranks = {size: boundary_rank(size) for size in range(1, len(dividing) + 2)}
    table = {}
    for size, basis in cells.items():
        dim = len(basis) - ranks[size] - ranks[size + 1]
        if dim:
            table[size - 1] = dim
    return table


# ---------------------------------------------------------------------------
# matching invariants through networkx

def matching_number(H: nx.Graph) -> int:
    return len(nx.max_weight_matching(H, maxcardinality=True))


def closed_edge(H: nx.Graph, e) -> set:
    u, v = e
    return set(H[u]) | set(H[v]) | {u, v}


def induced_matching_number(H: nx.Graph) -> int:
    """Independence number of the graph on E(G) joining edges that meet or touch."""
    edges = [tuple(sorted(e)) for e in H.edges]
    conflict = nx.Graph()
    conflict.add_nodes_from(edges)
    for e, f in itertools.combinations(edges, 2):
        if set(f) & closed_edge(H, e):
            conflict.add_edge(e, f)
    clique, _ = nx.max_weight_clique(nx.complement(conflict), weight=None)
    return len(clique)


def restricted_matching_number(H: nx.Graph) -> int:
    """Largest matching holding an edge that forms a gap with each other member.

    The other members are pairwise disjoint edges that avoid the closed
    neighbourhood of that edge, so the answer is 1 plus the matching number
    of the subgraph of those edges, maximised over the edge.
    """
    best = 0
    for e in H.edges:
        blocked = closed_edge(H, e)
        mates = H.edge_subgraph(f for f in H.edges if not set(f) & blocked)
        best = max(best, 1 + matching_number(mates))
    return best


def greedy_maximal_matching(H: nx.Graph, rng: random.Random) -> int:
    """Size of the maximal matching built from the edges in a random order."""
    edges = list(H.edges)
    rng.shuffle(edges)
    used: set = set()
    size = 0
    for u, v in edges:
        if u not in used and v not in used:
            used.update((u, v))
            size += 1
    return size
