"""Instance families for the verification harness.

Exhaustive families list pairwise non-isomorphic graphs (n <= 8) from the
bundled table ``data/graphs.txt``: the least edge code over all relabelings of
each isomorphism class, in increasing order, read for one n on its first use.
Trees (n <= 12) come from leaf extension deduplicated by center-rooted
canonical forms, and forests without isolated vertices from multisets of
trees.  ``resolve_family`` lists these three sized families from one table,
``SIZED_FAMILIES``, and checks the size against it before listing anything.
Random families draw from a recorded 64-bit seed so every run is reproducible.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from pathlib import Path
from typing import Iterator

from .defaults import DEFAULT_SEED, FAMILY_HELP
from .graphs import MAX_VERTICES, Graph, disjoint_union, is_tree, parse_graphs
from .ideals import MonomialIdeal, minimalize, monomial

GRAPH_ENUM_CAP = 8
TREE_ENUM_CAP = 12  # trees and forests; the tree count grows about 2.7x per vertex


# ---------------------------------------------------------------------------
# edge codes

def _edge_slots(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _graph_from_code(n: int, code: int) -> Graph:
    slots = _edge_slots(n)
    edges = [(i + 1, j + 1) for k, (i, j) in enumerate(slots) if code >> k & 1]
    return Graph.from_edges(n, edges)


@functools.lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """Non-isomorphic graphs on exactly n vertices, canonical representatives."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > GRAPH_ENUM_CAP:
        raise ValueError(f"graph enumeration capped at n = {GRAPH_ENUM_CAP}")
    return tuple(_graph_from_code(n, code) for code in _table_codes(n))


def _table_codes(n: int) -> list[int]:
    """The edge codes listed under ``n N`` in the bundled graph table."""
    from importlib import resources

    header = f"n {n}\n"
    table = resources.files(__package__).joinpath("data/graphs.txt")
    with table.open("r", encoding="ascii") as lines:
        for line in lines:
            if line == header:
                break
        return [
            int(line, 16)
            for line in itertools.takewhile(lambda l: not l.startswith("n "), lines)
        ]


def tree_centers(G: Graph) -> list[int]:
    """The one or two middle vertices of a tree, by repeated leaf stripping."""
    if G.n == 1:
        return [1]
    degrees = {v: G.degree(v) for v in G.vertices}
    adj = {v: set(G.neighbors(v)) for v in G.vertices}
    layer = [v for v in G.vertices if degrees[v] == 1]
    alive = G.n
    while alive > 2:
        nxt = []
        for v in layer:
            alive -= 1
            for u in adj[v]:
                adj[u].discard(v)
                degrees[u] -= 1
                if degrees[u] == 1:
                    nxt.append(u)
            adj[v] = set()
        layer = nxt
    return sorted(layer)


def tree_canonical_form(G: Graph):
    """Nested-tuple canonical form of a tree, rooted at its center(s)."""
    if not is_tree(G):
        raise ValueError("canonical form applies to trees")

    def rooted(v: int, parent: int):
        return tuple(sorted(rooted(u, v) for u in G.neighbors(v) if u != parent))

    return min(rooted(c, 0) for c in tree_centers(G))


@functools.lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[Graph, ...]:
    """Non-isomorphic trees on exactly n vertices via leaf extension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > TREE_ENUM_CAP:
        raise ValueError(f"tree enumeration capped at n = {TREE_ENUM_CAP}")
    if n == 1:
        return (Graph.from_edges(1, []),)
    seen: dict[tuple, Graph] = {}
    for T in all_trees(n - 1):
        for v in T.vertices:
            cand = Graph.from_edges(n, list(T.edge_list) + [(v, n)])
            key = tree_canonical_form(cand)
            if key not in seen:
                seen[key] = cand
    return tuple(seen[k] for k in sorted(seen))


def _partitions_min2(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 1, -1):
        for rest in _partitions_min2(n - p, p):
            yield (p,) + rest


@functools.lru_cache(maxsize=None)
def all_forests(n: int) -> tuple[Graph, ...]:
    """Non-isomorphic forests on exactly n vertices with no isolated vertices.

    A forest is a partition of n into tree sizes >= 2 and, for each size that
    occurs c times, a multiset of c trees of that size.
    """
    if n < 2:
        raise ValueError("n must be >= 2: a forest with no isolated vertex has an edge")
    if n > TREE_ENUM_CAP:
        raise ValueError(f"forest enumeration capped at n = {TREE_ENUM_CAP}")
    out: list[Graph] = []
    for parts in _partitions_min2(n):
        multisets = [
            itertools.combinations_with_replacement(all_trees(size), len(list(group)))
            for size, group in itertools.groupby(parts)
        ]
        for picks in itertools.product(*multisets):
            out.append(
                functools.reduce(disjoint_union, itertools.chain.from_iterable(picks))
            )
    return tuple(out)


def disjoint_edges_graph(r: int) -> Graph:
    """Perfect matching on 2r vertices: edges (1,2), (3,4), ..."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return Graph.from_edges(2 * r, [(2 * i - 1, 2 * i) for i in range(1, r + 1)])


# ---------------------------------------------------------------------------
# random families

def random_graphs(count: int, max_n: int, seed: int = DEFAULT_SEED) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        p = rng.uniform(0.1, 0.9)
        edges = [
            (u, v)
            for u in range(1, n)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        out.append(Graph.from_edges(n, edges))
    return out


def random_squarefree_ideals(
    count: int,
    max_n: int = 8,
    max_gens: int = 8,
    seed: int = DEFAULT_SEED,
) -> list[MonomialIdeal]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        target = rng.randint(1, max_gens)
        masks = set()
        for _ in range(target):
            size = rng.randint(1, max(2, n - n // 3))
            masks.add(monomial(rng.sample(range(1, n + 1), min(size, n))))
        out.append(minimalize(n, masks))
    return out


# ---------------------------------------------------------------------------
# family specs for the CLI and harness

def _family_size(spec: str, value: str, least: int) -> int:
    """A size parameter of *spec*; below *least* the family would be empty."""
    size = int(value)
    if size < least:
        raise ValueError(f"family {spec!r} is empty: {value} is below {least}")
    return size


# NAME-N lists the graphs on n vertices for every n from the least up to N;
# name -> (the graphs on exactly n vertices, least n, greatest N)
SIZED_FAMILIES = {
    "exhaustive": (all_graphs, 1, GRAPH_ENUM_CAP),
    "trees": (all_trees, 1, TREE_ENUM_CAP),
    # the smallest forest without isolated vertices is one edge
    "forests": (all_forests, 2, TREE_ENUM_CAP),
}
_SIZED_SPEC = re.compile(rf"({'|'.join(SIZED_FAMILIES)})-(\d+)")


def resolve_family(spec: str, seed: int = DEFAULT_SEED) -> list[Graph]:
    """Materialize a family spec into a list of graphs."""
    if spec == "builtin":
        from .graphs import BUILTIN_GRAPH_NAMES, builtin_graph

        return [builtin_graph(name) for name in BUILTIN_GRAPH_NAMES]
    m = _SIZED_SPEC.fullmatch(spec)
    if m:
        lister, least, cap = SIZED_FAMILIES[m.group(1)]
        size = _family_size(spec, m.group(2), least)
        if size > cap:
            raise ValueError(f"family {spec!r} is capped at n = {cap}")
        return [G for n in range(least, size + 1) for G in lister(n)]
    m = re.fullmatch(r"random-(\d+)-(\d+)", spec)
    if m:
        # random_graphs draws each vertex count from 2..N
        max_n = _family_size(spec, m.group(1), 2)
        if max_n > MAX_VERTICES:
            raise ValueError(f"family {spec!r} is capped at n = {MAX_VERTICES}")
        return random_graphs(_family_size(spec, m.group(2), 1), max_n, seed)
    path = spec[len("graph6:") :] if spec.startswith("graph6:") else spec
    file = Path(path)
    if file.exists():
        return parse_graphs(file.read_text())
    raise ValueError(f"cannot resolve family {spec!r}; expected {FAMILY_HELP}")
