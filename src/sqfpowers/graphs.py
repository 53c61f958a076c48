"""Finite simple graphs on the vertex set {1, ..., n}.

Vertices are 1-based integers and n is capped at 64 so that vertex sets fit
into machine-word bitmasks (bit v-1 stands for vertex v).  Graphs are
immutable; every surgery operation returns a new graph.  Induced subgraphs
relabel their vertices order-preservingly to {1, ..., |W|}: the new vertex i
is the i-th smallest vertex of W.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

MAX_VERTICES = 64

Edge = tuple[int, int]


def _canon_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph; ``edges`` holds sorted pairs (u, v) with u < v."""

    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges: frozenset[Edge]) -> None:
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        for u, v in edges:
            if not (1 <= u < v <= n):
                raise ValueError(f"edge ({u}, {v}) is not canonical for n={n}")
        self.__dict__.update(n=n, edges=edges)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from unordered vertex pairs, canonicalizing each."""
        return Graph(n, frozenset(_canon_edge(u, v) for u, v in edges))

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges sorted lexicographically; the iteration order used everywhere."""
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex; index 0 is unused padding."""
        adj = [0] * (self.n + 1)
        for u, v in self.edges:
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        return tuple(adj)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and _canon_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adjacency[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(_mask_vertices(self.adjacency[v]))

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")


def _mask_vertices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def vertices_to_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


# ---------------------------------------------------------------------------
# surgery

def induced_subgraph(G: Graph, W: Iterable[int]) -> Graph:
    """Subgraph induced on W, relabeled order-preservingly to 1..|W|."""
    keep = sorted(set(W))
    for v in keep:
        G._check_vertex(v)
    new_label = {v: i + 1 for i, v in enumerate(keep)}
    keep_set = set(keep)
    edges = [
        (new_label[u], new_label[v])
        for u, v in G.edge_list
        if u in keep_set and v in keep_set
    ]
    return Graph.from_edges(len(keep), edges)


def remove_vertices(G: Graph, W: Iterable[int]) -> Graph:
    drop = set(W)
    return induced_subgraph(G, (v for v in G.vertices if v not in drop))


def remove_edge(G: Graph, e: Sequence[int]) -> Graph:
    edge = _canon_edge(e[0], e[1])
    if edge not in G.edges:
        raise ValueError(f"edge {edge} not present")
    return Graph(G.n, G.edges - {edge})


def edges_within(G: Graph, W: Iterable[int]) -> Graph:
    """Spanning subgraph keeping only edges with both ends in W (no relabeling)."""
    keep = set(W)
    return Graph(G.n, frozenset(e for e in G.edges if e[0] in keep and e[1] in keep))


def complement(G: Graph) -> Graph:
    edges = [
        (u, v)
        for u in G.vertices
        for v in range(u + 1, G.n + 1)
        if (u, v) not in G.edges
    ]
    return Graph.from_edges(G.n, edges)


def disjoint_union(G: Graph, H: Graph) -> Graph:
    """Disjoint union; vertices of H are shifted up by n(G)."""
    if G.n + H.n > MAX_VERTICES:
        raise ValueError("disjoint union exceeds the vertex cap")
    shifted = [(u + G.n, v + G.n) for u, v in H.edge_list]
    return Graph.from_edges(G.n + H.n, list(G.edge_list) + shifted)


def isolated_vertices(G: Graph) -> frozenset[int]:
    return frozenset(v for v in G.vertices if G.adjacency[v] == 0)


# ---------------------------------------------------------------------------
# predicates

def connected_components(G: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, ordered by smallest member."""
    seen = 0
    comps: list[frozenset[int]] = []
    adj = G.adjacency
    for v in G.vertices:
        bit = 1 << (v - 1)
        if seen & bit:
            continue
        comp = bit
        frontier = bit
        while frontier:
            nxt = 0
            for u in _mask_vertices(frontier):
                nxt |= adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        comps.append(frozenset(_mask_vertices(comp)))
    return comps


def is_connected(G: Graph) -> bool:
    return len(connected_components(G)) <= 1


def is_forest(G: Graph) -> bool:
    return len(G.edges) == G.n - len(connected_components(G))


def is_tree(G: Graph) -> bool:
    return G.n >= 1 and is_connected(G) and len(G.edges) == G.n - 1


def is_chordal(G: Graph) -> bool:
    """Chordality test: maximum cardinality search + perfect elimination check.

    A graph is chordal when every cycle of length at least four has a chord;
    equivalently, MCS visits vertices in the reverse of a perfect elimination
    ordering exactly when the graph is chordal.
    """
    n = G.n
    if n <= 2:
        return True
    adj = G.adjacency
    weight = [0] * (n + 1)
    selected: list[int] = []
    remaining = set(G.vertices)
    while remaining:
        # max weight, smallest label as the deterministic tie break
        v = min(remaining, key=lambda u: (-weight[u], u))
        remaining.remove(v)
        selected.append(v)
        for u in _mask_vertices(adj[v]):
            if u in remaining:
                weight[u] += 1
    # eliminate in reverse selection order; later = earlier in `selected`
    pos = {v: i for i, v in enumerate(selected)}
    for v in selected:
        later = [u for u in _mask_vertices(adj[v]) if pos[u] < pos[v]]
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                if not G.has_edge(a, b):
                    return False
    return True


# ---------------------------------------------------------------------------
# constructors

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


def star_graph(k: int) -> Graph:
    """Star with k leaves: center 1, leaves 2..k+1."""
    if k < 1:
        raise ValueError("star needs at least one leaf")
    return Graph.from_edges(k + 1, [(1, i) for i in range(2, k + 2)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edges(n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)])


# The CLI builtin graphs, in the order of BUILTIN_GRAPH_NAMES: the paper's
# figure graphs and C7.
_BUILTIN_GRAPHS: dict[str, Callable[[], Graph]] = {
    # 9-vertex tree: a 7-path with extra leaves at path vertices 3 and 5
    "fig1": lambda: Graph.from_edges(
        9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8), (5, 9)]
    ),
    "fig2": lambda: disjoint_union(cycle_graph(4), cycle_graph(4)),
    "h": lambda: path_graph(4),
    "h-prime": lambda: path_graph(5),
    # 5-path with an extra leaf at its middle vertex
    "h-double-prime": lambda: Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
    "h-tilde": lambda: path_graph(6),
    "c7": lambda: cycle_graph(7),
}

BUILTIN_GRAPH_NAMES = tuple(_BUILTIN_GRAPHS)


def builtin_graph(name: str) -> Graph:
    """Build the graph with this CLI builtin name."""
    if name not in _BUILTIN_GRAPHS:
        raise ValueError(
            f"unknown builtin graph {name!r}; choose from {sorted(_BUILTIN_GRAPHS)}"
        )
    return _BUILTIN_GRAPHS[name]()


# ---------------------------------------------------------------------------
# text formats

def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    One edge per line as "u v"; '#' starts a comment; an optional header line
    "n <count>" pins the vertex count, otherwise n is the largest vertex seen.
    """
    n: int | None = None
    edges: list[Edge] = []
    max_seen = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or n is not None:
                raise ValueError(f"bad header line: {raw!r}")
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 1 or v < 1:
            raise ValueError(f"vertices must be positive: {raw!r}")
        edges.append(_canon_edge(u, v))
        max_seen = max(max_seen, u, v)
    if n is None:
        n = max_seen
    if max_seen > n:
        raise ValueError(f"edge vertex {max_seen} exceeds declared n={n}")
    return Graph.from_edges(n, edges)


def parse_graph6(line: str) -> Graph:
    """Decode one graph in graph6 format."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError(f"invalid graph6 characters in {line!r}")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 graph has {n} > {MAX_VERTICES} vertices")
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != need:
        raise ValueError(
            f"graph6 body length {len(body)}, expected {need} for {n} vertices"
        )
    if body and body[-1] & ((1 << (6 * need - pairs)) - 1):
        raise ValueError(f"nonzero graph6 padding bits in {line!r}")
    bits = []
    for b in body:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i + 1, j + 1))
            k += 1
    return Graph.from_edges(n, edges)


def to_graph6(G: Graph) -> str:
    """Encode in graph6 format."""
    n = G.n
    if n <= 62:
        header = [n]
    else:
        header = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i + 1, j + 1) in G.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        word = 0
        for bit in bits[k : k + 6]:
            word = (word << 1) | bit
        body.append(word)
    return "".join(chr(63 + b) for b in header + body)


def parse_graphs(text: str) -> list[Graph]:
    """Parse a graph file: either graph6 lines or a single edge list.

    A text with no line other than blanks and comments holds no graph and is
    rejected; an edge list with only an "n 0" header is the empty graph.
    """
    stripped = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not stripped:
        raise ValueError("no graph: the text is empty or holds only comments")
    if all(_looks_like_graph6(ln.strip()) for ln in stripped):
        return [parse_graph6(ln) for ln in stripped]
    return [parse_edge_list(text)]


def _looks_like_graph6(line: str) -> bool:
    if line.startswith(">>graph6<<"):
        return True
    if any(ch == " " for ch in line):
        return False
    # edge-list lines are all digits; graph6 bodies are printable ASCII >= '?'
    return not line.replace(" ", "").isdigit() and all(63 <= ord(c) <= 126 for c in line)
