"""Edge ideals of graphs, their squarefree powers, and related constructions.

The edge ideal I(G) is generated by x_u x_v over the edges (u, v).  Its k-th
squarefree power is generated by the support monomials of k-matchings; it
vanishes beyond the matching number.  Ambient-ring constructions (the colon
graph of I(G)^[2] : x_a x_b, the intersection ideal attached to an edge)
keep the original vertex labels throughout.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import memo
from .betti import is_linearly_related_combinatorial
from .graphs import (
    Edge,
    Graph,
    connected_components,
    edges_within,
    is_forest,
    remove_edge,
)
from .ideals import MonomialIdeal, intersect, minimalize, monomial, sorted_gens
from .matchings import edge_mask, matching_number


def edge_ideal(G: Graph) -> MonomialIdeal:
    """I(G), the first squarefree power: its generators are the 1-matchings."""
    return sqfree_power_via_matchings(G, 1)


def sqfree_power_via_matchings(G: Graph, k: int) -> MonomialIdeal:
    """k-th squarefree power of I(G), generated by k-matching supports.

    Distinct matchings may share a support; generators are the distinct
    support monomials (all of degree 2k, hence automatically an antichain).
    Within a request (see ``memo``), each (n, edges, k) is computed once.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return memo.get((G.n, G.edges, k), lambda: _power_from_matchings(G, k))


def _power_from_matchings(G: Graph, k: int) -> MonomialIdeal:
    masks = [edge_mask(e) for e in G.edge_list]
    m = len(masks)
    supports: set[int] = set()

    def rec(start: int, used: int, need: int) -> None:
        memo.check_deadline()
        if not need:
            supports.add(used)
            return
        for i in range(start, m - need + 1):
            if not masks[i] & used:
                rec(i + 1, used | masks[i], need - 1)

    rec(0, 0, k)
    return MonomialIdeal._trusted(G.n, sorted_gens(supports))


def colon_square_by_edge(G: Graph, e: Edge) -> Graph:
    """The graph H with I(H) = I(G)^[2] : x_a x_b for the edge e = (a, b).

    H keeps the edges of G avoiding both endpoints and adds every pair (c, d)
    with c adjacent to a, d adjacent to b, c != d, and c, d outside {a, b}.
    """
    a, b = e
    if not G.has_edge(a, b):
        raise ValueError(f"edge {e} not present")
    ends = {a, b}
    edges = [f for f in G.edge_list if f[0] not in ends and f[1] not in ends]
    for c in G.neighbors(a):
        for d in G.neighbors(b):
            if c != d and c not in ends and d not in ends:
                edges.append((c, d) if c < d else (d, c))
    return Graph.from_edges(G.n, edges)


def l_ideal(G: Graph, e: Edge, k: int) -> MonomialIdeal:
    """The intersection I(G - e)^[k] and x_a x_b I(G - {a,b})^[k-1], e = (a, b)."""
    a, b = e
    if not G.has_edge(a, b):
        raise ValueError(f"edge {e} not present")
    if k < 1:
        raise ValueError("k must be >= 1")
    first = sqfree_power_via_matchings(remove_edge(G, e), k)
    ab = edge_mask(e)
    inner = edges_within(G, set(G.vertices) - {a, b})
    factor = sqfree_power_via_matchings(inner, k - 1)
    second = minimalize(G.n, (ab | u for u in factor.gens))
    return intersect(first, second)


def l_ideal_shape(G: Graph, e: Edge, k: int) -> MonomialIdeal:
    """Predicted generators of l_ideal under the degree hypothesis.

    Each has the form x_c x_a x_b times a (k-1)-matching support of
    G - {a, b, c}, where c is a neighbor of a or b other than the endpoints.
    """
    a, b = e
    if not G.has_edge(a, b):
        raise ValueError(f"edge {e} not present")
    if k < 1:
        raise ValueError("k must be >= 1")
    ab = edge_mask(e)
    gens: set[int] = set()
    for c in sorted((G.neighbors(a) | G.neighbors(b)) - {a, b}):
        base = ab | monomial([c])
        rest = edges_within(G, set(G.vertices) - {a, b, c})
        for u in sqfree_power_via_matchings(rest, k - 1).gens:
            gens.add(base | u)
    return minimalize(G.n, gens)


def l_degree_hypothesis(G: Graph, e: Edge, k: int) -> bool:
    """Hypothesis under which l_ideal is generated in degree 2k + 1.

    Every k-matching M of G - e must contain an edge f meeting some vertex c
    adjacent to a or b (c outside the edge e) such that M - f avoids both a
    and b.  This depends on the support U of M alone, so it is read off the
    generators of I(G - e)^[k], which l_ideal builds next:
    - if a and b are both in U, they lie on different edges of M, so removing
      any one edge f leaves a or b in U - f, and M fails;
    - if exactly one of them, say a, is in U, its edge is {a, c} with c in
      N(a) - {b}, and removing it leaves neither, so M holds;
    - if neither is in U, M holds iff U meets N(a) or N(b).
    So the hypothesis holds iff no U contains both a and b and every U meets
    N(a) | N(b), which holds a and b.
    """
    a, b = e
    if not G.has_edge(a, b):
        raise ValueError(f"edge {e} not present")
    ab = edge_mask(e)
    near = G.adjacency[a] | G.adjacency[b]
    supports = sqfree_power_via_matchings(remove_edge(G, e), k).gens
    return all(u & ab != ab and u & near for u in supports)


def is_generated_in_degree(I: MonomialIdeal, d: int) -> bool:
    """All generators have degree d; vacuously true for the zero ideal."""
    return all(g.bit_count() == d for g in I.gens)


def lambda_number(G: Graph) -> int:
    """Least k such that I(G)^[j] is linearly related for every j from k to nu(G)."""
    if not G.edges:
        raise ValueError("lambda is defined for graphs with at least one edge")
    nu = matching_number(G)
    lam = nu + 1
    for k in range(nu, 0, -1):
        if is_linearly_related_combinatorial(sqfree_power_via_matchings(G, k)):
            lam = k
        else:
            break
    return lam


# ---------------------------------------------------------------------------
# forest classification

class TemplateMatch(NamedTuple):
    """One way a forest instantiates a template.

    kind "G1": spine (x1, x2, x3) carrying edges x1x2 and x2x3, bouquets are
    the leaf sets on x1, x2, x3 (each possibly empty).
    kind "G2": spine path (x1, x2, x3, x4) with x2, x3 of degree two, bouquets
    are the nonempty leaf sets on x1 and x4.
    kind "G3": two star components; spine holds the centers, bouquets the
    leaf sets.
    """

    kind: str
    spine: tuple[int, ...]
    bouquets: tuple[tuple[int, ...], ...]


class ForestClassification(NamedTuple):
    matches: tuple[TemplateMatch, ...]

    @property
    def matched(self) -> bool:
        return bool(self.matches)

    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted({m.kind for m in self.matches}))


def classify_forest(G: Graph) -> ForestClassification:
    """Match a forest against the three templates, returning every match.

    Raises on non-forests.  Forests that fit no template (isolated vertices,
    the single edge, long paths, ...) return an empty match list.
    """
    if not is_forest(G):
        raise ValueError("classification applies to forests only")
    matches: list[TemplateMatch] = []
    matches.extend(_g1_matches(G))
    matches.extend(_g2_matches(G))
    matches.extend(_g3_matches(G))
    return ForestClassification(tuple(sorted(matches, key=lambda m: (m.kind, m.spine))))


def _leaves_on(
    G: Graph, spine: tuple[int, ...], hosts: tuple[int, ...]
) -> tuple[tuple[int, ...], ...] | None:
    """Leaves per host; None unless each vertex off the spine is a leaf on a host."""
    leaves: dict[int, list[int]] = {x: [] for x in hosts}
    for v in G.vertices:
        if v in spine:
            continue
        if G.degree(v) != 1:
            return None
        (nb,) = G.neighbors(v)
        if nb not in leaves:
            return None
        leaves[nb].append(v)
    return tuple(tuple(leaves[x]) for x in hosts)


def _g1_matches(G: Graph) -> list[TemplateMatch]:
    out = []
    for x2 in G.vertices:
        for x1, x3 in itertools.combinations(sorted(G.neighbors(x2)), 2):
            spine = (x1, x2, x3)
            bouquets = _leaves_on(G, spine, spine)
            if bouquets is not None:
                out.append(TemplateMatch("G1", spine, bouquets))
    return out


def _g2_matches(G: Graph) -> list[TemplateMatch]:
    out = []
    for u, v in G.edge_list:
        for x2, x3 in ((u, v), (v, u)):
            if G.degree(x2) != 2 or G.degree(x3) != 2:
                continue
            (x1,) = G.neighbors(x2) - {x3}
            (x4,) = G.neighbors(x3) - {x2}
            if x1 > x4 or len({x1, x2, x3, x4}) != 4:
                continue
            spine = (x1, x2, x3, x4)
            bouquets = _leaves_on(G, spine, (x1, x4))
            if bouquets is not None and all(bouquets):
                out.append(TemplateMatch("G2", spine, bouquets))
    return out


def _g3_matches(G: Graph) -> list[TemplateMatch]:
    comps = connected_components(G)
    if len(comps) != 2:
        return []
    center_choices: list[list[tuple[int, tuple[int, ...]]]] = []
    for comp in comps:
        size = len(comp)
        if size < 2:
            return []
        inner = [e for e in G.edge_list if e[0] in comp]
        if len(inner) != size - 1:
            return []
        choices = []
        for c in sorted(comp):
            if G.degree(c) == size - 1:
                choices.append((c, tuple(sorted(comp - {c}))))
        if not choices:
            return []
        center_choices.append(choices)
    out = []
    for (c1, l1), (c2, l2) in itertools.product(*center_choices):
        out.append(TemplateMatch("G3", (c1, c2), (l1, l2)))
    return out
