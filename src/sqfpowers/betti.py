"""Multigraded Betti numbers of squarefree monomial ideals over a finite prime field.

The computation runs one multidegree at a time.  For a squarefree monomial m
in the lcm lattice of I, the Betti number b_{i,m}(I) equals the dimension of
the (i-1)-st reduced homology of the complex

    K^m(I) = { S subset of support(m) : the monomial m with S removed lies in I }.

Membership in I is read from a table.  For I.n <= TABLE_MAX_VARS one byte per
squarefree monomial on the n variables (2^n bytes) is set on the generators
and then closed upwards on one Python integer, one shift-and-or per variable;
the table is built once per ideal and shared by every multidegree.  Ideals on
more than TABLE_MAX_VARS variables build no table: membership of a divisor of
m is decided by the generators that divide m.  Either way, the same walk
finds the faces.

The walk grows the faces of K^m one cardinality at a time: F + b is tried for
each variable b of m above the highest variable of F, and kept when m minus
F + b lies in I.  K^m is closed under subsets, so every face is reached from
its prefix, and the work is (faces) x deg(m), not 2^deg(m).  The homology is
taken relative to the star of v, the lowest variable of m: the star is a
cone, so H-tilde(K^m) = H(K^m, star v).  So only faces avoiding v are walked,
a face F is kept when F + v is not a face (one membership lookup), and boundary
entries on faces of the star are dropped.  If v is not a vertex the star is
empty and every face is kept; m = 1 (the unit ideal) has no variable, and its
complex is the empty face alone.

Boundary ranks are taken over GF(p), p = 32003 by default, by one sparse
kernel: each face mask becomes a signed column {row: +-1}, and the columns
are reduced by their lowest nonzero row in exact Python integers, so every p
is exact.  The maps are reduced from the top level down, and a face that was
a pivot row of the map above is skipped (clearing), because its column would
reduce to zero.  Primality is decided by deterministic Miller-Rabin, and
characteristics from 2^64 up are rejected.

Nonzero Betti numbers occur only at lattice multidegrees, so tables store a
sparse map (i, m) -> b_{i,m} and derive regularity, projective dimension,
linearity of the resolution, and the coarse graded table from it.  The
homological test of linear relatedness reads the b_{1,m} of the same table;
no separate first-syzygy complex is built.  The zero ideal has the zero
resolution, so its table is empty: regularity 1 and a linear resolution by
convention, no projective dimension.  Every homological answer is read from a
table, so the table is the one place that validates the characteristic.

The lattice, each face walk, the linear-relatedness test and the
linear-quotients search read the request's time budget (see ``memo``); this
module keeps only its own rules, the characteristic and ``GENERATOR_CAP``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from . import memo
from .defaults import DEFAULT_CHARACTERISTIC, DEFAULT_NODE_BUDGET
from .ideals import (
    MonomialIdeal,
    monomial_divides,
    monomial_sort_key,
)

GENERATOR_CAP = 2000
# read only by the benchmark's tracer, which counts gf_rank calls wider than
# this; no rank path depends on it
SPARSE_COLUMN_THRESHOLD = 5000
TABLE_MAX_VARS = 24
MAX_CHARACTERISTIC = 1 << 64


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin.

    The first twelve primes as bases decide every p below 3.3e24, so every
    p below MAX_CHARACTERISTIC.
    """
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_characteristic(characteristic: int) -> None:
    """Reject a characteristic that is not a prime below MAX_CHARACTERISTIC."""
    if characteristic >= MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic {characteristic} is not below 2^64")
    if not _is_prime(characteristic):
        raise ValueError(f"characteristic {characteristic} is not prime")


# ---------------------------------------------------------------------------
# rank over GF(p)

def _reduce(columns: Iterable[dict[int, int]], p: int) -> set[int]:
    """Low-pivot column reduction over GF(p); returns the pivot rows.

    Each column maps row index -> entry and holds no entry divisible by p.
    A column is reduced by the stored column whose lowest (largest) row
    matches its own until it vanishes or its low row is new; stored columns
    are scaled so that their low entry is 1.  The rank is the number of
    pivot rows.  Python integers never wrap, so every p is exact.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                if col[low] != 1:
                    inv = pow(col[low], p - 2, p)
                    col = {r: v * inv % p for r, v in col.items()}
                pivots[low] = col
                break
            f = col[low]
            for r, v in pivot.items():
                x = (col.get(r, 0) - f * v) % p
                if x:
                    col[r] = x
                else:
                    del col[r]
    return set(pivots)


def gf_rank(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) of a matrix given as a sequence of integer rows."""
    columns = (
        {r: x for r, v in enumerate(column) if (x := int(v) % p)}
        for column in zip(*matrix)
    )
    return len(_reduce(columns, p))


# ---------------------------------------------------------------------------
# upper-Koszul complexes

def lcm_lattice(gens: Sequence[int]) -> list[int]:
    """All joins of nonempty generator subsets, sorted by degree then support.

    Within a request (see ``memo``), the lattice of each generator tuple is
    built once and the same list is returned to every caller, who must not
    change it.
    """
    gens = tuple(gens)
    return memo.get(gens, lambda: _lattice_joins(gens))


def _lattice_joins(gens: tuple[int, ...]) -> list[int]:
    # after joining in g_1..g_i, the set holds the joins of the nonempty
    # generator sets with at most one member outside g_1..g_i; every set has
    # at most one member, g_g, outside g_1..g_{g-1}, so g - 1 passes suffice
    lattice = set(gens)
    for g in gens[:-1]:
        memo.check_deadline()
        lattice |= {m | g for m in lattice}
    return sorted(lattice, key=lambda m: (m.bit_count(), monomial_sort_key(m)))


def _membership_table(I: MonomialIdeal) -> bytes | None:
    """Byte u is 1 exactly when the squarefree monomial u lies in I.

    None above TABLE_MAX_VARS variables: 2^n bytes (16 MiB at 24) is too
    much to build for every ideal.
    """
    if I.n > TABLE_MAX_VARS:
        return None
    size = 1 << I.n
    flags = bytearray(size)
    for g in I.gens:
        flags[g] = 1
    x = int.from_bytes(flags, "little")
    for v in range(I.n):
        # upward closure along x_{v+1}: u + x_{v+1} is in I when u is; the
        # mask marks the bytes u whose bit v is 0
        half = 1 << v
        mask = (b"\x01" * half + bytes(half)) * (size >> (v + 1))
        x |= (x & int.from_bytes(mask, "little")) << (8 << v)
    return x.to_bytes(size, "little")


class _DividingGenerators:
    """Membership in I of the divisors of m, for ideals with no table.

    ``self[u]`` is True when a generator dividing m divides u; the walk asks
    only about divisors u of m, so these generators decide it.
    """

    def __init__(self, gens: Sequence[int], m: int) -> None:
        self.divisors = [g for g in gens if g & m == g]

    def __getitem__(self, u: int) -> bool:
        return any(g & u == g for g in self.divisors)


def _face_levels(member: bytes | _DividingGenerators, m: int) -> list[list[int]]:
    """Faces of K^m outside the star of its lowest variable v, by cardinality.

    m lies in I.  ``member[u]`` says whether the divisor u of m lies in I:
    the membership table, or ``_DividingGenerators``.  The faces avoiding v
    are grown from their prefixes (see the module docstring); a face F is
    kept when F + v is not a face.  m = 1 has no variable, and its complex is
    the empty face.  The request's time budget is checked once per level.
    """
    v = m & -m
    if not v:
        return [[0]]
    rest = m ^ v
    levels = []
    level = [0]
    while level:
        memo.check_deadline()
        levels.append([f for f in level if not member[m ^ f ^ v]])
        grown = []
        for f in level:
            top = f.bit_length()
            above = rest >> top << top
            mf = m ^ f
            while above:
                b = above & -above
                above ^= b
                if member[mf ^ b]:
                    grown.append(f | b)
        level = grown
    return levels


def _boundary_columns(prev_level: list[int], level: list[int]) -> Iterator[dict[int, int]]:
    """Columns of the boundary map from level to prev_level, one per face.

    The face minus its j-th lowest variable gets the sign (-1)^j; a face
    missing from prev_level (it lies in the star) gets no entry.
    """
    index = {f: i for i, f in enumerate(prev_level)}
    for face in level:
        col = {}
        sign = 1
        rest = face
        while rest:
            low = rest & -rest
            row = index.get(face ^ low)
            if row is not None:
                col[row] = sign
            sign = -sign
            rest ^= low
        yield col


def _homology_dims(levels: list[list[int]], p: int) -> list[int]:
    """Homology dimensions of the levels' chain complex: entry i is dim H_(i-1).

    For the levels of ``_face_levels`` this is H-tilde_(i-1)(K^m).

    The boundary maps are reduced from the top level down.  A face whose
    row was a pivot of the map above is the low entry of a reduced cycle
    there; its own column would reduce to zero, so it is skipped (clearing).
    """
    dims = [len(level) for level in levels]
    cleared: set[int] = set()
    for c in range(len(levels) - 1, 0, -1):
        faces = [f for i, f in enumerate(levels[c]) if i not in cleared]
        cleared = _reduce(_boundary_columns(levels[c - 1], faces), p)
        dims[c] -= len(cleared)
        dims[c - 1] -= len(cleared)
    return dims


# ---------------------------------------------------------------------------
# Betti tables

class BettiTable(NamedTuple):
    """Sparse multigraded Betti numbers of a squarefree ideal, empty when it is zero."""

    entries: dict[tuple[int, int], int]  # (homological index, multidegree mask) -> value
    gen_degree: int | None = None  # common generator degree, None when mixed

    def graded(self) -> dict[tuple[int, int], int]:
        """Coarse table: (i, total degree) -> sum of multigraded values."""
        out: dict[tuple[int, int], int] = {}
        for (i, m), v in self.entries.items():
            key = (i, m.bit_count())
            out[key] = out.get(key, 0) + v
        return out

    def regularity(self) -> int:
        """max(deg m - i); 1 by convention for the empty table."""
        return max((m.bit_count() - i for (i, m) in self.entries), default=1)

    def projective_dimension(self) -> int | None:
        """max i; None for the empty table."""
        return max((i for (i, _) in self.entries), default=None)

    def is_linear(self) -> bool:
        """Every Betti number sits in degree d + i; False for mixed degrees."""
        d = self.gen_degree
        return not self.entries or (
            d is not None
            and all(m.bit_count() == d + i for (i, m) in self.entries)
        )


def multigraded_betti(
    I: MonomialIdeal, characteristic: int = DEFAULT_CHARACTERISTIC
) -> BettiTable:
    """Full multigraded Betti table of a squarefree monomial ideal.

    The zero ideal gets the empty table.  Within a request (see ``memo``),
    each (gens, characteristic) is computed once and the same table is
    returned to every caller, who must not change its entries.  The number of
    variables is left out of the key: the walk of K^m visits only divisors of
    m, so n decides how membership is looked up, never an entry.
    """
    if len(I.gens) > GENERATOR_CAP:
        raise ValueError(f"{len(I.gens)} generators exceed the cap {GENERATOR_CAP}")
    return memo.get((I.gens, characteristic), lambda: _betti_table(I, characteristic))


def _betti_table(I: MonomialIdeal, characteristic: int) -> BettiTable:
    check_characteristic(characteristic)
    entries: dict[tuple[int, int], int] = {}
    lattice = lcm_lattice(I.gens)
    # the zero ideal has no multidegree to walk, so no table to build
    table = _membership_table(I) if lattice else None
    for m in lattice:
        member = table if table is not None else _DividingGenerators(I.gens, m)
        for i, dim in enumerate(_homology_dims(_face_levels(member, m), characteristic)):
            if dim:
                entries[(i, m)] = dim
    try:
        gen_degree = I.pure_degree()
    except ValueError:
        gen_degree = None
    return BettiTable(entries, gen_degree)


def regularity(I: MonomialIdeal, characteristic: int = DEFAULT_CHARACTERISTIC) -> int:
    """Castelnuovo-Mumford regularity; the zero ideal has regularity 1."""
    return multigraded_betti(I, characteristic).regularity()


def projective_dimension(
    I: MonomialIdeal, characteristic: int = DEFAULT_CHARACTERISTIC
) -> int:
    pd = multigraded_betti(I, characteristic).projective_dimension()
    if pd is None:
        raise ValueError("projective dimension of the zero ideal is undefined")
    return pd


def has_linear_resolution(
    I: MonomialIdeal, characteristic: int = DEFAULT_CHARACTERISTIC
) -> bool:
    """All Betti numbers sit in degrees d + i; vacuously true for the zero ideal."""
    I.pure_degree()  # raises on mixed generator degrees
    return multigraded_betti(I, characteristic).is_linear()


# ---------------------------------------------------------------------------
# linear relatedness, two independent routes

def is_linearly_related_homological(
    I: MonomialIdeal, characteristic: int = DEFAULT_CHARACTERISTIC
) -> bool:
    """First syzygies all linear: b_{1,m} = 0 whenever deg(m) != d + 1.

    Homological route: the (1, m) entries of the multigraded Betti table.
    Vacuously true for the zero ideal.
    """
    d = I.pure_degree()
    table = multigraded_betti(I, characteristic)
    return all(m.bit_count() == d + 1 for (i, m) in table.entries if i == 1)


def is_linearly_related_combinatorial(I: MonomialIdeal) -> bool:
    """First syzygies all linear, by generator connectivity.

    Combinatorial route: for every pair of generators u, v there must be a
    path from u to v inside the set of generators dividing lcm(u, v), stepping
    only between generators whose pairwise lcm has degree d + 1.  Within a
    request (see ``memo``), each generator tuple is decided once; a mixed
    degree raises on every call.
    """
    d = I.pure_degree()
    return memo.get(I.gens, lambda: _linearly_related(I.gens, d))


def _linearly_related(gens: tuple[int, ...], d: int | None) -> bool:
    g = len(gens)
    adj = [0] * g
    for i in range(g):
        for j in range(i + 1, g):
            if (gens[i] | gens[j]).bit_count() == d + 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    for i in range(g):
        memo.check_deadline()
        for j in range(i + 1, g):
            m = gens[i] | gens[j]
            if m.bit_count() == d + 1:
                continue
            divisors = 0
            for k in range(g):
                if monomial_divides(gens[k], m):
                    divisors |= 1 << k
            reach = 1 << i
            frontier = reach
            target = 1 << j
            while frontier and not reach & target:
                nxt = 0
                rest = frontier
                while rest:
                    low = rest & -rest
                    nxt |= adj[low.bit_length() - 1]
                    rest ^= low
                frontier = nxt & divisors & ~reach
                reach |= frontier
            if not reach & target:
                return False
    return True


class SyzygyWitnessReport(NamedTuple):
    """Per-pair witnesses showing b_{1,m} = 0 without computing homology.

    For each generator pair u != v with lcm(u, v) = m the witness is a third
    generator w dividing m with lcm(u, w) != m and lcm(v, w) != m, or None
    when no such generator exists.
    """

    pairs: tuple[tuple[int, int, int | None], ...]

    @property
    def all_covered(self) -> bool:
        return all(w is not None for _, _, w in self.pairs)


def first_syzygy_witness(I: MonomialIdeal, m: int) -> SyzygyWitnessReport:
    dividing = [g for g in I.gens if monomial_divides(g, m)]
    pairs = []
    for a, u in enumerate(dividing):
        for v in dividing[a + 1 :]:
            if u | v != m:
                continue
            witness = None
            for w in dividing:
                if w in (u, v):
                    continue
                if u | w != m and v | w != m:
                    witness = w
                    break
            pairs.append((u, v, witness))
    return SyzygyWitnessReport(tuple(pairs))


# ---------------------------------------------------------------------------
# linear quotients

def _variable_quotients(gens: Sequence[int], u: int) -> int:
    """The mask of the variables that are t : u for some t in gens."""
    not_u = ~u
    w = 0
    for t in gens:
        q = t & not_u
        if q.bit_count() == 1:
            w |= q
    return w


def _colon_is_linear(placed: Sequence[int], u: int) -> bool:
    """Whether the colon (placed) : u is generated by variables.

    It is exactly when every placed t with t : u != 1 admits a placed t' with
    t' : u a single variable dividing t : u.
    """
    w = _variable_quotients(placed, u)
    not_u = ~u
    for t in placed:
        if t & not_u and not t & w:
            return False
    return True


class LinearQuotientsResult(NamedTuple):
    status: str  # "found" | "none" | "inconclusive"
    order: tuple[int, ...] | None
    nodes: int
    reason: str | None = None  # set only on a "none" certified without search

    @property
    def found(self) -> bool:
        return self.status == "found"


_FAILED_SET_CAP = 1 << 20


def linear_quotients_order(
    I: MonomialIdeal, node_budget: int = DEFAULT_NODE_BUDGET
) -> LinearQuotientsResult:
    """Find a linear-quotients order of the generators, or certify there is none.

    Linear quotients imply a linear resolution over every field, which implies
    linearly related first syzygies (Herzog-Hibi, Monomial Ideals, Prop.
    8.2.1).  So "none" is certified in one of two ways: the combinatorial
    linear-relatedness test fails (nodes 0, reason "not linearly related"), or
    the search of search_linear_quotients is exhausted (reason None).  Running
    out of the request's ``time_budget`` in either, or of node_budget in the
    search, reports "inconclusive".
    """
    memo.check_budgets(node_budget)
    try:
        related = is_linearly_related_combinatorial(I)
    except memo.BudgetExceeded:
        return LinearQuotientsResult("inconclusive", None, 0)
    if not related:
        return LinearQuotientsResult("none", None, 0, "not linearly related")
    return search_linear_quotients(I, node_budget)


def _precedence(gens: Sequence[int]) -> list[int]:
    """Entry j: the mask of the generators that precede gens[j] in every
    linear-quotients order.

    Write t:u for t / gcd(t, u).  If t precedes u, the colon of the generators
    placed before u contains t:u and is generated by variables, so some
    generator s has s:u a variable dividing t:u.  So where no s:u that is a
    variable divides t:u, u must precede t.  A linearly related ideal has no
    such pair: the first step of a linear path from u to t inside lcm(u, t)
    is such an s.
    """
    single = [_variable_quotients(gens, u) for u in gens]  # variables outside u
    return [
        sum(1 << i for i, u in enumerate(gens) if i != j and not t & single[i])
        for j, t in enumerate(gens)
    ]


def search_linear_quotients(I: MonomialIdeal, node_budget: int) -> LinearQuotientsResult:
    """Search for a linear-quotients order of the generators.

    Whether a generator can be appended depends only on the set already
    placed, never on its order, so the search memoizes failed prefix sets and
    backtracks chronologically.  A generator is not tried before every
    generator that ``_precedence`` puts before it is placed; such a subtree
    holds no order, so this changes no result, only the nodes explored.
    Certified "none" requires exhausting the search; running out of budget
    reports "inconclusive".  The theorem checks that compare linear quotients
    with linear relatedness call this directly.
    """
    if I.is_zero:
        return LinearQuotientsResult("found", (), 0)
    I.pure_degree()  # raises on mixed generator degrees
    gens = I.gens
    g = len(gens)
    if g == 1:
        return LinearQuotientsResult("found", gens, 0)
    d = gens[0].bit_count()
    linear_mates = [
        sum(1 for j in range(g) if j != i and (gens[i] | gens[j]).bit_count() == d + 1)
        for i in range(g)
    ]
    heuristic = sorted(range(g), key=lambda i: (-linear_mates[i], monomial_sort_key(gens[i])))
    before = _precedence(gens)
    failed: set[int] = set()
    placed: list[int] = []  # the generators of the current prefix, in order
    nodes = 0

    def dfs(chosen: int) -> bool:
        nonlocal nodes
        if len(placed) == g:
            return True
        if chosen in failed:
            return False
        for j in heuristic:
            bit = 1 << j
            if chosen & bit or before[j] & ~chosen:
                continue
            nodes += 1
            if nodes > node_budget:
                raise memo.BudgetExceeded("node budget exhausted")
            if nodes % 4096 == 0:
                memo.check_deadline()
            if _colon_is_linear(placed, gens[j]):
                placed.append(gens[j])
                if dfs(chosen | bit):
                    return True
                placed.pop()
        if len(failed) < _FAILED_SET_CAP:
            failed.add(chosen)
        return False

    try:
        memo.check_deadline()
        ok = dfs(0)
    except memo.BudgetExceeded:
        return LinearQuotientsResult("inconclusive", None, nodes)
    if ok:
        return LinearQuotientsResult("found", tuple(placed), nodes)
    return LinearQuotientsResult("none", None, nodes)


# ---------------------------------------------------------------------------
# rendering

def render_betti_diagram(table: BettiTable) -> str:
    """Fixed-width graded Betti diagram, rows labeled by degree minus index.

    The empty table of the zero ideal gets a note instead.
    """
    if not table.entries:
        return "(zero ideal: empty Betti diagram, regularity 1 by convention)"
    graded = table.graded()
    max_i = max(i for i, _ in graded)
    cols = list(range(max_i + 1))
    row_labels = sorted({j - i for i, j in graded})
    totals = [sum(v for (i, _), v in graded.items() if i == c) for c in cols]

    def cell(i: int, row: int) -> str:
        v = graded.get((i, row + i), 0)
        return str(v) if v else "-"

    body = [[f"{r}:"] + [cell(c, r) for c in cols] for r in row_labels]
    body.append(["Tot:"] + [str(t) for t in totals])
    header = [""] + [str(c) for c in cols]
    widths = [
        max(len(row[k]) for row in [header] + body) for k in range(len(header))
    ]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
