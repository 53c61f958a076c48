"""Multigraded Betti numbers of squarefree monomial ideals over a finite prime field.

The computation runs one multidegree at a time.  For a squarefree monomial m
in the lcm lattice of I, the Betti number b_{i,m}(I) equals the dimension of
the (i-1)-st reduced homology of the complex

    K^m(I) = { S subset of support(m) : the monomial m with S removed lies in I }.

Membership in I is read from a table.  For I.n <= TABLE_MAX_VARS one byte per
squarefree monomial on the n variables (2^n bytes) is set on the generators
and then closed upwards, one numpy pass per variable; the table is built once
per ideal and shared by every multidegree.  The faces of K^m are then the
complements m ^ T of the monomials T in I that divide m.  When deg(m) is
below NUMPY_WALK_MIN_DEGREE the submasks T are walked in plain Python and
bucketed by cardinality; from there on one vectorised numpy gather over all
2^deg(m) submasks is cheaper.  Ideals on more than TABLE_MAX_VARS variables
build no table: faces are enumerated by cardinality, stopping at the first
empty level (complexes are closed under subsets), and each candidate is
tested against the generators that divide m.

Boundary ranks are taken over GF(p), p = 32003 by default, by one sparse
kernel: each face mask becomes a signed column {row: +-1}, and the columns
are reduced by their lowest nonzero row in exact Python integers, so every p
is exact.  The maps are reduced from the top level down, and a face that was
a pivot row of the map above is skipped (clearing), because its column would
reduce to zero.  The characteristic is recorded in every table because Betti
numbers may depend on it.  Primality is decided by deterministic
Miller-Rabin, and characteristics from 2^64 up are rejected.

Nonzero Betti numbers occur only at lattice multidegrees, so tables store a
sparse map (i, m) -> b_{i,m} and derive regularity, projective dimension,
linearity of the resolution, and the coarse graded table from it.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ideals import (
    MonomialIdeal,
    monomial,
    monomial_degree,
    monomial_divides,
    monomial_str,
    monomial_vars,
)

DEFAULT_CHARACTERISTIC = 32003
GENERATOR_CAP = 2000
# read only by the benchmark's tracer, which counts gf_rank calls wider than
# this; no rank path depends on it
SPARSE_COLUMN_THRESHOLD = 5000
TABLE_MAX_VARS = 24
NUMPY_WALK_MIN_DEGREE = 10
MAX_CHARACTERISTIC = 1 << 64


class BudgetExceeded(RuntimeError):
    """Raised when a computation overruns its node or time budget."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("time budget exhausted")


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


def _check_characteristic(characteristic: int) -> None:
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


def gf_rank(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    columns = (
        {r: v % p for r, v in enumerate(column) if v % p}
        for column in np.asarray(matrix).T.tolist()
    )
    return len(_reduce(columns, p))


# ---------------------------------------------------------------------------
# upper-Koszul complexes

def lcm_lattice(gens: Sequence[int]) -> list[int]:
    """All joins of nonempty generator subsets, sorted by degree then support."""
    lattice = set(gens)
    work = list(gens)
    while work:
        m = work.pop()
        for g in gens:
            u = m | g
            if u not in lattice:
                lattice.add(u)
                work.append(u)
    return sorted(lattice, key=lambda m: (monomial_degree(m), monomial_vars(m)))


def _membership_table(I: MonomialIdeal) -> bytearray | None:
    """Byte u is 1 exactly when the squarefree monomial u lies in I.

    None above TABLE_MAX_VARS variables: 2^n bytes (16 MiB at 24) is too
    much to build for every ideal.
    """
    if I.n > TABLE_MAX_VARS:
        return None
    table = bytearray(1 << I.n)
    flags = np.frombuffer(table, dtype=np.uint8)
    flags[list(I.gens)] = 1
    for v in range(I.n):
        # upward closure along x_{v+1}: u + x_{v+1} is in I when u is
        pairs = flags.reshape(-1, 2, 1 << v)
        pairs[:, 1, :] |= pairs[:, 0, :]
    return table


def _walk_levels(table: bytearray, m: int, d: int) -> list[list[int]]:
    """Faces m ^ T of K^m for the members T of I dividing m, walked in Python."""
    levels: list[list[int]] = [[] for _ in range(d + 1)]
    sub = m
    while True:
        if table[sub]:
            levels[d - sub.bit_count()].append(m ^ sub)
        if not sub:
            break
        sub = (sub - 1) & m
    while levels and not levels[-1]:
        levels.pop()
    return levels


def _gather_levels(table: bytearray, m: int, d: int) -> list[list[int]]:
    """The same faces from one numpy gather over all 2^d submasks of m."""
    subs = np.zeros(1, dtype=np.int64)
    cards = np.zeros(1, dtype=np.int64)
    for v in monomial_vars(m):
        subs = np.concatenate((subs, subs | (1 << (v - 1))))
        cards = np.concatenate((cards, cards + 1))
    hit = np.frombuffer(table, dtype=np.uint8)[subs].astype(bool)
    if not hit.any():
        return []
    sizes = d - cards[hit]
    order = np.argsort(sizes, kind="stable")
    faces = (m ^ subs[hit])[order]
    bounds = np.cumsum(np.bincount(sizes))[:-1]
    return [level.tolist() for level in np.split(faces, bounds)]


def _face_levels(
    I: MonomialIdeal,
    m: int,
    table: bytearray | None = None,
    max_card: int | None = None,
) -> list[list[int]]:
    """Faces of K^m(I) grouped by cardinality.

    With a membership table and no max_card every submask of m is tested
    at once (see the module docstring).  Otherwise levels are enumerated by
    cardinality and stop at the first empty one (complexes are closed under
    subsets) or at max_card when given; membership comes from the table, or
    from the generators dividing m when there is none.
    """
    d = m.bit_count()
    if table is not None and max_card is None:
        if d >= NUMPY_WALK_MIN_DEGREE:
            return _gather_levels(table, m, d)
        return _walk_levels(table, m, d)
    if table is None:
        divisors = [g for g in I.gens if monomial_divides(g, m)]

        def contains(u: int) -> bool:
            return any(monomial_divides(g, u) for g in divisors)

    else:
        contains = table.__getitem__
    bits = [1 << (v - 1) for v in monomial_vars(m)]
    cap = d if max_card is None else min(max_card, d)
    levels: list[list[int]] = []
    for c in range(cap + 1):
        level = []
        for combo in itertools.combinations(bits, c):
            face = 0
            for b in combo:
                face |= b
            if contains(m & ~face):
                level.append(face)
        if not level:
            break
        levels.append(level)
    return levels


def _boundary_columns(prev_level: list[int], level: list[int]) -> Iterator[dict[int, int]]:
    """Columns of the boundary map from level to prev_level, one per face.

    The face minus its j-th lowest variable gets the sign (-1)^j.
    """
    index = {f: i for i, f in enumerate(prev_level)}
    for face in level:
        col = {}
        sign = 1
        rest = face
        while rest:
            low = rest & -rest
            col[index[face ^ low]] = sign
            sign = -sign
            rest ^= low
        yield col


def _homology_dims(levels: list[list[int]], p: int) -> list[int]:
    """Reduced homology dimensions: entry i is dim of H-tilde_(i-1).

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

@dataclass(frozen=True)
class BettiTable:
    """Sparse multigraded Betti numbers of a nonzero squarefree ideal."""

    n: int
    characteristic: int
    entries: dict[tuple[int, int], int]  # (homological index, multidegree mask) -> value
    gen_degree: int | None = None  # common generator degree, None when mixed

    def graded(self) -> dict[tuple[int, int], int]:
        """Coarse table: (i, total degree) -> sum of multigraded values."""
        out: dict[tuple[int, int], int] = {}
        for (i, m), v in self.entries.items():
            key = (i, monomial_degree(m))
            out[key] = out.get(key, 0) + v
        return out

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def regularity(self) -> int:
        return max(monomial_degree(m) - i for (i, m) in self.entries)

    def projective_dimension(self) -> int:
        return max(i for (i, _) in self.entries)

    def is_linear(self) -> bool:
        """Every Betti number sits in degree d + i; False for mixed degrees."""
        d = self.gen_degree
        return d is not None and all(
            monomial_degree(m) == d + i for (i, m) in self.entries
        )

    def to_json(self) -> str:
        items = sorted(
            ((i, monomial_vars(m), v) for (i, m), v in self.entries.items()),
            key=lambda t: (t[0], t[1]),
        )
        payload = {
            "n": self.n,
            "char": self.characteristic,
            "gen_degree": self.gen_degree,
            "entries": [[i, list(vs), v] for i, vs, v in items],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "BettiTable":
        payload = json.loads(text)
        entries = {
            (int(i), monomial(vs)): int(v) for i, vs, v in payload["entries"]
        }
        return BettiTable(
            n=int(payload["n"]),
            characteristic=int(payload["char"]),
            entries=entries,
            gen_degree=payload.get("gen_degree"),
        )


def multigraded_betti(
    I: MonomialIdeal,
    characteristic: int = DEFAULT_CHARACTERISTIC,
    generator_cap: int = GENERATOR_CAP,
    deadline: float | None = None,
) -> BettiTable:
    """Full multigraded Betti table of a nonzero squarefree monomial ideal."""
    if I.is_zero:
        raise ValueError("the zero ideal has no Betti table")
    _check_characteristic(characteristic)
    if len(I.gens) > generator_cap:
        raise ValueError(f"{len(I.gens)} generators exceed the cap {generator_cap}")
    entries: dict[tuple[int, int], int] = {}
    table = _membership_table(I)
    for m in lcm_lattice(I.gens):
        _check_deadline(deadline)
        levels = _face_levels(I, m, table)
        for i, dim in enumerate(_homology_dims(levels, characteristic)):
            if dim:
                entries[(i, m)] = dim
    try:
        gen_degree = I.pure_degree()
    except ValueError:
        gen_degree = None
    return BettiTable(
        n=I.n, characteristic=characteristic, entries=entries, gen_degree=gen_degree
    )


def first_syzygy_betti(
    I: MonomialIdeal, m: int, characteristic: int = DEFAULT_CHARACTERISTIC
) -> int:
    """b_{1,m}(I) alone, via the cardinality <= 2 part of K^m(I)."""
    _check_characteristic(characteristic)
    return _first_syzygy(_face_levels(I, m, max_card=2), characteristic)


def _first_syzygy(levels: list[list[int]], characteristic: int) -> int:
    """b_{1,m} from the levels of cardinality <= 2: |L1| - r1 - r2."""
    if len(levels) < 2:
        return 0
    return _homology_dims(levels, characteristic)[1]


def regularity(
    I: MonomialIdeal,
    characteristic: int = DEFAULT_CHARACTERISTIC,
    deadline: float | None = None,
) -> int:
    """Castelnuovo-Mumford regularity; the zero ideal has regularity 1."""
    if I.is_zero:
        return 1
    return multigraded_betti(I, characteristic, deadline=deadline).regularity()


def projective_dimension(
    I: MonomialIdeal, characteristic: int = DEFAULT_CHARACTERISTIC
) -> int:
    if I.is_zero:
        raise ValueError("projective dimension of the zero ideal is undefined")
    return multigraded_betti(I, characteristic).projective_dimension()


def has_linear_resolution(
    I: MonomialIdeal,
    characteristic: int = DEFAULT_CHARACTERISTIC,
    deadline: float | None = None,
) -> bool:
    """All Betti numbers sit in degrees d + i; vacuously true for the zero ideal."""
    if I.is_zero:
        return True
    I.pure_degree()  # raises on mixed generator degrees
    return multigraded_betti(I, characteristic, deadline=deadline).is_linear()


# ---------------------------------------------------------------------------
# linear relatedness, two independent routes

def is_linearly_related_homological(
    I: MonomialIdeal,
    characteristic: int = DEFAULT_CHARACTERISTIC,
    deadline: float | None = None,
) -> bool:
    """First syzygies all linear: b_{1,m} = 0 whenever deg(m) != d + 1.

    Homological route: reduced homology of the small part of each upper-Koszul
    complex.  Vacuously true for the zero ideal.
    """
    _check_characteristic(characteristic)
    if I.is_zero or len(I.gens) == 1:
        return True
    d = I.pure_degree()
    table = _membership_table(I)
    for m in lcm_lattice(I.gens):
        _check_deadline(deadline)
        if monomial_degree(m) <= d + 1:
            continue
        if _first_syzygy(_face_levels(I, m, table, max_card=2), characteristic):
            return False
    return True


def is_linearly_related_combinatorial(
    I: MonomialIdeal, deadline: float | None = None
) -> bool:
    """First syzygies all linear, by generator connectivity.

    Combinatorial route: for every pair of generators u, v there must be a
    path from u to v inside the set of generators dividing lcm(u, v), stepping
    only between generators whose pairwise lcm has degree d + 1.
    """
    if I.is_zero or len(I.gens) == 1:
        return True
    d = I.pure_degree()
    gens = I.gens
    g = len(gens)
    adj = [0] * g
    for i in range(g):
        for j in range(i + 1, g):
            if monomial_degree(gens[i] | gens[j]) == d + 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    for i in range(g):
        _check_deadline(deadline)
        for j in range(i + 1, g):
            m = gens[i] | gens[j]
            if monomial_degree(m) == d + 1:
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


@dataclass(frozen=True)
class SyzygyWitnessReport:
    """Per-pair witnesses showing b_{1,m} = 0 without computing homology.

    For each generator pair u != v with lcm(u, v) = m the witness is a third
    generator w dividing m with lcm(u, w) != m and lcm(v, w) != m, or None
    when no such generator exists.
    """

    m: int
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
    return SyzygyWitnessReport(m=m, pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# linear quotients

def is_linear_quotients_order(gens: Sequence[int]) -> bool:
    """Whether the given generator sequence has linear quotients.

    The colon of the first j-1 generators by the j-th is generated by
    variables exactly when every earlier generator u_l admits an earlier u_l'
    with u_l' : u_j a single variable dividing u_l : u_j.
    """
    for j in range(1, len(gens)):
        w = 0
        for l in range(j):
            q = gens[l] & ~gens[j]
            if q.bit_count() == 1:
                w |= q
        for l in range(j):
            if gens[l] & ~gens[j] and not gens[l] & w:
                return False
    return True


@dataclass(frozen=True)
class LinearQuotientsResult:
    status: str  # "found" | "none" | "inconclusive"
    order: tuple[int, ...] | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"


_FAILED_SET_CAP = 1 << 20


def linear_quotients_order(
    I: MonomialIdeal,
    node_budget: int = 10_000_000,
    deadline: float | None = None,
) -> LinearQuotientsResult:
    """Search for a linear-quotients order of the generators.

    Whether a generator can be appended depends only on the set already
    placed, never on its order, so the search memoizes failed prefix sets and
    backtracks chronologically.  Certified "none" requires exhausting the
    search; running out of budget reports "inconclusive".
    """
    if I.is_zero:
        return LinearQuotientsResult("found", (), 0)
    I.pure_degree()  # raises on mixed generator degrees
    gens = I.gens
    g = len(gens)
    if g == 1:
        return LinearQuotientsResult("found", gens, 0)
    d = monomial_degree(gens[0])
    linear_mates = [
        sum(1 for j in range(g) if j != i and monomial_degree(gens[i] | gens[j]) == d + 1)
        for i in range(g)
    ]
    heuristic = sorted(range(g), key=lambda i: (-linear_mates[i], monomial_vars(gens[i])))
    failed: set[int] = set()
    order: list[int] = []
    nodes = 0

    def addable(j: int) -> bool:
        gj = gens[j]
        w = 0
        for i in order:
            q = gens[i] & ~gj
            if q.bit_count() == 1:
                w |= q
        for i in order:
            if gens[i] & ~gj and not gens[i] & w:
                return False
        return True

    def dfs(chosen: int) -> bool:
        nonlocal nodes
        if len(order) == g:
            return True
        if chosen in failed:
            return False
        for j in heuristic:
            bit = 1 << j
            if chosen & bit:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded("node budget exhausted")
            if nodes % 4096 == 0:
                _check_deadline(deadline)
            if addable(j):
                order.append(j)
                if dfs(chosen | bit):
                    return True
                order.pop()
        if len(failed) < _FAILED_SET_CAP:
            failed.add(chosen)
        return False

    try:
        ok = dfs(0)
    except BudgetExceeded:
        return LinearQuotientsResult("inconclusive", None, nodes)
    if ok:
        return LinearQuotientsResult("found", tuple(gens[i] for i in order), nodes)
    return LinearQuotientsResult("none", None, nodes)


# ---------------------------------------------------------------------------
# rendering

def render_betti_diagram(table: BettiTable) -> str:
    """Fixed-width graded Betti diagram, rows labeled by degree minus index."""
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


def betti_diagram_text(
    I: MonomialIdeal, characteristic: int = DEFAULT_CHARACTERISTIC
) -> str:
    """Diagram text for any ideal, with a note instead of a table when zero."""
    if I.is_zero:
        return "(zero ideal: empty Betti diagram, regularity 1 by convention)"
    return render_betti_diagram(multigraded_betti(I, characteristic))
