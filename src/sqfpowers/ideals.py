"""Squarefree monomial ideals in a polynomial ring K[x_1, ..., x_n].

A squarefree monomial is stored as an int bitmask: bit i-1 set means the
variable x_i divides it.  Divisibility is mask inclusion, lcm is bitwise or,
and the colon u : v is u & ~v.  An ideal is a sorted antichain of generator
masks; the zero ideal has no generators and the unit ideal is generated by
the mask 0 (the monomial 1).
"""

from __future__ import annotations

import functools
from typing import Iterable

from . import memo
from .graphs import MAX_VERTICES


def monomial(variables: Iterable[int]) -> int:
    mask = 0
    for v in variables:
        if v < 1:
            raise ValueError(f"variable index {v} must be >= 1")
        mask |= 1 << (v - 1)
    return mask


def monomial_vars(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def monomial_divides(u: int, v: int) -> bool:
    return u & ~v == 0


def monomial_str(mask: int) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"x{v}" for v in monomial_vars(mask))


_VAR_LETTERS = str.maketrans("10", "ab")


def monomial_sort_key(mask: int) -> str:
    """A key that orders masks as their ``monomial_vars`` tuples.

    The bits from x_1 upwards become "a" (set) or "b" (clear) up to the
    highest set bit, so the first variable where two monomials differ
    decides, and a monomial whose variables begin another one's comes first.
    The monomial 1 has the empty key.
    """
    return bin(mask)[:1:-1].translate(_VAR_LETTERS) if mask else ""


def sorted_gens(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks in generator order (``monomial_sort_key``)."""
    return tuple(sorted(set(masks), key=monomial_sort_key))


def _check_variables(n: int, gens: tuple[int, ...]) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"variable count {n} outside 0..{MAX_VERTICES}")
    full = (1 << n) - 1
    for g in gens:
        if g & ~full:
            raise ValueError(f"generator {monomial_str(g)} uses variables beyond n={n}")


class MonomialIdeal:
    """Antichain of squarefree monomial generators over n variables."""

    n: int
    gens: tuple[int, ...]

    def __init__(self, n: int, gens: tuple[int, ...]) -> None:
        _check_variables(n, gens)
        if gens != sorted_gens(gens):
            raise ValueError("generators must be sorted and duplicate-free")
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                if monomial_divides(g, h) or monomial_divides(h, g):
                    raise ValueError("generators must form an antichain")
        self.__dict__.update(n=n, gens=gens)

    @classmethod
    def _trusted(cls, n: int, gens: tuple[int, ...]) -> "MonomialIdeal":
        """An ideal from gens that are already a sorted antichain.

        Only n and the variables are checked, in O(g); the public constructor
        also re-checks the order and the antichain, in O(g^2).
        """
        _check_variables(n, gens)
        ideal = object.__new__(cls)
        ideal.__dict__.update(n=n, gens=gens)
        return ideal

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n!r}, gens={self.gens!r})"

    @staticmethod
    def zero(n: int) -> "MonomialIdeal":
        return MonomialIdeal(n, ())

    @staticmethod
    def unit(n: int) -> "MonomialIdeal":
        return MonomialIdeal(n, (0,))

    @staticmethod
    def from_supports(n: int, supports: Iterable[Iterable[int]]) -> "MonomialIdeal":
        return minimalize(n, (monomial(s) for s in supports))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == (0,)

    def contains(self, mask: int) -> bool:
        """Membership of a squarefree monomial: some generator divides it."""
        return any(monomial_divides(g, mask) for g in self.gens)

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(sorted({g.bit_count() for g in self.gens}))

    def pure_degree(self) -> int | None:
        """Common generator degree, or None for the zero ideal.

        Raises when generators have mixed degrees.
        """
        degs = self.generator_degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"generators have mixed degrees {degs}")
        return degs[0]


def minimalize(n: int, masks: Iterable[int]) -> MonomialIdeal:
    """Ideal generated by the given monomials, reduced to minimal generators.

    Masks are taken degree by degree, each tested only against the kept
    generators of strictly lower degree: distinct masks of one degree never
    divide each other.
    """
    by_degree: dict[int, list[int]] = {}
    for m in set(masks):
        by_degree.setdefault(m.bit_count(), []).append(m)
    kept: list[int] = []
    for degree in sorted(by_degree):
        kept += [
            m for m in by_degree[degree] if not any(monomial_divides(g, m) for g in kept)
        ]
    return MonomialIdeal._trusted(n, sorted_gens(kept))


def sqfree_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th squarefree power: generated by products of k pairwise disjoint generators.

    Zero when no k generators have pairwise disjoint supports; the 0-th power
    is the unit ideal.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    gens = I.gens
    m = len(gens)
    unions: set[int] = set()

    def rec(start: int, used: int, depth: int) -> None:
        memo.check_deadline()
        if depth == k:
            unions.add(used)
            return
        for i in range(start, m - (k - depth) + 1):
            g = gens[i]
            if g & used:
                continue
            rec(i + 1, used | g, depth + 1)

    rec(0, 0, 0)
    return minimalize(I.n, unions)


def colon_by_monomial(I: MonomialIdeal, v: int) -> MonomialIdeal:
    """The colon ideal I : v for a squarefree monomial v; g : v = g / gcd(g, v)."""
    return minimalize(I.n, (g & ~v for g in I.gens))


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    return minimalize(I.n, (a | b for a in I.gens for b in J.gens))


def colon_ideal(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The colon ideal I : J = intersection of I : v over generators v of J."""
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    if J.is_zero:
        raise ValueError("colon by the zero ideal is undefined here")
    return functools.reduce(intersect, (colon_by_monomial(I, v) for v in J.gens))


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    if I.n != J.n:
        raise ValueError("ideals live in different rings")
    return minimalize(I.n, I.gens + J.gens)


def restrict(I: MonomialIdeal, m: int) -> MonomialIdeal:
    """Subideal generated by the generators dividing the monomial m."""
    return MonomialIdeal._trusted(
        I.n, tuple(g for g in I.gens if monomial_divides(g, m))
    )


def ratliff_check(I: MonomialIdeal, k: int, l: int) -> bool | None:
    """Whether I^[k] : I^[l] = I^[k]; None when I^[l] is zero (vacuous).

    Within a request (see ``memo``), decided once per (gens, k, l).
    """
    if not 1 <= l <= k:
        raise ValueError("need 1 <= l <= k")
    return memo.get((I.gens, k, l), lambda: _ratliff(I, k, l))


def _ratliff(I: MonomialIdeal, k: int, l: int) -> bool | None:
    Il = sqfree_power(I, l)
    if Il.is_zero:
        return None
    Ik = sqfree_power(I, k)
    return colon_ideal(Ik, Il) == Ik


# ---------------------------------------------------------------------------
# text format

def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal text format.

    Header "n <count>", then one generator per line as space-separated
    variable indices; '#' starts a comment.  A line holding just "-" is the
    monomial 1 (unit ideal).  Generators are minimalized.
    """
    n: int | None = None
    supports: list[tuple[int, ...]] = []
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
        if n is None:
            raise ValueError("ideal file must start with a header line 'n <count>'")
        if parts == ["-"]:
            supports.append(())
            continue
        vars_ = tuple(int(p) for p in parts)
        if any(v < 1 or v > n for v in vars_):
            raise ValueError(f"variable outside 1..{n}: {raw!r}")
        if len(set(vars_)) != len(vars_):
            raise ValueError(f"repeated variable in a squarefree generator: {raw!r}")
        supports.append(vars_)
    if n is None:
        raise ValueError("ideal file must contain a header line 'n <count>'")
    return MonomialIdeal.from_supports(n, supports)


def format_ideal(I: MonomialIdeal) -> str:
    lines = [f"n {I.n}"]
    lines.extend(" ".join(str(v) for v in monomial_vars(g)) or "-" for g in I.gens)
    return "\n".join(lines) + "\n"
