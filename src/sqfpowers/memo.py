"""The memo of finished results that lives for one request.

Closed, as it starts, the memo computes every value afresh and keeps nothing,
so the library API and the single-object CLI commands never hold on to a
result.  ``checks.run_checks`` opens it around its serial loop, and each pool
worker opens it as its initializer, for the life of the pool.

A call site asks for a value by key and gives the function that computes it.
So are memoised, each by its key:

- the lcm lattice, by ``gens``;
- the Betti table, by ``(gens, p)``;
- the combinatorial linear-relatedness verdict, by ``gens``;
- the squarefree power via matchings, by ``(n, edges, k)``, and the edge
  ideal, by ``(n, edges)``, as an ideal carries n;
- the matching numbers nu, nu0 and nu1 and equimatchability, each by
  ``edges``;
- the Ratliff verdict I^[k] : I^[l] = I^[k], by ``(gens, k, l)``.

A key holds only what the value depends on, so an ideal or graph that recurs
on more variables, as an induced subgraph or beside isolated vertices, is
computed once.  Each call site has its own store, found by the code of its
compute function, so equal keys of two call sites never meet.  Only a finished
value is stored; an exception raised while computing (an exhausted budget,
bad input) propagates and stores nothing.  Input checks that raise stay
outside the compute function, so they run on every call.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

T = TypeVar("T")

_MISSING = object()
_stores: dict | None = None  # code of a compute function -> its store, while open


def open() -> None:
    """Start a request with nothing stored; it lasts until ``close``."""
    global _stores
    _stores = {}


def close() -> None:
    global _stores
    _stores = None


def get(key: Hashable, compute: Callable[[], T]) -> T:
    """The value this call site stored under key, else compute(), stored while open."""
    if _stores is None:
        return compute()
    store = _stores.get(compute.__code__)
    if store is None:
        store = _stores[compute.__code__] = {}
    value = store.get(key, _MISSING)
    if value is _MISSING:
        value = store[key] = compute()
    return value
