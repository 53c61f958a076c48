"""The request: its memo of finished results and its time budget.

Closed, as it starts, the memo computes every value afresh and keeps nothing,
so the library API and the single-object CLI commands never hold on to a
result.  ``checks.run_checks`` opens it around its serial loop, and each pool
worker opens it as its initializer, for the life of the pool.

A call site asks for a value by key and gives the function that computes it.
So are memoised, each by its key:

- the lcm lattice, by ``gens``;
- the Betti table, by ``(gens, p)``;
- the combinatorial linear-relatedness verdict, by ``gens``;
- the squarefree power via matchings, by ``(n, edges, k)``, as an ideal
  carries n; the edge ideal is its first power;
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

Inside a ``time_budget`` scope (``linquot``, each check of ``verify``), every
search that calls ``check_deadline`` raises ``BudgetExceeded`` once the
seconds are spent, at any depth; outside one, nothing is bounded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, TypeVar

T = TypeVar("T")

_MISSING = object()
_stores: dict | None = None  # code of a compute function -> its store, while open
_deadline: float | None = None  # the time.monotonic() bound of the request


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


class BudgetExceeded(RuntimeError):
    """Raised when a computation overruns its node or time budget."""


def check_budgets(node_budget: int = 0, seconds: float | None = None) -> None:
    """Nodes are an int >= 0; seconds are None or a number >= 0, not NaN."""
    if not isinstance(node_budget, int) or node_budget < 0:
        raise ValueError(f"node budget must be an int >= 0, got {node_budget!r}")
    if seconds is not None and not seconds >= 0:
        raise ValueError(f"time budget must be >= 0 seconds, got {seconds!r}")


@contextmanager
def time_budget(seconds: float | None) -> Iterator[None]:
    """Raise ``BudgetExceeded`` in the body's computations after *seconds*.

    ``None`` sets no bound and 0 is spent at the first check; a negative or
    NaN budget raises ``ValueError``.  The outer bound comes back on exit.
    """
    check_budgets(seconds=seconds)
    global _deadline
    outer = _deadline
    _deadline = None if seconds is None else time.monotonic() + seconds
    try:
        yield
    finally:
        _deadline = outer


def check_deadline() -> None:
    if _deadline is not None and time.monotonic() >= _deadline:
        raise BudgetExceeded("time budget exhausted")
